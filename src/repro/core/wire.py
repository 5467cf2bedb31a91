"""Wire encoding helpers for report/result serialization.

Two concerns live here:

**Non-finite floats.**  Estimates legitimately contain ``nan`` (no
completed drill-downs yet) and ``inf`` (unknown variance).  Strict JSON
has neither, so the ``to_dict`` / ``from_dict`` pairs on
:class:`~repro.core.estimators.base.RoundReport`,
:class:`~repro.api.config.EngineConfig` and
:class:`~repro.experiments.metrics.ExperimentResult` route every float
through these helpers: non-finite values become the strings ``"nan"`` /
``"inf"`` / ``"-inf"`` on the way out and are restored exactly on the way
in, so ``json.dumps(..., allow_nan=False)`` round-trips losslessly.

**Schema versioning.**  Every wire form carries a ``schema_version`` key
(:data:`SCHEMA_VERSION`, stamped via :func:`stamp`) so payloads are
self-describing across releases.  Decoding is *forward tolerant*:

* unknown keys are ignored (a newer producer may add fields);
* a missing ``schema_version`` means version 0 (payloads produced before
  versioning landed);
* :func:`wire_version` never rejects a higher version — new fields must be
  additive, which is exactly what tolerant readers allow.

Decode failures raise :class:`~repro.errors.WireFormatError`.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..errors import WireFormatError

#: Current wire schema version, stamped into every ``to_dict()`` payload.
SCHEMA_VERSION = 1

#: Wire spellings of the non-finite floats, chosen to be unambiguous when
#: they appear in a JSON number position.
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def stamp(payload: dict) -> dict:
    """Add the current ``schema_version`` to a payload (returned as-is)."""
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def wire_version(payload: Mapping) -> int:
    """The schema version a wire payload declares; missing = 0.

    Version 0 covers every payload produced before versioning landed; the
    integer is returned (not range-checked) so tolerant readers can log or
    branch on versions newer than they were built for.
    """
    value = payload.get("schema_version", 0)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise WireFormatError(
            f"not a wire schema version: {value!r}"
        ) from None


def encode_float(value: float) -> float | str:
    """A float as a strict-JSON-safe value."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def decode_float(value: float | int | str) -> float:
    """Invert :func:`encode_float`."""
    if isinstance(value, str):
        try:
            return _NON_FINITE[value]
        except KeyError:
            raise WireFormatError(
                f"not a wire-encoded float: {value!r}"
            ) from None
    return float(value)


def encode_float_map(values: Mapping[str, float]) -> dict[str, float | str]:
    """A ``name -> float`` mapping with non-finite values wire-encoded."""
    return {name: encode_float(value) for name, value in values.items()}


def decode_float_map(values: Mapping[str, float | str]) -> dict[str, float]:
    """Invert :func:`encode_float_map`."""
    return {name: decode_float(value) for name, value in values.items()}
