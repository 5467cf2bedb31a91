"""One config object for every engine knob.

Before :mod:`repro.api`, the knobs of a simulation were threaded ad hoc:
a process-global data-plane switch, an interface ``k`` here, a
``budget_per_round`` there, and environment variables
(``REPRO_DATA_PLANE``) that could silently override program decisions.
:class:`EngineConfig` consolidates them with one documented precedence
order, highest first:

1. **Explicit config field** — a non-``None`` value on the
   :class:`EngineConfig` an :class:`~repro.api.engine.Engine` was built
   with (or a per-task override on an
   :class:`~repro.api.engine.EstimationTask`).
2. **Process-wide programmatic default** — ``set_data_plane`` /
   ``set_default_observability`` (or their scoped ``using_*`` twins).
3. **Environment variable** — ``REPRO_DATA_PLANE`` for the data plane,
   ``REPRO_OBS`` for the observability plane.  Environment variables are
   *defaults only*: they never override levels 1–2 (see
   ``tests/test_data_plane_precedence.py``).
4. **Built-in default** — ``vectorized`` data plane, observability off.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator
from zlib import crc32

from ..errors import ExperimentError
from ..hiddendb.store import (
    DATA_PLANES,
    get_data_plane,
    overriding_data_plane,
)
from ..obs import get_default_observability, using_observability

#: How per-task estimator seeds derive from :attr:`EngineConfig.seed` when
#: a task does not pin one explicitly.
SEED_POLICIES = ("per-task", "shared")


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Every knob of an estimation engine, in one JSON-serializable object.

    Parameters
    ----------
    data_plane:
        ``"vectorized"`` or ``"scalar"``; scoped around every engine
        operation.  ``None`` defers to the process default
        (``set_data_plane`` > ``REPRO_DATA_PLANE`` > ``"vectorized"``).
    k:
        Page size of the hidden database's top-k interface.
    budget_per_round:
        Default per-round query budget ``G`` a task receives when it does
        not pin its own ``budget`` or ``budget_share``.
    seed:
        Base seed of the engine's seed policy.
    seed_policy:
        ``"per-task"`` (default): each task's estimator seed is derived
        from ``seed`` and the task *name* (stable across runs and
        submission order).  ``"shared"``: every task uses ``seed``
        verbatim.  A task's explicit ``seed`` always wins.
    overlap:
        Enable the HTAP epoch split: ``advance_round`` publishes an
        immutable :class:`~repro.hiddendb.epoch.StoreEpoch` and
        ``run_round`` pins every estimator to it, so ``apply_updates``
        churn for the *next* round can run concurrently with this round's
        queries instead of serializing behind the round barrier.
        Estimates are bit-identical to sequential mode; the only
        behavioral difference is visibility — mutations reach estimators
        at the next publish flip rather than immediately.  Incompatible
        with tasks that install ``on_query`` hooks (the intra-round
        update model needs read-your-writes).
    report_log_limit:
        Upper bound on retained reports: both the engine's execution-order
        log (drained by ``stream_reports()``) and each task's history on
        :class:`~repro.api.TaskHandle` drop their oldest entries past it.
        Budget accounting stays exact regardless (``budget_ledger()``
        reads O(1) counters).  ``None`` (default) keeps every report —
        bound it in long-running services.
    store_dir:
        Durable store directory (see :mod:`repro.api.persistence` and
        ``docs/format.md``).  ``Engine.save()`` defaults to it.  ``None``
        (default) = no durable directory; snapshots then need an explicit
        path.
    observability:
        Enable the :mod:`repro.obs` metrics/tracing plane for engines
        built with this config (see ``docs/observability.md``).  ``None``
        defers to the process default
        (:func:`repro.obs.set_default_observability` > ``REPRO_OBS`` env
        var > off).  Estimates are bit-identical either way; enabling is
        engine-wide (the registry is process-global) and an engine never
        *disables* a registry another engine enabled.
    """

    data_plane: str | None = None
    k: int = 100
    budget_per_round: int = 300
    seed: int = 0
    seed_policy: str = "per-task"
    overlap: bool = False
    report_log_limit: int | None = None
    store_dir: str | None = None
    observability: bool | None = None

    def __post_init__(self) -> None:
        if self.observability is not None and not isinstance(
            self.observability, bool
        ):
            raise ExperimentError("observability must be a bool or None")
        if self.k < 1:
            raise ExperimentError("k must be at least 1")
        if self.budget_per_round < 1:
            raise ExperimentError("budget_per_round must be positive")
        if self.report_log_limit is not None and self.report_log_limit < 1:
            raise ExperimentError("report_log_limit must be positive")
        if self.seed_policy not in SEED_POLICIES:
            raise ExperimentError(
                f"unknown seed policy {self.seed_policy!r}; "
                f"available: {', '.join(SEED_POLICIES)}"
            )
        if self.data_plane is not None and self.data_plane not in DATA_PLANES:
            raise ExperimentError(
                f"unknown data plane {self.data_plane!r}; "
                f"available: {', '.join(DATA_PLANES)}"
            )

    # ------------------------------------------------------------------
    # Resolution against the process-wide defaults (precedence levels 2-4)
    # ------------------------------------------------------------------
    def resolved_data_plane(self) -> str:
        """The data plane this config selects, after the precedence order."""
        return self.data_plane if self.data_plane is not None else (
            get_data_plane()
        )

    def resolved_observability(self) -> bool:
        """Whether this config enables the observability plane, after the
        precedence order (explicit field > ``set_default_observability``
        > ``REPRO_OBS`` > off)."""
        return self.observability if self.observability is not None else (
            get_default_observability()
        )

    @contextmanager
    def apply(self) -> Iterator["EngineConfig"]:
        """Scope the active defaults to this config's explicit choices.

        ``None`` fields leave the corresponding default untouched, so
        wrapping legacy code in ``config.apply()`` is always safe.  A
        non-``None`` ``data_plane`` becomes a context-local override
        (:func:`~repro.hiddendb.store.overriding_data_plane`): it governs
        everything run inside the scope on this thread and is invisible
        to concurrent threads — no process-global state is mutated.
        """
        with overriding_data_plane(self.data_plane), using_observability(
            self.observability
        ):
            yield self

    def task_seed(self, task_name: str, explicit: int | None = None) -> int:
        """The estimator seed for a named task under the seed policy."""
        if explicit is not None:
            return explicit
        if self.seed_policy == "shared":
            return self.seed
        # Stable, submission-order-independent derivation: the same
        # (config seed, task name) pair always yields the same stream.
        return self.seed + (crc32(task_name.encode("utf-8")) % 1_000_003)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A strict-JSON-safe payload (with ``schema_version``);
        :meth:`from_dict` round-trips it."""
        from ..core.wire import stamp

        return stamp(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Forward tolerant (the wire versioning policy of
        :mod:`repro.core.wire`): unknown keys — fields added by a newer
        producer, plus ``schema_version`` itself — are ignored, and a
        payload without a version is read as the pre-versioning v0 form.
        Known fields still validate through ``__post_init__``, so
        tolerance never admits an invalid config.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })
