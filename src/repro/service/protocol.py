"""Typed request/response forms shared by the facade and the HTTP layer.

The service plane is a *thin transport*: every payload that crosses the
wire is one of the dataclasses below, and :class:`~repro.service.app
.ServiceApp` consumes/produces exactly the same objects in-process — the
HTTP server (:mod:`repro.service.http`) only decodes JSON into them and
encodes them back.  Tests and benchmarks can therefore drive the facade
directly and compare bit-for-bit with what crossed HTTP.

All forms follow the wire versioning policy of :mod:`repro.core.wire`:
``to_wire()`` stamps ``schema_version``; ``from_wire()`` is forward
tolerant (unknown keys ignored, missing version = v0).  Malformed payloads
raise :class:`~repro.errors.WireFormatError`, which the transport maps to
a 400 through :func:`repro.errors.wire_error`.

Aggregate specs cross the wire as small JSON descriptions resolved against
the service's schema by :func:`spec_from_wire`::

    {"kind": "count"}
    {"kind": "count", "where": {"A0": "A0_1"}, "name": "slice"}
    {"kind": "sum", "measure": "price", "where": {...}}
    {"kind": "avg", "measure": "price"}
    {"kind": "proportion", "where": {...}}
    {"kind": "size_change", "base": {...}}
    {"kind": "running_average", "window": 5, "base": {...}}
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from ..api.engine import EstimationTask
from ..core.aggregates import (
    AnySpec,
    avg_measure,
    count_all,
    count_where,
    proportion_where,
    running_average,
    size_change,
    sum_measure,
)
from ..core.wire import stamp
from ..errors import WireFormatError, wire_error
from ..hiddendb.schema import Schema

#: Per-task round outcome statuses (see :class:`RoundOutcome`).
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_DEFERRED = "deferred"
STATUS_REFUSED = "refused"


# ----------------------------------------------------------------------
# Aggregate specs over the wire
# ----------------------------------------------------------------------
def spec_from_wire(schema: Schema, payload: Mapping) -> AnySpec:
    """Build an aggregate spec from its wire description.

    Raises :class:`WireFormatError` on unknown kinds or missing required
    keys; schema-level problems (unknown attribute/measure/label) surface
    as :class:`~repro.errors.SchemaError` from the spec factories.
    """
    if not isinstance(payload, Mapping):
        raise WireFormatError(f"not a spec description: {payload!r}")
    kind = payload.get("kind", "count")
    name = payload.get("name")
    where = payload.get("where")
    if where is not None and not isinstance(where, Mapping):
        raise WireFormatError(f"spec 'where' must be a mapping: {where!r}")
    if kind == "count":
        if where:
            return count_where(schema, where, name=name)
        return count_all(name) if name else count_all()
    if kind == "sum":
        measure = payload.get("measure")
        if not measure:
            raise WireFormatError("sum spec needs a 'measure'")
        return sum_measure(schema, measure, where, name=name)
    if kind == "avg":
        measure = payload.get("measure")
        if not measure:
            raise WireFormatError("avg spec needs a 'measure'")
        return avg_measure(schema, measure, where, name=name)
    if kind == "proportion":
        if not where:
            raise WireFormatError("proportion spec needs a 'where'")
        return proportion_where(schema, where, name=name)
    if kind == "size_change":
        base = payload.get("base")
        base_spec = _linear_base(schema, base) if base is not None else None
        if name:
            return size_change(base_spec, name=name)
        return size_change(base_spec)
    if kind == "running_average":
        window = payload.get("window")
        if not isinstance(window, int) or window < 1:
            raise WireFormatError(
                "running_average spec needs a positive integer 'window'"
            )
        base = payload.get("base")
        base_spec = _linear_base(schema, base) if base is not None else None
        return running_average(window, base_spec, name=name)
    raise WireFormatError(f"unknown spec kind {kind!r}")


def _linear_base(schema: Schema, payload: Mapping) -> AnySpec:
    base = spec_from_wire(schema, payload)
    kind = payload.get("kind", "count")
    if kind not in ("count", "sum"):
        raise WireFormatError(
            f"trans-round base spec must be linear (count/sum), got {kind!r}"
        )
    return base


def specs_from_wire(schema: Schema, payloads) -> list[AnySpec]:
    """Build the spec list of a task request (at least one required)."""
    if not isinstance(payloads, (list, tuple)) or not payloads:
        raise WireFormatError(
            "task request needs a non-empty 'specs' list"
        )
    return [spec_from_wire(schema, payload) for payload in payloads]


def spec_to_wire(spec: AnySpec) -> dict:
    """The wire description that rebuilds ``spec`` via :func:`spec_from_wire`.

    Inverse of :func:`spec_from_wire` for every spec built by the factory
    helpers of :mod:`repro.core.aggregates` (they record their own
    ``wire_form``).  Specs carrying custom callables — a hand-built
    ``AggregateSpec`` or a factory call with a residual ``selection``
    predicate — have no wire description and raise
    :class:`~repro.errors.WireFormatError`; ``Engine.save`` surfaces this
    for tasks that cannot round-trip.
    """
    wire = getattr(spec, "wire_form", None)
    if wire is None:
        raise WireFormatError(
            f"spec {getattr(spec, 'name', spec)!r} cannot cross the wire: "
            "it was not built by a wire-capable aggregate factory (custom "
            "callables are not serializable)"
        )
    return dict(wire)


def specs_to_wire(specs) -> list[dict]:
    """Wire descriptions of every spec (see :func:`spec_to_wire`)."""
    return [spec_to_wire(spec) for spec in specs]


# ----------------------------------------------------------------------
# Wire-form machinery
# ----------------------------------------------------------------------
class WireForm:
    """Mixin: stamped ``to_wire()`` + forward-tolerant ``from_wire()``."""

    def to_wire(self) -> dict:
        return stamp(dataclasses.asdict(self))

    @classmethod
    def from_wire(cls, payload: Mapping):
        if not isinstance(payload, Mapping):
            raise WireFormatError(
                f"{cls.__name__} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        try:
            return cls(**{
                key: value for key, value in payload.items() if key in known
            })
        except TypeError as exc:
            # Missing required fields surface here.
            raise WireFormatError(
                f"bad {cls.__name__} payload: {exc}"
            ) from None


def error_response(exc: BaseException) -> dict:
    """The stamped wire envelope of an error (see :func:`repro.errors
    .wire_error` for the inner payload — the single mapping point)."""
    return stamp({"error": wire_error(exc)})


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TaskRequest(WireForm):
    """``POST /v1/tasks`` body: one tenant's estimation assignment.

    Mirrors :class:`~repro.api.engine.EstimationTask` field for field,
    with specs as wire descriptions (see :func:`spec_from_wire`) and
    options restricted to JSON-expressible estimator keywords.
    """

    name: str
    estimator: str = "RS"
    specs: list = dataclasses.field(
        default_factory=lambda: [{"kind": "count"}]
    )
    budget: int | None = None
    budget_share: float | None = None
    seed: int | None = None
    options: dict = dataclasses.field(default_factory=dict)

    def to_task(self, schema: Schema) -> EstimationTask:
        """The in-process task this request describes (facade parity:
        submitting the result directly is bit-identical to HTTP)."""
        if not isinstance(self.name, str) or not self.name:
            raise WireFormatError("task request needs a non-empty 'name'")
        if not isinstance(self.estimator, str):
            raise WireFormatError("task request 'estimator' must be a name")
        return EstimationTask(
            self.name,
            specs_from_wire(schema, self.specs),
            estimator=self.estimator,
            budget=self.budget,
            budget_share=self.budget_share,
            seed=self.seed,
            options=self.options or {},
        )


@dataclasses.dataclass
class RoundRequest(WireForm):
    """``POST /v1/rounds`` body: run estimation rounds.

    Parameters
    ----------
    rounds:
        Number of consecutive rounds to run (default 1).
    tasks:
        Restrict the round to these task names (``None`` = all active).
    advance:
        Advance the database round between consecutive rounds of this
        request (the paper's round clock).  The first round always runs
        against the current round.
    """

    rounds: int = 1
    tasks: list | None = None
    advance: bool = False


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TaskAccepted(WireForm):
    """``POST /v1/tasks`` response."""

    name: str
    estimator: str
    budget_per_round: int
    round_index: int
    tenants: int


@dataclasses.dataclass
class RoundOutcome(WireForm):
    """One task's outcome within one round.

    ``status`` is one of ``ok`` / ``degraded`` / ``deferred`` /
    ``refused``; ``report`` is the :class:`RoundReport` wire form when the
    task ran, ``governor`` the admission record (action, factor, granted)
    when the governor intervened, and ``error`` the wire error payload on
    refusal — degradation is always *observable*, never silent.
    """

    task: str
    status: str
    report: dict | None = None
    governor: dict | None = None
    error: dict | None = None


@dataclasses.dataclass
class RoundResult(WireForm):
    """One round's outcomes, in deterministic submission order."""

    round_index: int
    outcomes: list = dataclasses.field(default_factory=list)

    def to_wire(self) -> dict:
        return stamp({
            "round_index": self.round_index,
            "outcomes": [
                outcome.to_wire() if isinstance(outcome, RoundOutcome)
                else outcome
                for outcome in self.outcomes
            ],
        })


@dataclasses.dataclass
class RoundsResponse(WireForm):
    """``POST /v1/rounds`` response: every executed round."""

    results: list = dataclasses.field(default_factory=list)

    def to_wire(self) -> dict:
        return stamp({
            "results": [
                result.to_wire() if isinstance(result, RoundResult)
                else result
                for result in self.results
            ],
        })


@dataclasses.dataclass
class ReportsResponse(WireForm):
    """``GET /v1/tasks/{name}/reports`` response."""

    task: str
    rounds_run: int
    queries_total: int
    reports: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class LedgerResponse(WireForm):
    """``GET /v1/ledger`` response: the engine's budget accounting."""

    round_index: int
    ledger: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class TelemetryResponse(WireForm):
    """``GET /v1/telemetry`` response: the governor's usage snapshots plus
    the engine's observability snapshot.

    ``governor`` is the per-tenant usage view (no metric carries the
    governor's windows); ``metrics`` is the stamped
    :meth:`repro.api.Engine.metrics` payload (old clients ignore it —
    ``WireForm.from_wire`` is forward-tolerant)."""

    round_index: int
    governor: dict = dataclasses.field(default_factory=dict)
    metrics: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class HealthResponse(WireForm):
    """``GET /v1/healthz`` response."""

    status: str
    round_index: int
    backend: str
    tuples: int
    tasks: list = dataclasses.field(default_factory=list)
