"""Typed exception taxonomy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can catch everything library-specific with a single ``except``
clause.  Every class additionally carries a **stable machine-readable
code** (:attr:`ReproError.code`) and a default HTTP status
(:attr:`ReproError.http_status`): the service plane (:mod:`repro.service`)
maps exceptions to wire error payloads through :func:`wire_error` /
:func:`error_from_wire` — this module is the *one* place where that
mapping lives, so the in-process facade and the HTTP layer can never
disagree about what an error means.

Wire error payloads have the shape::

    {"code": "UNKNOWN_TASK", "error_type": "UnknownTaskError",
     "message": "...", "details": {...}}

``code`` is the contract (stable across releases); ``error_type`` and
``message`` are human-facing and may change.

**Migration note (service-plane redesign).**  ``Engine`` raises
:class:`UnknownTaskError` / :class:`DuplicateTaskError` instead of bare
:class:`ExperimentError` for task-table misses and double submissions —
both subclass :class:`ExperimentError`, so existing handlers keep working.
Catch the specific classes (or match ``code``) going forward.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""

    #: Stable machine-readable identifier, the wire contract.
    code = "INTERNAL"
    #: Default HTTP status the service plane answers with.
    http_status = 500

    def details(self) -> dict:
        """Structured, JSON-safe extras for the wire payload."""
        return {}


class SchemaError(ReproError):
    """A schema definition or a value vector is invalid."""

    code = "SCHEMA_INVALID"
    http_status = 400


class QueryError(ReproError):
    """A search query is malformed (unknown attribute, bad value index)."""

    code = "QUERY_INVALID"
    http_status = 400


class QueryBudgetExhausted(ReproError):
    """The per-round query budget was exhausted mid-operation.

    Estimators catch this to stop work for the round; anything already
    charged to the budget stays charged (a real web API does not refund
    requests either).
    """

    code = "BUDGET_EXHAUSTED"
    http_status = 429

    def __init__(self, budget: int, message: str | None = None):
        self.budget = budget
        super().__init__(message or f"query budget of {budget} exhausted")

    def details(self) -> dict:
        return {"budget": self.budget}


class StaleResultError(ReproError):
    """A deferred result page was read after the database mutated.

    The columnar query plane defers page construction until a consumer
    reads it; the page is pinned to the database state at query time via a
    mutation epoch.  Supported workloads read pages before the next
    mutation (the intra-round driver freezes them through the session
    hook), so this error marks a flow outside the simulator's contract
    rather than silently returning post-mutation data.
    """

    code = "STALE_RESULT"
    http_status = 409


class EstimationError(ReproError):
    """An estimator cannot produce an estimate (e.g. no completed drill-downs)."""

    code = "ESTIMATION_FAILED"
    http_status = 500


class ExperimentError(ReproError):
    """An experiment/engine configuration is inconsistent or a run failed."""

    code = "CONFIG_INVALID"
    http_status = 400


class UnknownTaskError(ExperimentError):
    """A task name is not in the engine's task table."""

    code = "UNKNOWN_TASK"
    http_status = 404

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no task named {name!r}")

    def details(self) -> dict:
        return {"task": self.name}


class DuplicateTaskError(ExperimentError):
    """A task name was submitted while a live task already owns it."""

    code = "DUPLICATE_TASK"
    http_status = 409

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"task {name!r} already submitted")

    def details(self) -> dict:
        return {"task": self.name}


class WireFormatError(ReproError):
    """A wire payload cannot be decoded (bad float spelling, bad version)."""

    code = "WIRE_INVALID"
    http_status = 400


class AdmissionError(ReproError):
    """The budget governor refused work (the typed 429 of the service).

    Raised only after the degradation ladder is exhausted — the governor
    first shrinks the tenant's per-round query allowance, then widens its
    round cadence; refusal is the last step (see
    :mod:`repro.service.governor`).
    """

    code = "ADMISSION_REJECTED"
    http_status = 429

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        retry_after_rounds: int | None = None,
        remaining: int | None = None,
    ):
        self.tenant = tenant
        self.retry_after_rounds = retry_after_rounds
        self.remaining = remaining
        super().__init__(message)

    def details(self) -> dict:
        payload: dict = {}
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.retry_after_rounds is not None:
            payload["retry_after_rounds"] = self.retry_after_rounds
        if self.remaining is not None:
            payload["remaining"] = self.remaining
        return payload


#: Every public error class by its stable code (newest wins would be a bug:
#: codes are unique by construction; the assertion below guards that).
ERROR_CLASSES: dict[str, type[ReproError]] = {}
for _cls in (
    ReproError, SchemaError, QueryError, QueryBudgetExhausted,
    StaleResultError, EstimationError, ExperimentError, UnknownTaskError,
    DuplicateTaskError, WireFormatError, AdmissionError,
):
    assert _cls.code not in ERROR_CLASSES, _cls.code
    ERROR_CLASSES[_cls.code] = _cls
del _cls


def error_code(exc: BaseException) -> str:
    """The stable wire code of any exception (non-repro ones: INTERNAL)."""
    return exc.code if isinstance(exc, ReproError) else ReproError.code


def http_status_of(exc: BaseException) -> int:
    """The HTTP status the service plane answers ``exc`` with."""
    return (
        exc.http_status if isinstance(exc, ReproError)
        else ReproError.http_status
    )


def wire_error(exc: BaseException) -> dict:
    """The wire error payload of any exception — the single mapping point.

    Strict-JSON-safe; :func:`error_from_wire` rebuilds a typed exception
    from it on the client side.
    """
    details = exc.details() if isinstance(exc, ReproError) else {}
    return {
        "code": error_code(exc),
        "error_type": type(exc).__name__,
        "message": str(exc),
        "details": details,
    }


def error_from_wire(payload: dict) -> ReproError:
    """Rebuild a typed exception from a :func:`wire_error` payload.

    Unknown codes degrade to :class:`ReproError` (forward tolerance: a
    newer server may ship codes this client predates).  The specific
    constructor signatures are not reconstructed — the returned exception
    carries the message, the code via its class, and the raw details on
    ``.wire_details``.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(f"not a wire error payload: {payload!r}")
    code = payload.get("code", ReproError.code)
    message = str(payload.get("message", code))
    cls = ERROR_CLASSES.get(code, ReproError)
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    details = payload.get("details") or {}
    # Rehydrate the attributes details() reads (attribute <- details key),
    # so a round-tripped error keeps its structured fields observable.
    for attr, key in _REHYDRATED_ATTRS.get(code, ()):
        setattr(exc, attr, details.get(key))
    exc.wire_details = dict(details)
    return exc


#: ``code -> ((attribute, details key), ...)`` used by
#: :func:`error_from_wire` to restore structured fields.
_REHYDRATED_ATTRS: dict[str, tuple[tuple[str, str], ...]] = {
    "BUDGET_EXHAUSTED": (("budget", "budget"),),
    "UNKNOWN_TASK": (("name", "task"),),
    "DUPLICATE_TASK": (("name", "task"),),
    "ADMISSION_REJECTED": (
        ("tenant", "tenant"),
        ("retry_after_rounds", "retry_after_rounds"),
        ("remaining", "remaining"),
    ),
}
