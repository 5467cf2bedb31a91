"""One config object for every engine knob.

Before :mod:`repro.api`, the knobs of a simulation were threaded ad hoc:
an interface ``k`` here, a ``budget_per_round`` there, and environment
variables that could silently override program decisions.
:class:`EngineConfig` consolidates them, and no knob has a process
default or an environment variable behind it.  Observability is not an
engine knob: the metrics registry is process-global, so its one switch
is ``repro.obs.OBS.enable()`` / ``OBS.disable()``.
"""

from __future__ import annotations

import dataclasses
from zlib import crc32

from ..errors import ExperimentError

#: How per-task estimator seeds derive from :attr:`EngineConfig.seed` when
#: a task does not pin one explicitly.
SEED_POLICIES = ("per-task", "shared")


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Every knob of an estimation engine, in one JSON-serializable object.

    Parameters
    ----------
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
    """

    k: int = 100
    budget_per_round: int = 300
    seed: int = 0
    seed_policy: str = "per-task"
    overlap: bool = False
    report_log_limit: int | None = None
    store_dir: str | None = None

    def __post_init__(self) -> None:
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
        producer, fields an older build wrote (``observability``,
        ``data_plane``, ...), and ``schema_version`` itself — are
        ignored, and a payload without a version is read as the
        pre-versioning v0 form.
        Known fields still validate through ``__post_init__``, so
        tolerance never admits an invalid config.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })
