"""The engine facade: one hidden database, many estimation tenants.

The paper's setting is inherently multi-tenant — many analysts track their
own aggregates over one dynamic hidden database, each through their own
budgeted connection to the same top-k interface.  :class:`Engine` is that
service boundary:

* it owns the :class:`~repro.hiddendb.database.HiddenDatabase` and builds
  one :class:`~repro.hiddendb.interface.TopKInterface` per tenant (budget
  and query counters are per-tenant, the store is shared);
* tenants are named :class:`EstimationTask`\\ s — an estimator (resolved
  through the registry), the aggregates it tracks, and its budget share;
* the lifecycle is ``submit()`` → ``run_round()`` (every active task runs
  its round over the shared store) → ``apply_updates()`` /
  ``advance_round()`` → repeat, with ``stream_reports()`` draining the
  report log;
* three locks serialize the boundary: the *session lock* guards the task
  table and report log (``submit`` / ``cancel`` / ``stream_reports`` /
  ``budget_ledger`` — always short critical sections); the *round
  barrier* guards round execution (``run_round``); and the *write lock*
  guards store mutation (``apply_updates`` / ``load`` /
  ``advance_round``).  Sequentially (the default) writers take the round
  barrier too, so the store is round-static exactly as the paper's round
  model requires.  With ``EngineConfig(overlap=True)`` writers take only
  the write lock: ``run_round`` pins every estimator to the published
  :class:`~repro.hiddendb.epoch.StoreEpoch` (an immutable snapshot
  flipped in atomically by ``advance_round``), so round-boundary churn
  for round ``i+1`` overlaps round ``i``'s queries — the HTAP split.
  Estimates stay bit-identical; only *visibility* changes (mutations
  reach estimators at the next publish flip);
* within a round, tasks run one after another in submission order over
  the round-static store (or the pinned epoch).  Each task owns its RNG,
  its interface counters, and its session, so its estimates do not
  depend on which other tasks share the round.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Mapping, Sequence

from ..core.aggregates import AnySpec
from ..core.estimators.base import RoundReport
from ..core.estimators.registry import EstimatorFactory, resolve_estimator
from ..errors import DuplicateTaskError, ExperimentError, UnknownTaskError
from ..hiddendb.database import HiddenDatabase, reading_epoch
from ..hiddendb.epoch import StoreEpoch
from ..hiddendb.interface import TopKInterface
from ..hiddendb.ranking import RankingPolicy
from ..hiddendb.schema import Schema
from ..hiddendb.store import INDEX_ENGINE
from ..obs import OBS
from .config import EngineConfig

#: Task-name slot of the truncation markers ``stream_reports()`` yields
#: when ``report_log_limit`` eviction opened a gap in the replayed log.
GAP_TASK = "__gap__"

# Import-time observability handles (see repro.obs); per-task handles are
# created once per submit, cached on the TaskHandle, and retired by cancel.
_ROUNDS_TOTAL = OBS.counter("repro_rounds_total")
_ROUND_SECONDS = OBS.histogram("repro_round_seconds")


@dataclasses.dataclass(frozen=True)
class ReportGap:
    """A truncation marker in the report stream: ``dropped`` reports were
    evicted (``report_log_limit``) between the previous yielded entry and
    the next one — the log is *not* contiguous across this marker."""

    dropped: int



def _describable(value):
    """``value`` if JSON can express it, else its repr (description only)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_describable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _describable(item) for key, item in value.items()}
    return repr(value)


class EstimationTask:
    """One tenant's estimation assignment.

    Parameters
    ----------
    name:
        Unique handle of the task within its engine.
    specs:
        The aggregates this tenant tracks.
    estimator:
        Registry name (``"RESTART"`` / ``"REISSUE"`` / ``"RS"`` / anything
        registered via :func:`~repro.core.estimators.registry
        .register_estimator`) or a factory callable.
    budget:
        Absolute per-round query budget; overrides the engine default.
    budget_share:
        Fraction of the engine's ``budget_per_round`` (mutually exclusive
        with ``budget``).
    seed:
        Explicit estimator seed; ``None`` derives one from the engine
        config's seed policy and the task name.
    options:
        Extra keyword arguments for the estimator factory
        (``parent_check=``, ``push_selection=``, ...).
    """

    __slots__ = ("name", "specs", "estimator", "budget", "budget_share",
                 "seed", "options")

    def __init__(
        self,
        name: str,
        specs: Sequence[AnySpec],
        estimator: str | EstimatorFactory = "RS",
        budget: int | None = None,
        budget_share: float | None = None,
        seed: int | None = None,
        options: Mapping | None = None,
    ):
        if not name:
            raise ExperimentError("task name must be non-empty")
        self.specs = list(specs)
        if not self.specs:
            raise ExperimentError("at least one aggregate spec is required")
        if budget is not None and budget_share is not None:
            raise ExperimentError(
                "budget and budget_share are mutually exclusive"
            )
        if budget is not None and budget < 1:
            raise ExperimentError("budget must be positive")
        if budget_share is not None and not 0.0 < budget_share <= 1.0:
            raise ExperimentError("budget_share must be in (0, 1]")
        self.name = name
        self.estimator = estimator
        self.budget = budget
        self.budget_share = budget_share
        self.seed = seed
        self.options = dict(options) if options else {}

    def budget_for(self, config: EngineConfig) -> int:
        """The per-round budget this task gets under an engine config."""
        if self.budget is not None:
            return self.budget
        if self.budget_share is not None:
            return max(1, round(config.budget_per_round * self.budget_share))
        return config.budget_per_round

    def to_dict(self) -> dict:
        """A JSON-safe description (estimators/specs appear by name only —
        rebuilding a task needs the spec objects, not this payload; option
        values JSON cannot express, e.g. callables, appear as reprs)."""
        from ..core.wire import stamp

        estimator = self.estimator
        if not isinstance(estimator, str):
            estimator = getattr(
                estimator, "name", getattr(estimator, "__name__", repr(estimator))
            )
        return stamp({
            "name": self.name,
            "estimator": estimator,
            "specs": [spec.name for spec in self.specs],
            "budget": self.budget,
            "budget_share": self.budget_share,
            "seed": self.seed,
            "options": {
                str(key): _describable(value)
                for key, value in self.options.items()
            },
        })

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EstimationTask({self.name!r}, estimator={self.estimator!r})"


class TaskHandle:
    """A live task inside an engine: its estimator, budget, and reports."""

    __slots__ = ("name", "estimator", "budget_per_round", "task",
                 "_reports", "_history_limit", "rounds_run", "queries_total",
                 "_obs_task_seconds", "_obs_budget_spent")

    def __init__(self, name, estimator, budget_per_round, task,
                 history_limit: int | None = None):
        self.name = name
        self.estimator = estimator
        self.budget_per_round = budget_per_round
        self.task = task
        #: Retained report history, oldest first; bounded by the engine
        #: config's ``report_log_limit`` (accounting stays exact in the
        #: O(1) counters below even when old reports drop).
        self._reports: list[RoundReport] = []
        self._history_limit = history_limit
        self.rounds_run = 0
        self.queries_total = 0
        # Per-task registry handles, resolved once here so rounds never
        # take the registry's get-or-create lock.
        self._obs_task_seconds = OBS.histogram(
            "repro_round_task_seconds", {"task": name}
        )
        self._obs_budget_spent = OBS.counter(
            "repro_budget_spent_total", {"task": name}
        )

    @property
    def reports(self) -> tuple[RoundReport, ...]:
        """The retained reports, in round order (see ``rounds_run`` for
        the lifetime count when a history limit is set)."""
        return tuple(self._reports)

    @property
    def latest(self) -> RoundReport | None:
        """The most recent report, if any round ran yet."""
        return self._reports[-1] if self._reports else None

    @property
    def interface(self) -> TopKInterface:
        """This tenant's private connection to the shared database."""
        return self.estimator.interface

    @contextmanager
    def throttled(self, budget: int):
        """Scope a reduced per-round query budget on this task's estimator.

        The budget-governor hook (:mod:`repro.service.governor`): a
        degraded round runs exactly as if the tenant had been granted the
        smaller budget — same estimator, same RNG stream position — and
        the previous budget is restored afterwards.  ``budget_per_round``
        on the handle (and therefore the ledger) keeps reporting the
        tenant's *nominal* allowance; degradation is reported through the
        governor's telemetry, never silently.  Callers must serialize this
        scope with the round that runs under it (the service plane runs
        all mutating operations on one worker thread).
        """
        if budget < 1:
            raise ExperimentError("throttled budget must be positive")
        previous = self.estimator.budget_per_round
        self.estimator.budget_per_round = budget
        try:
            yield self
        finally:
            self.estimator.budget_per_round = previous

    def _record(self, report: RoundReport) -> None:
        self._reports.append(report)
        if (
            self._history_limit is not None
            and len(self._reports) > self._history_limit
        ):
            del self._reports[: len(self._reports) - self._history_limit]
        self.rounds_run += 1
        self.queries_total += report.queries_used
        if OBS.enabled:
            self._obs_budget_spent.inc(report.queries_used)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TaskHandle({self.name!r}, rounds={self.rounds_run}, "
            f"queries={self.queries_total})"
        )


class Engine:
    """A multi-tenant estimation service over one dynamic hidden database.

    Build it around an existing database or let it build one::

        config = EngineConfig(k=100, budget_per_round=300)
        engine = Engine(config, schema=schema)
        engine.load(payloads)
        engine.submit(EstimationTask("count", [count_all()], "RS"))
        report = engine.run_round()["count"]
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        db: HiddenDatabase | None = None,
        schema: Schema | None = None,
        ranking: RankingPolicy | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        if db is None:
            if schema is None:
                raise ExperimentError(
                    "Engine needs either an existing db or a schema to "
                    "build one"
                )
            db = HiddenDatabase(schema, ranking=ranking)
        elif schema is not None:
            raise ExperimentError("pass either db or schema, not both")
        elif ranking is not None:
            raise ExperimentError(
                "ranking only applies when the engine builds the database; "
                "an existing db keeps the policy it was built with"
            )
        self.db = db
        #: Session lock: task table + report log.  Held only for short,
        #: bounded critical sections — never across estimator execution —
        #: so ``stream_reports()`` / ``budget_ledger()`` from other
        #: threads respond while a long round is in flight.
        self._lock = threading.RLock()
        #: Round barrier: round execution.  ``run_round`` holds it while
        #: its tasks read; sequentially (``overlap=False``) writers hold
        #: it too, so the store is round-static exactly as the paper's
        #: round model requires.  Reentrant so an ``apply_updates``
        #: callback may call ``advance_round`` itself.
        self._round_lock = threading.RLock()
        #: Write lock: store mutation + epoch publish.  In overlap mode
        #: writers take *only* this lock (reads ride the published epoch,
        #: so churn no longer waits for the round barrier).  Lock order
        #: where both are held: round barrier first, then write lock.
        self._write_lock = threading.RLock()
        self._tasks: dict[str, TaskHandle] = {}
        #: Execution log: ``(task name, report)`` in the order produced,
        #: bounded by ``config.report_log_limit`` (oldest entries drop).
        self._log: list[tuple[str, RoundReport]] = []
        #: Absolute execution index of ``_log[0]`` (> 0 once entries drop).
        self._log_start = 0

    def _append_log(self, name: str, report: RoundReport) -> None:
        self._log.append((name, report))
        limit = self.config.report_log_limit
        if limit is not None and len(self._log) > limit:
            drop = len(self._log) - limit
            del self._log[:drop]
            self._log_start += drop

    def _writer_lock(self) -> threading.RLock:
        """The lock a store writer holds.

        Sequential mode: the round barrier (writers and rounds exclude
        each other — the store stays round-static).  Overlap mode: the
        write lock only, so ``apply_updates`` / ``load`` run concurrently
        with an epoch-pinned round and serialize just against each other
        and the publish flip.
        """
        return self._write_lock if self.config.overlap else self._round_lock

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        return self.db.current_round

    def tasks(self) -> tuple[str, ...]:
        """Names of the active tasks, in submission order."""
        with self._lock:
            return tuple(self._tasks)

    def __getitem__(self, name: str) -> TaskHandle:
        with self._lock:
            try:
                return self._tasks[name]
            except KeyError:
                raise UnknownTaskError(name) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tasks

    # ------------------------------------------------------------------
    # Data loading / churn (simulator side)
    # ------------------------------------------------------------------
    def _load_rows(self, rows) -> int:
        """Bulk-load tuples into the shared database (``engine.load(...)``
        on an instance — see :class:`_LoadName`); returns rows inserted."""
        with self._writer_lock():
            return self.db.insert_many(rows)

    class _LoadName:
        """``Engine.load``'s two faces, told apart by how it is reached.

        On an *instance*, ``engine.load(rows)`` is the bulk-loader it has
        always been.  On the *class*, ``Engine.load(path)`` restores a
        saved engine from a snapshot store directory (see
        :mod:`repro.api.persistence` — ``load_engine`` additionally
        returns the saved ``extra`` payload).  The two uses cannot
        collide: one needs an engine, the other produces one.
        """

        def __get__(self, instance, owner):
            if instance is not None:
                return instance._load_rows
            return owner._load_path

    load = _LoadName()

    @classmethod
    def _load_path(cls, path: str) -> "Engine":
        """Restore an engine from the committed snapshot in ``path``.

        The restored engine resumes bit-identically to the one
        :meth:`save` captured — same estimates, RNG streams, histories,
        and ledgers (see :mod:`repro.api.persistence`).
        """
        from .persistence import load_engine

        engine, _extra = load_engine(path)
        return engine

    def save(self, path: str | None = None, extra=None) -> dict:
        """Snapshot this engine atomically; returns the manifest.

        ``path`` defaults to the config's ``store_dir``.  The snapshot is
        taken under all three engine locks — even in overlap mode, where
        a snapshot needs full quiescence (estimator state and store must
        agree; a mid-round epoch would pair post-round estimators with a
        pre-round store) — so it observes a quiescent point between
        rounds and mutations; ``extra`` (JSON values only) rides along
        and is handed back by :func:`repro.api.persistence.load_engine`.
        Crash-safe: the previous committed snapshot stays readable until
        the new manifest is atomically renamed in.
        """
        from .persistence import save_engine

        if path is None:
            path = self.config.store_dir
        if path is None:
            raise ExperimentError(
                "Engine.save needs a path (or a config with store_dir set)"
            )
        with self._round_lock, self._write_lock, self._lock:
            return save_engine(self, path, extra=extra)

    def apply_updates(
        self, mutate: Callable[[HiddenDatabase], None]
    ) -> None:
        """Run a mutation function against the shared database.

        Sequentially, serialized with every estimation session (the
        round barrier).  In overlap mode, serialized only with other
        writers: churn lands on the live store while a round reads the
        published epoch, and becomes visible to estimators at the next
        ``advance_round`` publish flip.
        """
        with self._writer_lock():
            mutate(self.db)

    def advance_round(self) -> int:
        """Start the next round and return its index.

        In overlap mode this is also the atomic publish flip: the live
        store (with all churn applied so far) is frozen into a new
        :class:`~repro.hiddendb.epoch.StoreEpoch` and installed as the
        version the next ``run_round`` pins its estimators to.
        """
        with self._writer_lock():
            round_index = self.db.advance_round()
            if self.config.overlap:
                self.db.publish_epoch()
            return round_index

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def submit(self, task: EstimationTask) -> TaskHandle:
        """Register a task and build its estimator over the shared store.

        The task gets its own :class:`TopKInterface` (per-tenant budget
        accounting and query counters) bound to the shared database.

        Holds the writer scope (estimator construction may build and
        backfill indexes over the shared store — the round barrier
        sequentially, the write lock in overlap mode) and then the
        session lock for the table insert — always in that order.
        """
        with self._writer_lock(), self._lock:
            if task.name in self._tasks:
                raise DuplicateTaskError(task.name)
            factory = resolve_estimator(task.estimator)
            budget = task.budget_for(self.config)
            interface = TopKInterface(self.db, self.config.k)
            estimator = factory(
                interface,
                task.specs,
                budget_per_round=budget,
                seed=self.config.task_seed(task.name, task.seed),
                **task.options,
            )
            handle = TaskHandle(
                task.name, estimator, budget, task,
                history_limit=self.config.report_log_limit,
            )
            self._tasks[task.name] = handle
            return handle

    def cancel(self, name: str) -> TaskHandle:
        """Remove a task; its handle (with history) is returned.

        The task's two per-task metric series leave the registry with
        it, so submit/cancel churn under fresh names cannot grow it.
        Retiring them under the session lock keeps a concurrent
        ``submit`` of the same name from losing its new series.
        """
        with self._lock:
            try:
                handle = self._tasks.pop(name)
            except KeyError:
                raise UnknownTaskError(name) from None
            labels = {"task": name}
            OBS.remove("repro_round_task_seconds", labels)
            OBS.remove("repro_budget_spent_total", labels)
            return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_estimator(
        self, handle: TaskHandle, epoch: StoreEpoch | None
    ) -> RoundReport:
        """One task's round, pinned in overlap mode to the round's
        published epoch."""
        if epoch is None:
            return handle.estimator.run_round()
        with reading_epoch(self.db, epoch):
            return handle.estimator.run_round()

    def run_round(
        self, tasks: Sequence[str] | None = None
    ) -> dict[str, RoundReport]:
        """Run one round for every (or the named) active task.

        Tasks run one after another — in submission order, or in the
        order ``tasks`` names them — over the shared, round-static store;
        each spends only its own budget.  A name given twice runs once,
        at its first position.  If a task raises, the tasks after it do
        not run this round; the reports of the tasks before it are still
        recorded (their budget was spent and their RNG advanced), and
        then the error propagates.

        The round barrier is held for the duration — sequentially that
        makes mutations wait; in overlap mode estimators are pinned to
        the published epoch instead, so ``apply_updates`` churn proceeds
        concurrently (only other rounds and ``save`` wait).  The session
        lock is only taken for the initial task snapshot and the final
        report merge, so ``stream_reports()`` and ``budget_ledger()``
        from other threads stay responsive during a long round.  Returns
        ``{task name: report}``.
        """
        if not OBS.enabled:
            return self._run_round_inner(tasks)
        _ROUNDS_TOTAL.inc()
        started = perf_counter()
        try:
            return self._run_round_inner(tasks)
        finally:
            _ROUND_SECONDS.observe(perf_counter() - started)

    def _run_round_inner(
        self, tasks: Sequence[str] | None
    ) -> dict[str, RoundReport]:
        with self._round_lock:
            with self._lock:
                if tasks is None:
                    selected = list(self._tasks.values())
                else:
                    selected = [self[name] for name in dict.fromkeys(tasks)]
            epoch: StoreEpoch | None = None
            if self.config.overlap:
                if any(
                    getattr(handle.estimator, "on_query", None) is not None
                    for handle in selected
                ):
                    # The intra-round update driver needs its mutations
                    # visible to the very next query — epoch pinning
                    # defers visibility to the next publish flip.
                    raise ExperimentError(
                        "overlap mode cannot serve estimators with an "
                        "on_query mutation hook (intra-round update "
                        "model needs read-your-writes)"
                    )
                epoch = self.db.published
                if epoch is None:
                    # First round before any advance: publish lazily.
                    # Briefly take the write lock — a concurrent
                    # apply_updates must not churn mid-freeze.  (Lock
                    # order: round barrier, already held, then write.)
                    with self._write_lock:
                        epoch = self.db.published
                        if epoch is None:
                            epoch = self.db.publish_epoch()
            run = self._run_observed if OBS.enabled else self._run_estimator
            completed: list[tuple[TaskHandle, RoundReport]] = []
            error: BaseException | None = None
            for handle in selected:
                try:
                    completed.append((handle, run(handle, epoch)))
                except BaseException as exc:
                    error = exc
                    break
            with self._lock:
                for handle, report in completed:
                    handle._record(report)
                    # A task cancelled (or cancelled-and-replaced) while
                    # the round ran keeps the report on its own handle —
                    # returned to the cancel() caller — but stays out of
                    # the engine log, which must agree with the ledger
                    # about whatever currently owns the name.
                    if self._tasks.get(handle.name) is handle:
                        self._append_log(handle.name, report)
            if error is not None:
                raise error
            return {handle.name: report for handle, report in completed}

    def _run_observed(
        self, handle: TaskHandle, epoch: StoreEpoch | None
    ) -> RoundReport:
        """:meth:`_run_estimator`, feeding the task's wall time to its
        per-task histogram."""
        task_started = perf_counter()
        try:
            return self._run_estimator(handle, epoch)
        finally:
            handle._obs_task_seconds.observe(perf_counter() - task_started)

    def stream_reports(
        self, task: str | None = None
    ) -> Iterator[tuple[str, RoundReport]]:
        """Yield ``(task name, report)`` in execution order.

        Drains everything still in the (``report_log_limit``-bounded) log
        — including reports appended by other threads while iterating —
        then stops.  Safe to call again later; it always starts from the
        oldest retained entry.

        Wherever eviction opened a gap — reports already dropped when the
        stream started, or dropped mid-iteration under a fast producer —
        the stream yields a ``(GAP_TASK, ReportGap(dropped))`` marker
        (never silently replaying a gapped log as if it were contiguous).
        Markers are yielded even under a ``task`` filter: the filter
        cannot know whether dropped entries matched.
        """
        index = 0
        while True:
            with self._lock:
                if index < self._log_start:
                    dropped = self._log_start - index
                    index = self._log_start
                    entry = (GAP_TASK, ReportGap(dropped))
                elif index - self._log_start >= len(self._log):
                    return
                else:
                    entry = self._log[index - self._log_start]
                    index += 1
            name, report = entry
            if name == GAP_TASK or task is None or task == name:
                yield entry

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def budget_ledger(self) -> dict[str, dict[str, int]]:
        """Per-task budget accounting snapshot."""
        with self._lock:
            return {
                name: {
                    "budget_per_round": handle.budget_per_round,
                    "rounds": handle.rounds_run,
                    "queries_total": handle.queries_total,
                    "queries_last_round": (
                        handle.latest.queries_used if handle.latest else 0
                    ),
                }
                for name, handle in self._tasks.items()
            }

    def metrics(self) -> dict:
        """A stamped, strict-JSON observability snapshot of this engine.

        Combines the engine's own view (round index, index engine, per-task
        counters and interface stats) with the process-global registry
        (:meth:`repro.obs.MetricsRegistry.snapshot`) and its derived
        summary.  Always callable — with observability disabled the
        registry portion reports ``enabled: false`` and whatever was
        recorded while it was last on.
        """
        from ..core.wire import stamp

        with self._lock:
            tasks = {
                name: {
                    "rounds": handle.rounds_run,
                    "queries_total": handle.queries_total,
                    "interface": handle.interface.stats.to_dict(),
                }
                for name, handle in self._tasks.items()
            }
        return stamp({
            "enabled": OBS.enabled,
            "round_index": self.current_round,
            "backend": INDEX_ENGINE,
            "tasks": tasks,
            "registry": OBS.snapshot(),
            "summary": OBS.summary(),
        })

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Engine(n={len(self.db)}, "
            f"round={self.current_round}, tasks={list(self._tasks)})"
        )
