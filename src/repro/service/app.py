"""The service application: governed Engine lifecycle over typed forms.

:class:`ServiceApp` is the whole service minus the transport.  Every
handler consumes/produces the dataclasses of
:mod:`repro.service.protocol`, so the asyncio HTTP server
(:mod:`repro.service.http`) is a pure codec — and tests/benchmarks can
call the same handlers in-process and expect byte-identical payloads.

Execution model (mirrors the engine's own lock split from PR 5):

* **Mutating handlers** — :meth:`submit`, :meth:`run_rounds` — serialize
  on an app-level round lock (the HTTP layer additionally runs them on a
  single worker thread, keeping the event loop free during long rounds).
* **Observers** — :meth:`reports`, :meth:`ledger`, :meth:`telemetry`,
  :meth:`health` — only touch the engine's *session* lock and respond
  during a long round (the PR 5 lock-narrowing contract).  With
  ``EngineConfig(overlap=True)`` the engine's own round lock narrows
  too: writers take only the write lock, and :meth:`health` reports the
  *published epoch* (a stable round index + tuple count) rather than
  racing the live store mid-churn.
* Every completed ``(task, report)`` is published to subscribers through
  a bounded replay buffer, which the SSE endpoint streams.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import ExitStack
from typing import Callable

from ..api.engine import Engine
from ..core.estimators.base import RoundReport
from ..errors import AdmissionError, ExperimentError, wire_error
from ..hiddendb.store import INDEX_ENGINE
from ..obs import OBS
from .governor import ACTION_SHRINK, Admission, BudgetGovernor
from .protocol import (
    STATUS_DEFERRED,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REFUSED,
    HealthResponse,
    LedgerResponse,
    ReportsResponse,
    RoundOutcome,
    RoundRequest,
    RoundResult,
    RoundsResponse,
    TaskAccepted,
    TaskRequest,
    TelemetryResponse,
)

#: Retained published report events for SSE replay (independent of the
#: engine's own ``report_log_limit``).
DEFAULT_REPLAY_LIMIT = 1024

#: A report event listener (called under the publish lock — keep it fast;
#: the HTTP layer just enqueues into per-connection asyncio queues).
EventListener = Callable[[dict], None]

#: Import-time observability handle (see repro.obs).
_SSE_BACKLOG = OBS.gauge("repro_sse_backlog_events")


class ServiceApp:
    """Governed multi-tenant estimation service around one engine."""

    def __init__(
        self,
        engine: Engine,
        governor: BudgetGovernor | None = None,
        replay_limit: int = DEFAULT_REPLAY_LIMIT,
        store_dir: str | None = None,
        snapshot_every: int | None = None,
    ):
        """``store_dir`` makes the service durable: :meth:`snapshot`
        writes atomic epoch snapshots there (engine + governor state, see
        :mod:`repro.api.persistence`), and ``snapshot_every=N`` takes one
        automatically after every ``N`` completed rounds.  ``store_dir``
        defaults to the engine config's ``store_dir``; ``snapshot_every``
        without a resolvable store directory raises."""
        self.engine = engine
        self.governor = governor if governor is not None else BudgetGovernor()
        self.store_dir = (
            store_dir if store_dir is not None
            else engine.config.store_dir
        )
        if snapshot_every is not None and snapshot_every < 1:
            raise ExperimentError("snapshot_every must be positive")
        if snapshot_every is not None and self.store_dir is None:
            raise ExperimentError(
                "snapshot_every needs a store_dir (on the app or on the "
                "engine config)"
            )
        self.snapshot_every = snapshot_every
        self._rounds_since_snapshot = 0
        self._round_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._listeners: set[EventListener] = set()
        self._events: deque[dict] = deque(maxlen=replay_limit)
        self._seq = 0

    @classmethod
    def restore(
        cls,
        store_dir: str,
        governor: BudgetGovernor | None = None,
        replay_limit: int = DEFAULT_REPLAY_LIMIT,
        snapshot_every: int | None = None,
    ) -> "ServiceApp":
        """Rebuild a service from the committed snapshot in ``store_dir``.

        The engine resumes bit-identically (tasks, RNG streams, ledgers);
        the governor's usage counters are restored into ``governor`` (or
        a fresh default one), while its *policy* stays whatever the caller
        constructed — operators may retune limits across a restart.
        """
        from ..api.persistence import load_engine

        engine, extra = load_engine(store_dir)
        app = cls(
            engine,
            governor=governor,
            replay_limit=replay_limit,
            store_dir=store_dir,
            snapshot_every=snapshot_every,
        )
        if isinstance(extra, dict) and extra.get("governor") is not None:
            app.governor.restore_state(extra["governor"])
        return app

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self, path: str | None = None) -> dict:
        """Take one atomic snapshot (engine + governor); returns the
        manifest.  Serialized with the mutating handlers, so it always
        observes a between-rounds quiescent point.  In overlap mode that
        point is exactly a publish flip — the snapshot captures the same
        version the published epoch serves (estimator state and store
        must agree, so snapshots quiesce writers rather than racing
        them)."""
        target = path if path is not None else self.store_dir
        if target is None:
            raise ExperimentError(
                "snapshot needs a path (or an app built with store_dir)"
            )
        with self._round_lock:
            return self._snapshot_locked(target)

    def _snapshot_locked(self, target: str) -> dict:
        manifest = self.engine.save(
            target, extra={"governor": self.governor.state_to_wire()}
        )
        self._rounds_since_snapshot = 0
        return manifest

    # ------------------------------------------------------------------
    # Mutating handlers (serialized)
    # ------------------------------------------------------------------
    def submit(self, request: TaskRequest) -> TaskAccepted:
        """Admit and register one tenant's estimation task."""
        with self._round_lock:
            active = len(self.engine.tasks())
            self.governor.admit_tenant(request.name, active)
            task = request.to_task(self.engine.db.schema)
            handle = self.engine.submit(task)
            return TaskAccepted(
                name=handle.name,
                estimator=str(request.estimator),
                budget_per_round=handle.budget_per_round,
                round_index=self.engine.current_round,
                tenants=active + 1,
            )

    def run_rounds(self, request: RoundRequest) -> RoundsResponse:
        """Run one or more governed rounds; per-task outcomes per round.

        A refused tenant never fails the other tenants' round: its typed
        429 payload lands in *its* outcome (a single-tenant request still
        surfaces the raise through the transport as a real 429 — see the
        HTTP layer).  Estimates of admitted-at-full-budget tenants are
        bit-identical to driving ``Engine.run_round`` directly.
        """
        if not isinstance(request.rounds, int) or request.rounds < 1:
            raise ExperimentError("rounds must be a positive integer")
        results = []
        for position in range(request.rounds):
            with self._round_lock:
                if position and request.advance:
                    self.engine.advance_round()
                results.append(self._run_one_round(request))
                if self.snapshot_every is not None:
                    self._rounds_since_snapshot += 1
                    if self._rounds_since_snapshot >= self.snapshot_every:
                        self._snapshot_locked(self.store_dir)
        return RoundsResponse(results)

    def _run_one_round(self, request: RoundRequest) -> RoundResult:
        if request.tasks is not None:
            names = list(dict.fromkeys(request.tasks))
        else:
            names = list(self.engine.tasks())
        round_index = self.engine.current_round
        admissions: dict[str, Admission] = {}
        outcomes: dict[str, RoundOutcome] = {}
        run_names: list[str] = []
        for name in names:
            handle = self.engine[name]  # raises UnknownTaskError (404)
            try:
                admission = self.governor.admit(
                    name, handle.budget_per_round, round_index
                )
            except AdmissionError as exc:
                if len(names) == 1:
                    # One tenant asked, one tenant refused: surface the
                    # typed 429 itself rather than wrapping it.
                    raise
                outcomes[name] = RoundOutcome(
                    name, STATUS_REFUSED, error=wire_error(exc)
                )
                continue
            admissions[name] = admission
            if admission.runs:
                run_names.append(name)
            else:
                outcomes[name] = RoundOutcome(
                    name, STATUS_DEFERRED, governor=admission.record()
                )
        reports: dict[str, RoundReport] = {}
        if run_names:
            with ExitStack() as stack:
                for name in run_names:
                    admission = admissions[name]
                    if admission.action == ACTION_SHRINK:
                        stack.enter_context(
                            self.engine[name].throttled(admission.granted)
                        )
                reports = self.engine.run_round(run_names)
        for name in run_names:
            report = reports[name]
            self.governor.commit(name, report.queries_used, round_index)
            admission = admissions[name]
            status = (
                STATUS_DEGRADED if admission.action == ACTION_SHRINK
                else STATUS_OK
            )
            outcomes[name] = RoundOutcome(
                name,
                status,
                report=report.to_dict(),
                governor=admission.record(),
            )
            self._publish(name, report, round_index)
        return RoundResult(round_index, [outcomes[name] for name in names])

    # ------------------------------------------------------------------
    # Observers (session-lock only; respond during a long round)
    # ------------------------------------------------------------------
    def reports(self, task: str) -> ReportsResponse:
        handle = self.engine[task]
        return ReportsResponse(
            task=handle.name,
            rounds_run=handle.rounds_run,
            queries_total=handle.queries_total,
            reports=[report.to_dict() for report in handle.reports],
        )

    def ledger(self) -> LedgerResponse:
        return LedgerResponse(
            round_index=self.engine.current_round,
            ledger=self.engine.budget_ledger(),
        )

    def telemetry(self) -> TelemetryResponse:
        return TelemetryResponse(
            round_index=self.engine.current_round,
            governor=self.governor.snapshot(),
            metrics=self.engine.metrics(),
        )

    def health(self) -> HealthResponse:
        # In overlap mode, report the published epoch: one atomic
        # (round, size) pair — the version estimators are actually
        # reading — instead of sampling the live store mid-churn.
        epoch = (
            self.engine.db.published if self.engine.config.overlap else None
        )
        if epoch is not None:
            round_index, tuples = epoch.round_index, len(epoch)
        else:
            round_index, tuples = (
                self.engine.current_round, len(self.engine.db),
            )
        return HealthResponse(
            status="ok",
            round_index=round_index,
            backend=INDEX_ENGINE,
            tuples=tuples,
            tasks=list(self.engine.tasks()),
        )

    # ------------------------------------------------------------------
    # Report event stream
    # ------------------------------------------------------------------
    def _publish(
        self, name: str, report: RoundReport, round_index: int
    ) -> None:
        with self._publish_lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "task": name,
                "round_index": round_index,
                "report": report.to_dict(),
            }
            self._events.append(event)
            if OBS.enabled:
                _SSE_BACKLOG.set(len(self._events))
            for listener in tuple(self._listeners):
                listener(event)

    def subscribe(
        self, listener: EventListener, replay_from: int = 0
    ) -> list[dict]:
        """Register a live listener; returns the retained events after
        ``replay_from`` (atomically, so no event is missed or doubled)."""
        with self._publish_lock:
            self._listeners.add(listener)
            return [e for e in self._events if e["seq"] > replay_from]

    def unsubscribe(self, listener: EventListener) -> None:
        with self._publish_lock:
            self._listeners.discard(listener)
