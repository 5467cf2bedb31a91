"""Concurrency tests for the engine facade and the read-concurrent store.

The contracts under test:

* Observers on other threads never disturb a round: estimates under
  concurrent ``stream_reports()`` / ``budget_ledger()`` polling are
  bit-identical to an unobserved run.
* The session boundary stays responsive during a long round: the round
  barrier and the session lock are separate, so ``stream_reports()`` /
  ``budget_ledger()`` from other threads never wait for estimators.
* Deferred columnar pages detect cross-thread staleness: a page read
  after another thread mutates the store raises ``StaleResultError``.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.core.estimators.base import RoundReport
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.errors import StaleResultError
from repro.hiddendb import ConjunctiveQuery, TopKInterface


ALGORITHMS = ("RESTART", "REISSUE", "RS")


def _fig_source(seed: int = 7):
    return skewed_source(
        [2 + (i % 5) for i in range(10)], exponent=0.4, seed=seed
    )


#: The seeded multi-tenant churn scenario the stress test replays.
CONFIG = EngineConfig(k=10, budget_per_round=60, seed=3)


def _run_engine(rounds: int = 3, n: int = 2500):
    """One seeded multi-tenant churn run; returns every observable output."""
    source = _fig_source()
    engine = Engine(CONFIG, schema=source.schema)
    engine.load(source.batch_columns(n))
    schedule = FreshTupleSchedule(
        source, inserts_per_round=40, delete_fraction=0.01
    )
    specs = [count_all()]
    for index, algorithm in enumerate(ALGORITHMS):
        engine.submit(
            EstimationTask(algorithm, specs, algorithm, seed=100 + index)
        )
    rng = random.Random(11)
    outputs = []
    for position in range(rounds):
        if position:
            engine.apply_updates(lambda db: apply_round(db, schedule, rng))
            engine.advance_round()
        reports = engine.run_round()
        outputs.append({
            name: (report.estimates, report.variances, report.queries_used)
            for name, report in reports.items()
        })
    outputs.append(engine.budget_ledger())
    outputs.append([name for name, _ in engine.stream_reports()])
    return outputs


class _ExplodingEstimator:
    def __init__(self, interface):
        self.interface = interface
        self.on_query = None

    def run_round(self):
        raise RuntimeError("estimator blew up")


def test_failed_task_keeps_completed_reports():
    """A task raising mid-round must not drop the reports of tasks that
    already ran (their budget was spent, their RNG advanced)."""
    source = _fig_source()
    engine = Engine(
        EngineConfig(k=10, budget_per_round=40, seed=1),
        schema=source.schema,
    )
    engine.load(source.batch_columns(800))
    engine.submit(EstimationTask("ok", [count_all()], "RS", seed=0))
    engine.submit(EstimationTask(
        "boom",
        [count_all()],
        lambda interface, specs, **options: _ExplodingEstimator(interface),
    ))
    engine.submit(EstimationTask("later", [count_all()], "RS", seed=1))
    with pytest.raises(RuntimeError):
        engine.run_round()
    ledger = engine.budget_ledger()
    assert ledger["ok"]["rounds"] == 1
    assert ledger["ok"]["queries_total"] > 0
    assert ledger["boom"]["rounds"] == 0
    # Tasks after the failing one do not run this round.
    assert ledger["later"]["rounds"] == 0
    assert [name for name, _ in engine.stream_reports()] == ["ok"]


# ----------------------------------------------------------------------
# Stress: rounds under churn with concurrent observers
# ----------------------------------------------------------------------
def test_stress_concurrent_observers_under_churn():
    """Readers drain reports/ledgers from other threads while rounds and
    churn alternate; the estimates still match the unobserved twin bit
    for bit."""
    unobserved = _run_engine(rounds=4)

    source = _fig_source()
    engine = Engine(CONFIG, schema=source.schema)
    engine.load(source.batch_columns(2500))
    schedule = FreshTupleSchedule(
        source, inserts_per_round=40, delete_fraction=0.01
    )
    for index, algorithm in enumerate(ALGORITHMS):
        engine.submit(EstimationTask(
            algorithm, [count_all()], algorithm, seed=100 + index,
        ))

    stop = threading.Event()
    observer_errors: list[BaseException] = []

    def observe():
        try:
            while not stop.is_set():
                for name, report in engine.stream_reports():
                    assert name in ALGORITHMS
                    assert report.queries_used >= 0
                ledger = engine.budget_ledger()
                for row in ledger.values():
                    assert row["queries_total"] >= 0
        except BaseException as exc:  # pragma: no cover - failure path
            observer_errors.append(exc)

    observers = [threading.Thread(target=observe) for _ in range(3)]
    for thread in observers:
        thread.start()
    try:
        rng = random.Random(11)
        outputs = []
        for position in range(4):
            if position:
                engine.apply_updates(
                    lambda db: apply_round(db, schedule, rng)
                )
                engine.advance_round()
            reports = engine.run_round()
            outputs.append({
                name: (
                    report.estimates,
                    report.variances,
                    report.queries_used,
                )
                for name, report in reports.items()
            })
    finally:
        stop.set()
        for thread in observers:
            thread.join(timeout=10)
    assert not observer_errors
    assert outputs == unobserved[:4]
    assert engine.budget_ledger() == unobserved[4]


class _PlaneProbe:
    """Estimator stub that records the data plane its round ran under."""

    def __init__(self, interface, sink):
        self.interface = interface
        self.on_query = None
        self._sink = sink

    def run_round(self):
        from repro.hiddendb.store import get_data_plane

        self._sink.append(get_data_plane())
        return RoundReport(
            round_index=self.interface.current_round,
            estimates={"count": 0.0},
            variances={"count": 0.0},
            queries_used=0,
        )


def test_round_inherits_callers_plane_override():
    """A caller-scoped context-local plane override reaches every task of
    a round run by an engine that pins no plane of its own."""
    from repro.hiddendb.store import overriding_data_plane

    source = _fig_source()
    engine = Engine(
        EngineConfig(k=5, budget_per_round=10, seed=0),  # no plane pinned
        schema=source.schema,
    )
    engine.load(source.batch_columns(100))
    seen: list[str] = []
    for name in ("a", "b"):
        engine.submit(EstimationTask(
            name,
            [count_all()],
            lambda interface, specs, **options: _PlaneProbe(interface, seen),
        ))
    with overriding_data_plane("scalar"):
        engine.run_round()
    assert seen == ["scalar", "scalar"]


# ----------------------------------------------------------------------
# Cross-thread staleness detection
# ----------------------------------------------------------------------
def test_stale_result_error_across_threads():
    """A deferred columnar page read after *another thread* mutates the
    store raises StaleResultError instead of silently reflecting
    post-query state."""
    source = _fig_source()
    config = EngineConfig(data_plane="vectorized", k=10, seed=2)
    engine = Engine(config, schema=source.schema)
    engine.load(source.batch_columns(300))
    interface = TopKInterface(engine.db, k=10)
    interface.register_attr_order(tuple(range(10)))
    # Drill until some prefix is valid (1..k matches): that query result
    # carries the deferred columnar page.
    schema = source.schema
    result = None
    prefixes = [()]
    while prefixes and result is None:
        prefix = prefixes.pop(0)
        depth = len(prefix)
        if depth == schema.num_attributes:
            continue
        for value in range(schema.attributes[depth].size):
            extended = prefix + ((depth, value),)
            candidate = interface.search(ConjunctiveQuery(extended))
            if candidate.valid:
                result = candidate
                break
            if candidate.overflow:
                prefixes.append(extended)
    assert result is not None and result.page is not None

    mutated = threading.Event()

    def mutate():
        engine.apply_updates(lambda db: db.insert(
            bytes([0] * 10), (), tid=10_000_000
        ))
        mutated.set()

    thread = threading.Thread(target=mutate)
    thread.start()
    thread.join(timeout=10)
    assert mutated.is_set()
    with pytest.raises(StaleResultError):
        result.tuples  # noqa: B018 - the read is the assertion


# ----------------------------------------------------------------------
# Lock-narrowing regression: observers respond during a long round
# ----------------------------------------------------------------------
class _SlowEstimator:
    """Estimator stub whose round blocks until released."""

    def __init__(self, interface, specs, budget_per_round=1, seed=0,
                 started=None, release=None):
        self.interface = interface
        self.on_query = None
        self._started = started
        self._release = release

    def run_round(self):
        self._started.set()
        assert self._release.wait(timeout=30), "test released too late"
        return RoundReport(
            round_index=self.interface.current_round,
            estimates={"count": 1.0},
            variances={"count": 0.0},
            queries_used=1,
        )


def test_observers_not_blocked_behind_a_long_round():
    source = _fig_source()
    engine = Engine(
        EngineConfig(k=5, budget_per_round=10, seed=0),
        schema=source.schema,
    )
    engine.load(source.batch_columns(100))
    started = threading.Event()
    release = threading.Event()

    def factory(interface, specs, budget_per_round=1, seed=0, **options):
        return _SlowEstimator(
            interface, specs, budget_per_round, seed,
            started=started, release=release,
        )

    engine.submit(EstimationTask("slow", [count_all()], factory))
    worker = threading.Thread(target=engine.run_round)
    worker.start()
    try:
        assert started.wait(timeout=10)
        # The round is now in flight and will not finish until released;
        # session-lock observers must respond promptly regardless.
        deadline = time.monotonic() + 5.0
        ledger = engine.budget_ledger()
        drained = list(engine.stream_reports())
        names = engine.tasks()
        elapsed_ok = time.monotonic() < deadline
        assert elapsed_ok, "observers blocked behind the running round"
        assert ledger["slow"]["rounds"] == 0
        assert drained == []  # nothing recorded until the round completes
        assert names == ("slow",)
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert [name for name, _ in engine.stream_reports()] == ["slow"]
    assert engine.budget_ledger()["slow"]["rounds"] == 1


def test_cancel_during_round_keeps_log_consistent():
    """A task cancelled while its round is in flight keeps the produced
    report on its own (returned) handle, but the engine log carries no
    entry for it — log and ledger must agree about the name.  (A
    *resubmit* of the name waits for the round barrier, like any store
    access, so a fresh same-name task can never be misattributed.)"""
    source = _fig_source()
    engine = Engine(
        EngineConfig(k=5, budget_per_round=10, seed=0),
        schema=source.schema,
    )
    engine.load(source.batch_columns(100))
    started = threading.Event()
    release = threading.Event()

    def slow_factory(interface, specs, budget_per_round=1, seed=0, **opts):
        return _SlowEstimator(
            interface, specs, budget_per_round, seed,
            started=started, release=release,
        )

    engine.submit(EstimationTask("shared-name", [count_all()], slow_factory))
    worker = threading.Thread(target=engine.run_round)
    worker.start()
    try:
        assert started.wait(timeout=10)
        # cancel() needs only the session lock, so it interleaves the
        # in-flight round.
        old_handle = engine.cancel("shared-name")
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    # The cancelled handle keeps its own history; the engine log stays
    # silent about a handle that no longer owns the name.
    assert len(old_handle.reports) == 1
    assert old_handle.rounds_run == 1
    assert list(engine.stream_reports()) == []
    # Reusing the name afterwards starts from a clean ledger.
    new_handle = engine.submit(EstimationTask(
        "shared-name", [count_all()], "RS", seed=0,
    ))
    assert engine.budget_ledger()["shared-name"]["rounds"] == 0
    assert new_handle.rounds_run == 0
