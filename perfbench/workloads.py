"""The benchmark's workloads, driven through ``repro.api`` / ``repro.service``.

Every workload uses the default :class:`~repro.api.EngineConfig` apart
from ``k``, the per-round budget and the seed: the blocked backend, the
vectorized data plane, ``parallelism=1``, no overlap, no auto-tuning.

One *pass* of a workload is: set-up (source generation, bulk load, task
submission with its index builds), then ``rounds`` timed rounds.  A timed
round is churn (``Engine.apply_updates``), ``Engine.advance_round`` and
the round's estimates.  Exact ground truth is computed after each round,
outside the timed region.  A pass depends only on its seed, so two passes
with the same seed produce byte-identical estimate traces.

While the rounds run, one closed-loop observer thread reads beside them:
the in-process ``Engine.budget_ledger()`` and the latest report of a task
on the engine workloads, ``/v1/tasks/{name}/reports``, ``/v1/ledger`` and
``/v1/healthz`` over HTTP on ``service_observed``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import json
import math
import random
import shutil
import tempfile
import threading
import time

from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all, sum_measure
from repro.data import schedules
from repro.data.synthetic import skewed_source
from repro.service import ServiceApp, ServiceClient, ServiceServer
from tracing import SETUP_SPAN

ALGORITHMS = ("RESTART", "REISSUE", "RS")


@dataclasses.dataclass(frozen=True)
class Shape:
    """The inputs of one workload (see ``BENCHMARK.json``)."""

    name: str
    domains: tuple[int, ...]
    n: int
    k: int
    budget: int
    #: Fresh tuples inserted per round, as a share of ``n``.
    insert_share: float
    #: Share of the live tuples deleted per round.
    delete_fraction: float
    #: Timed rounds per pass.
    rounds: int
    #: Observer think time between polls, seconds.
    think_s: float
    #: Wall seconds one pass takes on a 2-vCPU host; sets the pass count.
    pass_s: float
    tenants: int = 3
    measure: bool = False
    #: Whether the initial load rejects duplicate value vectors (the
    #: fig12 shape does; on a narrow schema the retry path for rejected
    #: rows would dominate set-up).
    distinct: bool = False
    snapshot_every: int | None = None

    def scaled(self, scale: float) -> "Shape":
        """The same shape with ``n`` and the round count scaled down."""
        if scale >= 1.0:
            return self
        return dataclasses.replace(
            self,
            n=max(2000, int(self.n * scale)),
            rounds=max(2, int(round(self.rounds * scale))),
            snapshot_every=(
                None if self.snapshot_every is None
                else max(1, int(round(self.snapshot_every * scale)))
            ),
        )


SHAPES = {
    "estimate_heavy": Shape(
        name="estimate_heavy",
        domains=tuple(2 + (i % 7) for i in range(50)),
        n=1_000_000,
        k=100,
        budget=2000,
        insert_share=1 / 500,
        delete_fraction=0.001,
        rounds=6,
        think_s=0.002,
        pass_s=9.0,
        distinct=True,
    ),
    "service_observed": Shape(
        name="service_observed",
        domains=(12, 10, 12, 8, 6, 5, 4, 3),
        n=100_000,
        k=20,
        budget=40,
        insert_share=1 / 100,
        delete_fraction=0.005,
        rounds=40,
        think_s=0.002,
        pass_s=6.5,
        tenants=16,
        measure=True,
        snapshot_every=20,
    ),
}


@dataclasses.dataclass
class PassResult:
    """What one pass measured and produced."""

    setup_s: float = 0.0
    round_walls: list = dataclasses.field(default_factory=list)
    #: Wall seconds of the estimation step (``run_round`` / the HTTP round).
    estimate_walls: list = dataclasses.field(default_factory=list)
    apply_walls: list = dataclasses.field(default_factory=list)
    #: Budget-charged queries and applied mutations, per round.
    queries: list = dataclasses.field(default_factory=list)
    mutations: list = dataclasses.field(default_factory=list)
    rel_errors: list = dataclasses.field(default_factory=list)
    observer_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Canonical per-round reports, for the digest and the trace check.
    trace: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run seeded ``seed``."""
    return seed * 1009 + index


def _source(shape: Shape, seed: int):
    if shape.measure:
        return skewed_source(
            shape.domains,
            exponent=0.4,
            measures=("price",),
            measure_sampler=lambda rng: (rng.uniform(1.0, 100.0),),
            seed=seed,
        )
    return skewed_source(shape.domains, exponent=0.4, seed=seed)


def _schedule(shape: Shape, source) -> schedules.FreshTupleSchedule:
    return schedules.FreshTupleSchedule(
        source,
        inserts_per_round=max(1, int(shape.n * shape.insert_share)),
        delete_fraction=shape.delete_fraction,
    )


def _churn(engine: Engine, schedule, rng: random.Random, result: PassResult):
    """Apply one round of churn; counts applied inserts and deletes."""
    before = len(engine.db)
    started = time.perf_counter()
    # Through the module attribute, so a traced pass sees apply_round.
    engine.apply_updates(lambda db: schedules.apply_round(db, schedule, rng))
    result.apply_walls.append(time.perf_counter() - started)
    inserted = schedule.inserts_per_round
    deleted = before + inserted - len(engine.db)
    result.mutations.append(inserted + deleted)


def _check_report(result: PassResult, name, report: dict, truths: dict,
                  budget: int) -> None:
    """Finite estimates, budget honoured, and the realized error."""
    estimates = report["estimates"]
    for spec, value in estimates.items():
        if not isinstance(value, float) or not math.isfinite(value):
            result.problems.append(
                f"{name} round {report['round_index']}: non-finite "
                f"estimate {spec}={value!r}"
            )
            continue
        truth = truths[spec]
        result.rel_errors.append(abs(value - truth) / truth)
    if report["queries_used"] > budget:
        result.problems.append(
            f"{name} round {report['round_index']}: spent "
            f"{report['queries_used']} queries of a {budget} budget"
        )


def _canonical(name: str, report: dict) -> str:
    payload = {key: value for key, value in report.items()
               if key != "schema_version"}
    return json.dumps([name, payload], sort_keys=True)


class _Observer:
    """One closed-loop reader thread; records each poll's latency.

    A poll is due ``think_s`` after the previous one ended, and its
    latency runs from then: it includes the wait for the interpreter lock
    that the round thread holds, which is what a reader sharing the
    process with the rounds experiences.  Its counts are kept apart from
    the round thread's and folded into the pass result once the thread
    has ended.
    """

    def __init__(self, poll, think_s: float, result: PassResult):
        self._poll = poll
        self._think_s = think_s
        self._result = result
        self._latencies: list[float] = []
        self._failures: list[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-observer"
        )

    def _loop(self) -> None:
        clock = time.perf_counter
        turn = 0
        due = clock()
        while True:
            try:
                self._poll(turn)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self._failures.append(f"observer poll: {exc!r}")
            else:
                self._latencies.append(clock() - due)
            turn += 1
            due = clock() + self._think_s
            # At least one poll per pass, however short the rounds.
            if self._stop.wait(self._think_s):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        result = self._result
        result.observer_s.extend(self._latencies)
        result.attempted += len(self._latencies) + len(self._failures)
        result.failed += len(self._failures)
        result.problems.extend(self._failures)
        return False


def _scopes(tracer):
    """The set-up scope and the per-round scope: the harness's root spans
    on a traced pass, no-ops otherwise."""
    if tracer is None:
        return contextlib.nullcontext, lambda _round: contextlib.nullcontext()
    return (lambda: tracer.span(SETUP_SPAN)), tracer.round


# ----------------------------------------------------------------------
# estimate_heavy: the engine facade in-process
# ----------------------------------------------------------------------
def run_engine_pass(shape: Shape, seed: int, tracer=None) -> PassResult:
    result = PassResult()
    spec = count_all()
    setup, timed_round = _scopes(tracer)
    started = time.perf_counter()
    with setup():
        source = _source(shape, seed)
        rows = source.batch_columns(shape.n, distinct=shape.distinct)
        engine = Engine(
            EngineConfig(k=shape.k, budget_per_round=shape.budget, seed=seed),
            schema=source.schema,
        )
        engine.load(rows)
        del rows
        for algorithm in ALGORITHMS:
            engine.submit(EstimationTask(algorithm, [spec], algorithm))
    result.setup_s = time.perf_counter() - started
    schedule = _schedule(shape, source)
    rng = random.Random(seed + 1)
    names = list(ALGORITHMS)

    def poll(turn: int) -> None:
        engine.budget_ledger()
        engine[names[turn % len(names)]].latest

    with _Observer(poll, shape.think_s, result):
        for position in range(shape.rounds):
            round_started = time.perf_counter()
            with timed_round(position):
                _churn(engine, schedule, rng, result)
                engine.advance_round()
                estimate_started = time.perf_counter()
                reports = None
                try:
                    reports = engine.run_round()
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    result.problems.append(f"run_round: {exc!r}")
                finished = time.perf_counter()
            result.round_walls.append(finished - round_started)
            result.estimate_walls.append(finished - estimate_started)
            result.attempted += len(names)
            result.queries.append(0)
            if reports is None:
                result.failed += len(names)
                continue
            truths = {spec.name: spec.ground_truth(engine.db)}
            for name in names:
                if name not in reports:
                    result.failed += 1
                    continue
                report = reports[name].to_dict()
                result.queries[-1] += report["queries_used"]
                _check_report(result, name, report, truths, shape.budget)
                result.trace.append(_canonical(name, report))
    return result


# ----------------------------------------------------------------------
# service_observed: ServiceApp + ServiceServer in-process, over HTTP
# ----------------------------------------------------------------------
def _tenants(shape: Shape):
    """(name, estimator, wire specs) per tenant: RS / REISSUE / RESTART
    in turn, COUNT and COUNT+SUM alternating."""
    plan = []
    for index in range(shape.tenants):
        specs = [{"kind": "count"}]
        if index % 2:
            specs.append({"kind": "sum", "measure": "price"})
        estimator = ALGORITHMS[::-1][index % len(ALGORITHMS)]
        plan.append((f"tenant{index:02d}", estimator, specs))
    return plan


class _Server:
    """A ``ServiceServer`` on its own event-loop thread."""

    def __init__(self, app: ServiceApp):
        self.server = ServiceServer(app, port=0)
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._serve, name="perfbench-server"
        )

    def _serve(self) -> None:
        async def main():
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - re-raised in start()
            self._failure = exc
            self._ready.set()

    def start(self) -> ServiceClient:
        self._thread.start()
        if not self._ready.wait(60) or self._failure is not None:
            raise RuntimeError(f"service did not start: {self._failure!r}")
        return ServiceClient("127.0.0.1", self.server.port, timeout=120)

    def stop(self, client: ServiceClient) -> None:
        try:
            client.shutdown()
        finally:
            self._thread.join(60)


def run_service_pass(shape: Shape, seed: int, tracer=None,
                     work_dir: str | None = None) -> PassResult:
    result = PassResult()
    setup, timed_round = _scopes(tracer)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    plan = _tenants(shape)
    server = None
    client = None
    try:
        started = time.perf_counter()
        with setup():
            source = _source(shape, seed)
            rows = source.batch_columns(shape.n, distinct=shape.distinct)
            engine = Engine(
                EngineConfig(
                    k=shape.k, budget_per_round=shape.budget, seed=seed
                ),
                schema=source.schema,
            )
            engine.load(rows)
            del rows
            app = ServiceApp(
                engine, store_dir=store_dir,
                snapshot_every=shape.snapshot_every,
            )
            server = _Server(app)
            client = server.start()
            for name, estimator, specs in plan:
                result.attempted += 1
                client.submit(
                    name=name, estimator=estimator, specs=specs,
                    budget=shape.budget,
                )
        result.setup_s = time.perf_counter() - started
        schedule = _schedule(shape, source)
        rng = random.Random(seed + 1)
        count = count_all()
        total = sum_measure(source.schema, "price")
        observer = ServiceClient("127.0.0.1", server.server.port, timeout=120)
        names = [name for name, _estimator, _specs in plan]

        def poll(turn: int) -> None:
            kind = turn % 3
            if kind == 0:
                observer.reports(names[(turn // 3) % len(names)])
            elif kind == 1:
                observer.ledger()
            else:
                observer.health()

        with _Observer(poll, shape.think_s, result):
            for position in range(shape.rounds):
                round_started = time.perf_counter()
                with timed_round(position):
                    # The hidden database's owner churns it in-process and
                    # moves the round clock; tenants' estimates come back
                    # over HTTP.
                    _churn(engine, schedule, rng, result)
                    engine.advance_round()
                    estimate_started = time.perf_counter()
                    response = None
                    try:
                        response = client.run_rounds(rounds=1)
                    except Exception as exc:  # noqa: BLE001 - counted
                        result.problems.append(f"POST /v1/rounds: {exc!r}")
                    finished = time.perf_counter()
                result.round_walls.append(finished - round_started)
                result.estimate_walls.append(finished - estimate_started)
                result.attempted += 1 + len(names)
                result.queries.append(0)
                if response is None:
                    result.failed += 1 + len(names)
                    continue
                truths = {
                    count.name: count.ground_truth(engine.db),
                    total.name: total.ground_truth(engine.db),
                }
                outcomes = response["results"][0]["outcomes"]
                served = {outcome["task"]: outcome for outcome in outcomes}
                for name in names:
                    outcome = served.get(name)
                    if outcome is None or outcome["status"] != "ok":
                        result.failed += 1
                        result.problems.append(f"{name}: {outcome!r}")
                        continue
                    report = outcome["report"]
                    result.queries[-1] += report["queries_used"]
                    _check_report(result, name, report, truths, shape.budget)
                    result.trace.append(_canonical(name, report))
    finally:
        if server is not None and client is not None:
            server.stop(client)
        shutil.rmtree(store_dir, ignore_errors=True)
    return result


def run_pass(shape: Shape, seed: int, tracer=None,
             work_dir: str | None = None) -> PassResult:
    """One pass; the previous pass's engine is collected before set-up."""
    gc.collect()
    if shape.snapshot_every is not None:
        return run_service_pass(shape, seed, tracer, work_dir)
    return run_engine_pass(shape, seed, tracer)
