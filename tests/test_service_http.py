"""Service plane end-to-end: HTTP parity, SSE, governor, typed errors.

The headline acceptance criterion of the service PR: estimates obtained
through the HTTP service are **bit-identical** to driving the
:class:`~repro.api.Engine` directly with the same config — on every
data plane.  Around it: the SSE stream
delivers completed rounds while later rounds still execute, observers
respond during a long round (the PR 5 lock-narrowing contract carried
through the transport), governor degradation is visible in outcomes and
telemetry, and errors cross the wire as typed payloads.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import HiddenDatabase
from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all, sum_measure
from repro.core.estimators.base import RoundReport
from repro.data.synthetic import skewed_source
from repro.errors import (
    AdmissionError,
    DuplicateTaskError,
    UnknownTaskError,
    WireFormatError,
)
from repro.service import (
    STATUS_DEFERRED,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUS_REFUSED,
    BudgetGovernor,
    GovernorConfig,
    ServiceApp,
    ServiceClient,
    ServiceServer,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _source(seed: int = 3):
    return skewed_source(
        [8, 10, 6, 4],
        exponent=0.4,
        measures=("price",),
        measure_sampler=lambda rng: (rng.uniform(1.0, 100.0),),
        seed=seed,
    )


def _engine(plane=None, n=600, budget=40):
    source = _source()
    config = EngineConfig(
        data_plane=plane,
        k=8,
        budget_per_round=budget,
        seed=3,
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(n))
    return Engine(config, db=db)


class _Service:
    """A ServiceServer on a background thread (ephemeral port)."""

    def __init__(self, app: ServiceApp, heartbeat: float = 0.1):
        self.server = ServiceServer(app, port=0, heartbeat=heartbeat)
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def go():
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(go())

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        assert self._ready.wait(10), "server failed to start"
        return ServiceClient("127.0.0.1", self.server.port, timeout=30)

    def __exit__(self, *exc_info) -> None:
        if self.thread.is_alive():
            try:
                ServiceClient(
                    "127.0.0.1", self.server.port, timeout=5
                ).shutdown()
            except OSError:
                pass
        self.thread.join(timeout=15)
        assert not self.thread.is_alive(), "server did not shut down"


class _GatedEstimator:
    """Estimator whose rounds block until the test releases them."""

    def __init__(self, interface, started, releases):
        self.interface = interface
        self.on_query = None
        self._started = started
        self._releases = releases
        self._round = 0

    def run_round(self) -> RoundReport:
        index = self._round
        self._round += 1
        self._started[index].set()
        assert self._releases[index].wait(timeout=30), "released too late"
        return RoundReport(
            round_index=self.interface.current_round,
            estimates={"count": float(index + 1)},
            variances={"count": 0.0},
            queries_used=1,
        )


def _gated_factory(started, releases):
    def factory(interface, specs, budget_per_round=1, seed=0, **options):
        return _GatedEstimator(interface, started, releases)

    return factory


# ----------------------------------------------------------------------
# Parity: HTTP-obtained estimates are bit-identical to direct Engine use
# ----------------------------------------------------------------------
TENANTS = (("alpha", "RS", 30), ("beta", "REISSUE", 40),
           ("gamma", "RESTART", 20))


def _direct_reports(plane, rounds):
    engine = _engine(plane=plane)
    specs = [count_all(), sum_measure(engine.db.schema, "price")]
    for name, estimator, budget in TENANTS:
        engine.submit(EstimationTask(name, specs, estimator, budget=budget))
    per_round = []
    for position in range(rounds):
        if position:
            engine.advance_round()
        per_round.append(engine.run_round())
    return per_round


# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize(
    "plane", ["vectorized", "scalar"],
    ids=["blocked-None-vectorized", "blocked-None-scalar"],
)
def test_http_estimates_bit_identical_to_direct_engine(plane):
    rounds = 2
    direct = _direct_reports(plane, rounds)
    app = ServiceApp(_engine(plane=plane))
    wire_specs = [{"kind": "count"},
                  {"kind": "sum", "measure": "price"}]
    with _Service(app) as client:
        for name, estimator, budget in TENANTS:
            client.submit(
                name=name, estimator=estimator, specs=wire_specs,
                budget=budget,
            )
        response = client.run_rounds(rounds=rounds, advance=True)
    assert len(response["results"]) == rounds
    for position, result in enumerate(response["results"]):
        for outcome in result["outcomes"]:
            assert outcome["status"] == STATUS_OK
            served = RoundReport.from_dict(outcome["report"])
            expected = direct[position][outcome["task"]]
            assert served.estimates == expected.estimates
            assert served.variances == expected.variances
            assert served.queries_used == expected.queries_used


def test_reports_and_ledger_match_direct_engine():
    rounds = 2
    direct_engine = _engine()
    specs = [count_all()]
    direct_engine.submit(EstimationTask("t", specs, "RS", budget=25))
    direct = []
    for position in range(rounds):
        if position:
            direct_engine.advance_round()
        direct.append(direct_engine.run_round()["t"])

    app = ServiceApp(_engine())
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}], budget=25)
        client.run_rounds(rounds=rounds, advance=True)
        served = client.reports("t")
        ledger = client.ledger()
    assert served["rounds_run"] == rounds
    assert served["queries_total"] == sum(r.queries_used for r in direct)
    for payload, expected in zip(served["reports"], direct):
        report = RoundReport.from_dict(payload)
        assert report.estimates == expected.estimates
        assert report.queries_used == expected.queries_used
    assert ledger["ledger"] == direct_engine.budget_ledger()


# ----------------------------------------------------------------------
# SSE: completed rounds stream while later rounds still execute
# ----------------------------------------------------------------------
def test_sse_delivers_reports_during_a_multi_round_request():
    app = ServiceApp(_engine(n=100))
    started = [threading.Event(), threading.Event()]
    releases = [threading.Event(), threading.Event()]
    app.engine.submit(EstimationTask(
        "gated", [count_all()], _gated_factory(started, releases),
    ))
    with _Service(app) as client:
        events: list[dict] = []

        def collect():
            for event in client.stream(timeout=10):
                events.append(event)
                if len(events) >= 2:
                    return

        collector = threading.Thread(target=collect, daemon=True)
        collector.start()
        runner = threading.Thread(
            target=client.run_rounds, kwargs={"rounds": 2}, daemon=True,
        )
        runner.start()
        try:
            assert started[0].wait(10)
            releases[0].set()  # round 1 completes; round 2 blocks
            assert started[1].wait(10)
            deadline = time.monotonic() + 10
            while not events and time.monotonic() < deadline:
                time.sleep(0.02)
            # Round 1's report crossed the stream while round 2 is still
            # in flight inside the same POST /v1/rounds request.
            assert runner.is_alive()
            assert events, "no SSE event during the in-flight request"
            assert events[0]["task"] == "gated"
            report = RoundReport.from_dict(events[0]["report"])
            assert report.estimates == {"count": 1.0}
        finally:
            releases[0].set()
            releases[1].set()
        runner.join(15)
        collector.join(15)
        assert not runner.is_alive()
        assert [e["seq"] for e in events] == sorted(
            {e["seq"] for e in events}
        ), "SSE delivered gaps or duplicates"


def test_sse_replay_delivers_already_published_reports():
    app = ServiceApp(_engine(n=100))
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}], budget=10)
        client.run_rounds(rounds=2)
        events = []
        for event in client.stream(timeout=3):
            events.append(event)
            if len(events) >= 2:
                break
    assert [e["round_index"] for e in events] == [1, 1]
    assert [e["seq"] for e in events] == [1, 2]


# ----------------------------------------------------------------------
# Observer responsiveness during a long round (through the transport)
# ----------------------------------------------------------------------
def test_observers_respond_over_http_during_a_long_round():
    app = ServiceApp(_engine(n=100))
    started = [threading.Event()]
    releases = [threading.Event()]
    app.engine.submit(EstimationTask(
        "slow", [count_all()], _gated_factory(started, releases),
    ))
    with _Service(app) as client:
        runner = threading.Thread(
            target=client.run_rounds, kwargs={"rounds": 1}, daemon=True,
        )
        runner.start()
        try:
            assert started[0].wait(10)
            begin = time.monotonic()
            health = client.health()
            ledger = client.ledger()
            telemetry = client.telemetry()
            elapsed = time.monotonic() - begin
            assert elapsed < 5.0, "observers blocked behind the round"
            assert health["status"] == "ok"
            assert ledger["ledger"]["slow"]["rounds"] == 0
            assert telemetry["round_index"] == health["round_index"]
        finally:
            releases[0].set()
        runner.join(15)
        assert not runner.is_alive()
        assert client.ledger()["ledger"]["slow"]["rounds"] == 1


# ----------------------------------------------------------------------
# Governor through the wire: degradation observable, never silent
# ----------------------------------------------------------------------
def test_degradation_ladder_is_observable_over_http():
    governor = BudgetGovernor(GovernorConfig(
        queries_per_window=60, window_rounds=100, max_deferrals=2,
    ))
    app = ServiceApp(_engine(n=200, budget=40), governor)
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}])  # budget 40
        statuses, records = [], []
        for _ in range(4):
            result = client.run_rounds(rounds=1)["results"][0]
            outcome = result["outcomes"][0]
            statuses.append(outcome["status"])
            records.append(outcome["governor"])
        telemetry = client.telemetry()
        ledger = client.ledger()
    # 60 allowance, 40/round: ok → degraded (0.4*40=16 ≤ 20 left) →
    # deferred twice (nothing fits the 4 remaining).
    assert statuses == [
        STATUS_OK, STATUS_DEGRADED, STATUS_DEFERRED, STATUS_DEFERRED,
    ]
    assert records[0] is None
    assert records[1]["action"] == "shrink_k"
    assert records[1]["granted"] == 16
    assert records[2]["action"] == "widen_rounds"
    usage = telemetry["governor"]["tenants"]["t"]
    assert usage["degraded_rounds"] == 1
    assert usage["deferred_rounds"] == 2
    assert usage["queries_total"] == 56
    # The engine's ledger shows the shrunken round really spent less.
    assert ledger["ledger"]["t"]["queries_total"] == 56
    assert ledger["ledger"]["t"]["queries_last_round"] == 16


def test_single_tenant_refusal_is_a_typed_429():
    governor = BudgetGovernor(GovernorConfig(
        queries_per_window=1, window_rounds=10, max_deferrals=0,
    ))
    app = ServiceApp(_engine(n=100, budget=40), governor)
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}])
        with pytest.raises(AdmissionError) as excinfo:
            client.run_rounds(rounds=1)
        exc = excinfo.value
        assert exc.tenant == "t"
        assert exc.retry_after_rounds is not None
        assert exc.http_status == 429


def test_multi_tenant_refusal_does_not_fail_other_tenants():
    governor = BudgetGovernor(GovernorConfig(
        queries_per_window=25, window_rounds=100, max_deferrals=0,
    ))
    app = ServiceApp(_engine(n=200, budget=40), governor)
    with _Service(app) as client:
        client.submit(name="small", specs=[{"kind": "count"}], budget=10)
        client.submit(name="big", specs=[{"kind": "count"}], budget=40)
        # Round 1: small allowed (10 ≤ 25); big shrinks (16 ≤ 15 fails →
        # nothing fits after small committed... drive to refusal).
        outcomes = {}
        for _ in range(3):
            result = client.run_rounds(rounds=1)["results"][0]
            outcomes = {o["task"]: o for o in result["outcomes"]}
            if outcomes["big"]["status"] == STATUS_REFUSED:
                break
        assert outcomes["big"]["status"] == STATUS_REFUSED
        assert outcomes["big"]["error"]["code"] == "ADMISSION_REJECTED"
        # The refused tenant never silently poisons its neighbour.
        assert outcomes["small"]["status"] in (STATUS_OK, STATUS_DEGRADED)


def test_max_tenants_rejects_submissions_with_429():
    governor = BudgetGovernor(GovernorConfig(max_tenants=1))
    app = ServiceApp(_engine(n=100), governor)
    with _Service(app) as client:
        client.submit(name="first", specs=[{"kind": "count"}])
        with pytest.raises(AdmissionError):
            client.submit(name="second", specs=[{"kind": "count"}])


# ----------------------------------------------------------------------
# Typed errors over the wire
# ----------------------------------------------------------------------
def test_typed_errors_cross_the_wire():
    app = ServiceApp(_engine(n=100))
    with _Service(app) as client:
        with pytest.raises(UnknownTaskError) as excinfo:
            client.reports("ghost")
        assert excinfo.value.name == "ghost"

        client.submit(name="t", specs=[{"kind": "count"}])
        with pytest.raises(DuplicateTaskError):
            client.submit(name="t", specs=[{"kind": "count"}])

        with pytest.raises(WireFormatError):
            client.submit(name="bad", specs=[{"kind": "warp"}])

        with pytest.raises(WireFormatError):
            client.submit(name="empty", specs=[])

        with pytest.raises(UnknownTaskError):
            client.run_rounds(tasks=["ghost"])


def test_malformed_bodies_and_routes():
    import http.client

    app = ServiceApp(_engine(n=100))
    with _Service(app) as client:
        connection = http.client.HTTPConnection(
            "127.0.0.1", app_port(client), timeout=10
        )
        connection.request(
            "POST", "/v1/tasks", body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

        with pytest.raises(Exception) as excinfo:
            client.request("GET", "/v1/nope")
        assert "no route" in str(excinfo.value)

        with pytest.raises(Exception):
            client.request("DELETE", "/v1/tasks")


def app_port(client: ServiceClient) -> int:
    return client.port


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_clean_shutdown_with_open_stream():
    import http.client

    app = ServiceApp(_engine(n=100))
    service = _Service(app)
    client = service.__enter__()
    client.submit(name="t", specs=[{"kind": "count"}], budget=5)
    client.run_rounds(rounds=1)
    # Leave an SSE connection hanging mid-stream, then shut down: the
    # server must still wind down promptly (it cancels the stream).
    connection = http.client.HTTPConnection(
        "127.0.0.1", client.port, timeout=10
    )
    connection.request("GET", "/v1/stream")
    assert connection.getresponse().status == 200
    assert client.shutdown()["status"] == "shutting down"
    service.thread.join(timeout=15)
    assert not service.thread.is_alive()
    connection.close()
    with pytest.raises(OSError):
        ServiceClient("127.0.0.1", client.port, timeout=2).health()


def test_every_response_is_version_stamped():
    app = ServiceApp(_engine(n=100))
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}], budget=5)
        payloads = [
            client.health(), client.ledger(), client.telemetry(),
            client.run_rounds(rounds=1), client.reports("t"),
        ]
    for payload in payloads:
        assert payload["schema_version"] == 1
