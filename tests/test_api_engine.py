"""Engine facade behaviour: multi-tenant sessions, budgets, serialization.

The headline property: N named tasks sharing one dynamic store across
churn rounds each see exactly the estimates they would have produced as
the *only* tenant of an identical environment — per-task budget and RNG
isolation is total, while the store is shared.
"""

import json
import math
import random
import threading

import pytest

from repro import HiddenDatabase, count_all, count_where, sum_measure
from repro.api import (
    GAP_TASK,
    Engine,
    EngineConfig,
    EstimationTask,
    ReportGap,
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from repro.core.estimators import RsEstimator
from repro.core.estimators.registry import _REGISTRY
from repro.core.estimators.base import RoundReport
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.errors import EstimationError, ExperimentError
from repro.experiments.metrics import ExperimentResult


def _build_env(seed=3):
    source = skewed_source(
        [8, 10, 12, 6, 4],
        exponent=0.4,
        measures=("price",),
        measure_sampler=lambda rng: (rng.uniform(1.0, 100.0),),
        seed=seed,
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(1200))
    schedule = FreshTupleSchedule(
        source, inserts_per_round=30, delete_fraction=0.01
    )
    return db, schedule


def _same_estimates(a, b):
    assert set(a) == set(b)
    for name in a:
        if math.isnan(a[name]) and math.isnan(b[name]):
            continue
        assert a[name] == b[name]


CONFIG = EngineConfig(k=12, budget_per_round=150)

#: (name, estimator, budget, seed) of the multi-tenant scenario.  Budgets
#: differ per task so isolation failures shift query counts visibly.
TENANTS = (
    ("alpha", "RS", 40, 101),
    ("beta", "REISSUE", 60, 202),
    ("gamma", "RESTART", 25, 303),
    ("delta", "RS", 75, 404),
)


def _drive(engine, schedule, rounds):
    """Run ``rounds`` rounds with boundary churn; returns reports/round."""
    rng = random.Random(5)
    per_round = []
    for position in range(rounds):
        if position:
            engine.apply_updates(lambda db: apply_round(db, schedule, rng))
            engine.advance_round()
        per_round.append(engine.run_round())
    return per_round


class TestMultiTenantIsolation:
    def test_shared_store_tasks_match_solo_runs(self):
        rounds = 3
        # Multi-tenant: all four tasks over ONE shared store.
        db, schedule = _build_env()
        engine = Engine(CONFIG, db=db)
        for name, estimator, budget, seed in TENANTS:
            engine.submit(EstimationTask(
                name, [count_all(), sum_measure(db.schema, "price")],
                estimator, budget=budget, seed=seed,
            ))
        shared = _drive(engine, schedule, rounds)

        # Solo oracles: each task alone over an identical fresh environment.
        for name, estimator, budget, seed in TENANTS:
            db, schedule = _build_env()
            solo_engine = Engine(CONFIG, db=db)
            solo_engine.submit(EstimationTask(
                name, [count_all(), sum_measure(db.schema, "price")],
                estimator, budget=budget, seed=seed,
            ))
            solo = _drive(solo_engine, schedule, rounds)
            for position in range(rounds):
                _same_estimates(
                    shared[position][name].estimates,
                    solo[position][name].estimates,
                )

    def test_per_task_budget_accounting(self):
        db, schedule = _build_env()
        engine = Engine(CONFIG, db=db)
        for name, estimator, budget, seed in TENANTS:
            engine.submit(EstimationTask(
                name, [count_all()], estimator, budget=budget, seed=seed,
            ))
        rounds = 3
        per_round = _drive(engine, schedule, rounds)
        for name, _, budget, _ in TENANTS:
            for reports in per_round:
                assert 0 < reports[name].queries_used <= budget
        ledger = engine.budget_ledger()
        for name, _, budget, _ in TENANTS:
            entry = ledger[name]
            assert entry["budget_per_round"] == budget
            assert entry["rounds"] == rounds
            assert entry["queries_total"] == sum(
                reports[name].queries_used for reports in per_round
            )
            assert entry["queries_last_round"] == (
                per_round[-1][name].queries_used
            )

    def test_budget_share_resolves_against_engine_budget(self):
        db, _ = _build_env()
        engine = Engine(EngineConfig(k=10, budget_per_round=200), db=db)
        handle = engine.submit(EstimationTask(
            "half", [count_all()], "RS", budget_share=0.5,
        ))
        assert handle.budget_per_round == 100
        full = engine.submit(EstimationTask("full", [count_all()], "RS"))
        assert full.budget_per_round == 200

    def test_per_task_interfaces_isolate_query_counters(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        a = engine.submit(EstimationTask(
            "a", [count_all()], "RS", budget=30,
        ))
        b = engine.submit(EstimationTask(
            "b", [count_all()], "RS", budget=70,
        ))
        engine.run_round()
        assert a.interface.stats.queries == 30
        assert b.interface.stats.queries == 70


class TestLifecycle:
    def test_duplicate_names_rejected(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask("tenant", [count_all()], "RS"))
        with pytest.raises(ExperimentError):
            engine.submit(EstimationTask("tenant", [count_all()], "RS"))

    def test_cancel_removes_task_but_keeps_history(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask("tenant", [count_all()], "RS"))
        engine.run_round()
        handle = engine.cancel("tenant")
        assert engine.tasks() == ()
        assert len(handle.reports) == 1
        assert engine.run_round() == {}
        with pytest.raises(ExperimentError):
            engine["tenant"]

    def test_contains_and_indexing(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        handle = engine.submit(EstimationTask("tenant", [count_all()], "RS"))
        assert "tenant" in engine
        assert "ghost" not in engine
        assert engine["tenant"] is handle

    def test_legacy_estimator_factory_build_still_works(self):
        from repro import TopKInterface
        from repro.experiments import EstimatorFactory

        db, _ = _build_env()
        factory = EstimatorFactory("RS", "RS")
        estimator = factory.build(
            TopKInterface(db, 10), [count_all()], budget=20, seed=3
        )
        report = estimator.run_round()
        assert report.queries_used <= 20

    def test_run_round_subset(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask("a", [count_all()], "RS", budget=20))
        engine.submit(EstimationTask("b", [count_all()], "RS", budget=20))
        reports = engine.run_round(tasks=["b"])
        assert list(reports) == ["b"]
        assert engine["a"].latest is None

    def test_run_round_runs_a_repeated_name_once(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask("a", [count_all()], "RS", budget=20))
        engine.submit(EstimationTask("b", [count_all()], "RS", budget=20))
        reports = engine.run_round(tasks=["b", "a", "b", "a"])
        # First occurrence wins the position; each task runs once.
        assert list(reports) == ["b", "a"]
        assert [name for name, _ in engine.stream_reports()] == ["b", "a"]
        ledger = engine.budget_ledger()
        for name in ("a", "b"):
            assert ledger[name]["rounds"] == 1
            assert ledger[name]["queries_total"] <= 20
            assert (
                ledger[name]["queries_total"]
                == reports[name].queries_used
            )

    def test_stream_reports_in_execution_order(self):
        db, schedule = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask("a", [count_all()], "RS", budget=20))
        engine.submit(EstimationTask("b", [count_all()], "RS", budget=20))
        _drive(engine, schedule, 2)
        names = [name for name, _ in engine.stream_reports()]
        assert names == ["a", "b", "a", "b"]
        only_b = list(engine.stream_reports(task="b"))
        assert [name for name, _ in only_b] == ["b", "b"]
        assert all(isinstance(r, RoundReport) for _, r in only_b)

    def test_report_log_limit_bounds_memory(self):
        db, _ = _build_env()
        engine = Engine(
            EngineConfig(k=12, budget_per_round=60, report_log_limit=3),
            db=db,
        )
        engine.submit(EstimationTask("a", [count_all()], "RS", budget=10))
        engine.submit(EstimationTask("b", [count_all()], "RS", budget=10))
        for _ in range(4):
            engine.run_round()
        # 8 reports produced, only the newest 3 retained in the log; the
        # stream surfaces the eviction as a leading truncation marker
        # rather than silently replaying the gapped log as contiguous.
        assert len(engine._log) == 3
        streamed = list(engine.stream_reports())
        assert [name for name, _ in streamed] == [GAP_TASK, "b", "a", "b"]
        assert streamed[0][1] == ReportGap(dropped=5)
        # ... per-task histories are bounded too, newest first to go last,
        # while the lifetime accounting stays exact in O(1) counters.
        for name in ("a", "b"):
            handle = engine[name]
            assert len(handle.reports) == 3
            assert handle.rounds_run == 4
            assert engine.budget_ledger()[name]["rounds"] == 4
            assert handle.latest is handle.reports[-1]
        with pytest.raises(ExperimentError):
            EngineConfig(report_log_limit=0)

    def test_stream_reports_marks_mid_iteration_eviction(self):
        # A slow consumer racing a fast producer: entries evicted *while*
        # the stream is suspended surface as an in-stream gap marker at
        # the point of truncation, and the filtered stream carries the
        # marker too (the filter cannot know what the dropped entries
        # were).
        db, _ = _build_env()
        engine = Engine(
            EngineConfig(k=12, budget_per_round=60, report_log_limit=2),
            db=db,
        )
        engine.submit(EstimationTask("a", [count_all()], "RS", budget=10))
        engine.run_round()
        stream = engine.stream_reports()
        name, _report = next(stream)
        assert name == "a"
        for _ in range(3):
            engine.run_round()
        rest = list(stream)
        assert [name for name, _ in rest] == [GAP_TASK, "a", "a"]
        assert rest[0][1] == ReportGap(dropped=1)
        filtered = list(engine.stream_reports(task="no-such-task"))
        assert filtered == [(GAP_TASK, ReportGap(dropped=2))]

    def test_engine_builds_its_own_database(self):
        source = skewed_source([12, 12, 12], exponent=0.3, seed=1)
        engine = Engine(EngineConfig(k=5), schema=source.schema)
        assert engine.load(source.batch_columns(200)) == 200
        assert len(engine.db) == 200

    def test_engine_requires_db_or_schema(self):
        with pytest.raises(ExperimentError):
            Engine(CONFIG)
        db, _ = _build_env()
        with pytest.raises(ExperimentError):
            Engine(CONFIG, db=db, schema=db.schema)

    def test_seed_policy_per_task_is_submission_order_independent(self):
        config = EngineConfig(k=5, seed=9)
        db, _ = _build_env()
        forward = Engine(config, db=db)
        a1 = forward.submit(EstimationTask("a", [count_all()], "RS"))
        b1 = forward.submit(EstimationTask("b", [count_all()], "RS"))
        backward = Engine(config, db=db)
        b2 = backward.submit(EstimationTask("b", [count_all()], "RS"))
        a2 = backward.submit(EstimationTask("a", [count_all()], "RS"))
        assert a1.estimator.rng.getstate() == a2.estimator.rng.getstate()
        assert b1.estimator.rng.getstate() == b2.estimator.rng.getstate()
        assert a1.estimator.rng.getstate() != b1.estimator.rng.getstate()
        shared = EngineConfig(k=5, seed=9, seed_policy="shared")
        engine = Engine(shared, db=db)
        a3 = engine.submit(EstimationTask("a", [count_all()], "RS"))
        b3 = engine.submit(EstimationTask("b", [count_all()], "RS"))
        assert a3.estimator.rng.getstate() == b3.estimator.rng.getstate()


class TestThreadSafety:
    def test_concurrent_submissions_all_registered(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        errors = []

        def submit(index):
            try:
                engine.submit(EstimationTask(
                    f"tenant-{index}", [count_all()], "RS", budget=5,
                ))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(engine.tasks()) == sorted(
            f"tenant-{i}" for i in range(8)
        )

    def test_ranking_with_existing_db_rejected(self):
        from repro.hiddendb.ranking import RandomScore

        db, _ = _build_env()
        with pytest.raises(ExperimentError):
            Engine(CONFIG, db=db, ranking=RandomScore())

    def test_concurrent_round_runs_are_serialized(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        for i in range(4):
            engine.submit(EstimationTask(
                f"tenant-{i}", [count_all()], "RS", budget=10,
            ))
        results = []

        def run():
            results.append(engine.run_round())

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Three full rounds ran, 4 tasks each, no torn bookkeeping.
        assert len(results) == 3
        for name in engine.tasks():
            assert len(engine[name].reports) == 3
        assert len(list(engine.stream_reports())) == 12


class TestRegistry:
    def test_builtins_registered(self):
        assert {"RESTART", "REISSUE", "RS"} <= set(available_estimators())

    def test_registered_factory_resolves_by_name(self):
        token = "X-TEST-REGISTERED"
        assert token not in available_estimators()
        register_estimator(token, RsEstimator)
        try:
            assert token in available_estimators()
            assert resolve_estimator(token) is RsEstimator
        finally:
            _REGISTRY.pop(token)

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(EstimationError):
            resolve_estimator("NOPE")
        with pytest.raises(EstimationError):
            resolve_estimator(42)

    def test_extension_estimator_runs_through_engine(self):
        import repro.extensions  # noqa: F401 - registers COUNT-ASSISTED

        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask(
            "counted", [count_all()], "COUNT-ASSISTED", budget=10,
        ))
        report = engine.run_round()["counted"]
        # The revealed root count answers COUNT(*) exactly in one query.
        assert report.estimates["count"] == len(db)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            EngineConfig(k=0)
        with pytest.raises(ExperimentError):
            EngineConfig(budget_per_round=0)
        with pytest.raises(ExperimentError):
            EngineConfig(seed_policy="mystery")

    def test_round_trip_and_json(self):
        config = EngineConfig(
            k=7, budget_per_round=42, seed=3, seed_policy="shared",
        )
        payload = json.loads(json.dumps(config.to_dict(), allow_nan=False))
        assert EngineConfig.from_dict(payload) == config

    def test_from_dict_is_forward_tolerant(self):
        # Wire versioning policy: unknown keys (fields from a newer
        # producer) are ignored, a missing schema_version reads as v0,
        # and known fields still validate.
        config = EngineConfig.from_dict(
            {"k": 3, "warp_factor": 9, "schema_version": 99}
        )
        assert config.k == 3
        with pytest.raises(ExperimentError):
            EngineConfig.from_dict({"k": 0, "warp_factor": 9})

    def test_replace_revalidates(self):
        config = EngineConfig(k=7)
        assert config.replace(k=9).k == 9
        assert config.replace(k=9) != config
        with pytest.raises(ExperimentError):
            config.replace(k=0)

    def test_task_validation(self):
        with pytest.raises(ExperimentError):
            EstimationTask("", [count_all()])
        with pytest.raises(ExperimentError):
            EstimationTask("x", [])
        with pytest.raises(ExperimentError):
            EstimationTask("x", [count_all()], budget=10, budget_share=0.5)
        with pytest.raises(ExperimentError):
            EstimationTask("x", [count_all()], budget=0)
        with pytest.raises(ExperimentError):
            EstimationTask("x", [count_all()], budget_share=1.5)

    def test_task_to_dict(self):
        task = EstimationTask(
            "census", [count_all()], "RS", budget_share=0.25, seed=4,
            options={"parent_check": "lazy"},
        )
        payload = json.loads(json.dumps(task.to_dict(), allow_nan=False))
        assert payload["name"] == "census"
        assert payload["estimator"] == "RS"
        assert payload["specs"] == ["count"]
        assert payload["budget_share"] == 0.25
        assert payload["options"] == {"parent_check": "lazy"}
        # Non-JSON option values (callables, objects) degrade to reprs
        # instead of making json.dumps raise.
        hooked = EstimationTask(
            "hooked", [count_all()], "RS",
            options={"free_order": (2, 0, 1), "hook": _build_env},
        )
        payload = json.loads(json.dumps(hooked.to_dict(), allow_nan=False))
        assert payload["options"]["free_order"] == [2, 0, 1]
        assert "_build_env" in payload["options"]["hook"]


class TestWireFormats:
    def test_round_report_round_trip(self):
        report = RoundReport(
            3,
            {"count": 12.5, "sum_price": math.nan},
            {"count": 4.0, "sum_price": math.inf},
            queries_used=77,
            drilldowns_updated=2,
            drilldowns_new=1,
            leaf_overflows=1,
            active_drilldowns=3,
        )
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        back = RoundReport.from_dict(payload)
        assert back.round_index == 3
        assert back.queries_used == 77
        assert back.estimates["count"] == 12.5
        assert math.isnan(back.estimates["sum_price"])
        assert math.isinf(back.variances["sum_price"])
        assert back.drilldowns_updated == 2
        assert back.active_drilldowns == 3

    def test_experiment_result_round_trip(self):
        result = ExperimentResult("wire", ["RS"], ["count"])
        result.start_trial()
        result.record_truth(1, {"count": 100.0})
        result.record_report("RS", {"count": math.nan}, 30, 2)
        result.record_truth(2, {"count": 110.0})
        result.record_report("RS", {"count": 108.0}, 25, 1)
        payload = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        back = ExperimentResult.from_dict(payload)
        assert back.rounds == result.rounds
        assert back.queries == result.queries
        assert back.drilldowns == result.drilldowns
        assert math.isnan(back.estimates["RS"][0][0]["count"])
        assert back.estimates["RS"][0][1] == {"count": 108.0}
        assert back.truths == result.truths

    def test_engine_reports_survive_the_wire(self):
        db, _ = _build_env()
        engine = Engine(CONFIG, db=db)
        engine.submit(EstimationTask(
            "t", [count_all(), count_where(db.schema, {"A0": "A0_1"})], "RS",
            budget=40,
        ))
        report = engine.run_round()["t"]
        wire = json.dumps(report.to_dict(), allow_nan=False)
        back = RoundReport.from_dict(json.loads(wire))
        _same_estimates(back.estimates, report.estimates)
        _same_estimates(back.variances, report.variances)
