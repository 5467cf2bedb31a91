"""Integration tests for the experiment runner."""

import pytest

from repro import ExperimentError, count_all
from repro.api import EngineConfig
from repro.data import FreshTupleSchedule, skewed_source
from repro.experiments import EstimatorFactory, Experiment
from repro.hiddendb.database import HiddenDatabase


def tiny_env(seed: int):
    source = skewed_source([6, 7, 8, 9], seed=seed)
    db = HiddenDatabase(source.schema)
    for values, measures in source.batch(300):
        db.insert(values, measures)
    schedule = FreshTupleSchedule(
        source, inserts_per_round=5, deletes_per_round=5
    )
    return db, schedule


def count_specs(schema):
    return [count_all()]


class TestRoundMode:
    def test_full_run_shape(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=40, seed=1),
            rounds=4, trials=2,
        )
        result = experiment.run()
        assert result.num_trials == 2
        assert result.num_rounds == 4
        assert set(result.estimates) == {"RESTART", "REISSUE", "RS"}

    def test_budgets_respected_everywhere(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=25),
            rounds=3, trials=1,
        )
        result = experiment.run()
        for estimator in result.estimator_names:
            for trial in result.queries[estimator]:
                assert all(q <= 25 for q in trial)

    def test_estimates_are_sane(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=60),
            rounds=3, trials=2,
        )
        result = experiment.run()
        for estimator in result.estimator_names:
            assert result.tail_rel_error(estimator, "count", tail=2) < 1.0

    def test_custom_estimator_set(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=30),
            rounds=2, trials=1,
            estimators=[EstimatorFactory("only", "REISSUE")],
        )
        result = experiment.run()
        assert result.estimator_names == ["only"]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            Experiment("t", tiny_env, count_specs,
                       config=EngineConfig(k=5, budget_per_round=10),
                       rounds=0)
        with pytest.raises(ExperimentError):
            EstimatorFactory("x", "NOPE")


class TestIntraRoundMode:
    def test_runs_and_records(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=40),
            rounds=3, trials=1,
            estimators=[EstimatorFactory("REISSUE", "REISSUE")],
            intra_round=True,
        )
        result = experiment.run()
        assert result.num_rounds == 3
        assert result.tail_rel_error("REISSUE", "count", tail=2) < 1.0

    def test_two_estimators_each_get_own_environment(self):
        experiment = Experiment(
            "t", tiny_env, count_specs,
            config=EngineConfig(k=10, budget_per_round=40),
            rounds=2, trials=1,
            estimators=[
                EstimatorFactory("REISSUE", "REISSUE"),
                EstimatorFactory("RS", "RS"),
            ],
            intra_round=True,
        )
        result = experiment.run()
        assert set(result.estimates) == {"REISSUE", "RS"}
