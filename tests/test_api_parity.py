"""Old entry points vs the ``repro.api`` facade: bit-identical estimates.

Two oracles:

* the *manual* legacy path — build ``HiddenDatabase`` / ``TopKInterface``
  / an estimator class by hand and drive rounds yourself (the seed
  quick start);
* the *runner* legacy path — a verbatim port of the pre-facade
  ``Experiment._run_trial_round`` loop (shared interface, estimator dict).

Both must produce exactly the same estimate stream as the
:class:`repro.api.Engine` / config-routed :class:`Experiment`.  The
``scalar`` rows run the legacy side under the per-tuple reference plane
of ``tests/oracle.py`` while the engine side runs in production, so they
also check production against the oracle at the engine level.
"""

import math
import random

import pytest

from repro import HiddenDatabase, TopKInterface, count_all, sum_measure
from repro.api import Engine, EngineConfig, EstimationTask, resolve_estimator
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.experiments import EstimatorFactory, Experiment
from tests.oracle import plane

PLANES = ("scalar", "vectorized")
# Case ids are kept stable across releases so per-case results compare.
PLANE_IDS = ("scalar-blocked", "vectorized-blocked")

K = 15
BUDGET = 60
ROUNDS = 3
SEED = 11


def _build_env(seed=3):
    source = skewed_source(
        [8, 10, 12, 6, 4],
        exponent=0.4,
        measures=("price",),
        measure_sampler=lambda rng: (rng.uniform(1.0, 100.0),),
        seed=seed,
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(1500))
    schedule = FreshTupleSchedule(
        source, inserts_per_round=40, delete_fraction=0.01
    )
    return db, schedule


def _specs(schema):
    return [count_all(), sum_measure(schema, "price")]


def _same_estimates(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    for name in a:
        x, y = a[name], b[name]
        if math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


def _assert_streams_equal(old, new):
    assert len(old) == len(new)
    for position, (a, b) in enumerate(zip(old, new)):
        assert _same_estimates(a, b), (
            f"round {position}: legacy {a} != facade {b}"
        )


@pytest.mark.parametrize("plane_name", PLANES, ids=PLANE_IDS)
@pytest.mark.parametrize("estimator", ("RESTART", "REISSUE", "RS"))
def test_manual_legacy_path_matches_engine(plane_name, estimator):
    # Legacy: hand-built database, interface, estimator class, churn loop.
    with plane(plane_name):
        db, schedule = _build_env()
        interface = TopKInterface(db, K)
        legacy = resolve_estimator(estimator)(
            interface, _specs(db.schema), budget_per_round=BUDGET, seed=SEED
        )
        rng = random.Random(5)
        old_stream = []
        for position in range(ROUNDS):
            if position:
                apply_round(db, schedule, rng)
                db.advance_round()
            old_stream.append(dict(legacy.run_round().estimates))

    # Facade: same environment rebuilt identically, driven by an Engine.
    db, schedule = _build_env()
    engine = Engine(EngineConfig(k=K, budget_per_round=BUDGET), db=db)
    engine.submit(
        EstimationTask("tenant", _specs(db.schema), estimator, seed=SEED)
    )
    rng = random.Random(5)
    new_stream = []
    for position in range(ROUNDS):
        if position:
            engine.apply_updates(lambda d: apply_round(d, schedule, rng))
            engine.advance_round()
        new_stream.append(dict(engine.run_round()["tenant"].estimates))

    _assert_streams_equal(old_stream, new_stream)


def _legacy_runner_estimates(trials=2):
    """Verbatim port of the pre-facade Experiment._run_trial_round loop."""
    factories = ["RESTART", "REISSUE", "RS"]
    streams = {name: [] for name in factories}
    for trial in range(trials):
        seed = 1000 * trial
        db, schedule = _build_env(seed=seed)
        specs = _specs(db.schema)
        interface = TopKInterface(db, K)
        estimators = {
            name: resolve_estimator(name)(
                interface, specs, budget_per_round=BUDGET,
                seed=seed + 17 + index,
            )
            for index, name in enumerate(factories)
        }
        schedule_rng = random.Random(seed + 5)
        for position in range(ROUNDS):
            if position > 0:
                apply_round(db, schedule, schedule_rng)
                db.advance_round()
            for name, est in estimators.items():
                streams[name].append(dict(est.run_round().estimates))
    return streams


@pytest.mark.parametrize("plane_name", PLANES, ids=PLANE_IDS)
def test_experiment_runner_matches_legacy_loop(plane_name):
    with plane(plane_name):
        old = _legacy_runner_estimates()

    experiment = Experiment(
        "parity",
        lambda seed: _build_env(seed=seed),
        _specs,
        estimators=[
            EstimatorFactory("RESTART", "RESTART"),
            EstimatorFactory("REISSUE", "REISSUE"),
            EstimatorFactory("RS", "RS"),
        ],
        rounds=ROUNDS,
        trials=2,
        config=EngineConfig(k=K, budget_per_round=BUDGET),
    )
    result = experiment.run()
    for name, old_stream in old.items():
        new_stream = [
            dict(snapshot)
            for trial in result.estimates[name]
            for snapshot in trial
        ]
        _assert_streams_equal(old_stream, new_stream)


def test_experiment_honours_config_seed():
    """`config=EngineConfig(seed=...)` governs trial seeding."""

    def run(config):
        return Experiment(
            "seeding",
            _build_env,
            _specs,
            config=config,
            estimators=[EstimatorFactory("RS", "RS")],
            rounds=2,
            trials=1,
        ).run()

    via_config = run(EngineConfig(k=K, budget_per_round=BUDGET, seed=42))
    default_seed = run(EngineConfig(k=K, budget_per_round=BUDGET))
    assert not all(
        _same_estimates(a, b)
        for a, b in zip(
            via_config.estimates["RS"][0], default_seed.estimates["RS"][0]
        )
    ), "seed=42 must actually change the trial stream"
