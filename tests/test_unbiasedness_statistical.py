"""Many-trial statistical unbiasedness smoke (marked ``slow``).

Runs RESTART / REISSUE / RS over many independent seeds on a small
synthetic database and asserts the COUNT and SUM round estimates land
inside analytic confidence bounds around the exact ground truth, so the
columnar query plane is checked not just for page parity against the
per-tuple oracle (see ``test_query_plane_parity``) but for
estimator-level unbiasedness end to end.

The bound: across ``TRIALS`` independent seeds the trial mean is
approximately normal with standard error ``sqrt(sample_var / TRIALS)``,
so ``|mean - truth| < Z * stderr`` with Z = 4 fails a centred estimator
with probability < 1e-4 per assertion; the seeds are fixed, so a pass is
deterministic.

Skipped by default (``pytest -m slow`` or ``REPRO_RUN_SLOW=1`` runs it);
CI runs it in the nightly-style optional job and the coverage job.
"""

import math
import random

import pytest

from repro import (
    HiddenDatabase,
    ReissueEstimator,
    RestartEstimator,
    RsEstimator,
    TopKInterface,
    count_all,
    sum_measure,
)
from repro.core.variance import mean, sample_variance
from repro.data.synthetic import skewed_source
from tests.oracle import plane

pytestmark = pytest.mark.slow

DOMAINS = [4, 4, 3, 3]
TRIALS = 24
Z_BOUND = 4.0


def _build_db():
    source = skewed_source(
        DOMAINS, exponent=0.4, seed=7, measures=("m",),
        measure_sampler=lambda rng: (rng.uniform(10.0, 50.0),),
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(1200, distinct=False))
    return db


def _churn(db, rng):
    tids = [t.tid for t in db.tuples()]
    rng.shuffle(tids)
    for tid in tids[:40]:
        db.delete(tid)
    sizes = db.schema.domain_sizes
    for _ in range(40):
        db.insert(
            bytes(rng.randrange(s) for s in sizes), (rng.uniform(10.0, 50.0),)
        )
    db.advance_round()


def _assert_within_bounds(estimates, truth, label):
    spread = math.sqrt(sample_variance(estimates) / len(estimates))
    if spread == 0:
        assert mean(estimates) == pytest.approx(truth), label
        return
    z = abs(mean(estimates) - truth) / spread
    assert z < Z_BOUND, (
        f"{label}: mean {mean(estimates):.2f} vs truth {truth:.2f} "
        f"(z={z:.2f} >= {Z_BOUND})"
    )


# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize(
    "estimator_cls", [RestartEstimator, ReissueEstimator, RsEstimator],
    ids=[
        "RestartEstimator-vectorized",
        "ReissueEstimator-vectorized",
        "RsEstimator-vectorized",
    ],
)
def test_count_and_sum_round_estimates_unbiased(estimator_cls):
    """Round-1 COUNT and SUM estimates centre on exact ground truth."""
    db = _build_db()
    specs = [count_all(), sum_measure(db.schema, "m")]
    count_truth = float(len(db))
    sum_truth = specs[1].ground_truth(db)
    counts, sums = [], []
    for seed in range(TRIALS):
        interface = TopKInterface(db, k=60)
        estimator = estimator_cls(
            interface, list(specs), budget_per_round=120, seed=seed
        )
        report = estimator.run_round()
        counts.append(report.estimates["count"])
        sums.append(report.estimates["sum_m"])
    _assert_within_bounds(counts, count_truth, f"{estimator_cls.name}/count")
    _assert_within_bounds(sums, sum_truth, f"{estimator_cls.name}/sum")


@pytest.mark.parametrize(
    "estimator_cls", [ReissueEstimator, RsEstimator],
    ids=["ReissueEstimator-vectorized", "RsEstimator-vectorized"],
)
def test_post_churn_round_estimates_unbiased(estimator_cls):
    """Reissuing estimators stay centred on the *new* round's truth."""
    spec = count_all()
    estimates = []
    for seed in range(TRIALS):
        db = _build_db()
        rng = random.Random(100 + seed)
        interface = TopKInterface(db, k=60)
        estimator = estimator_cls(
            interface, [spec], budget_per_round=120, seed=seed
        )
        estimator.run_round()
        _churn(db, rng)
        report = estimator.run_round()
        # Churn contents are seeded per trial; collect the per-trial
        # error against that trial's exact size.
        estimates.append(report.estimates["count"] - float(len(db)))
    _assert_within_bounds(
        estimates, 0.0, f"{estimator_cls.name}/post-churn count"
    )


@pytest.mark.parametrize("seed", [3], ids=["vectorized"])
def test_planes_produce_identical_estimates(seed):
    """Sanity anchor: a seeded estimator run is deterministic."""
    db = _build_db()
    outputs = []
    for _ in range(2):
        interface = TopKInterface(db, k=60)
        estimator = RsEstimator(
            interface, [count_all()], budget_per_round=100, seed=seed
        )
        outputs.append(estimator.run_round().estimates["count"])
    assert outputs[0] == outputs[1]


def test_scalar_and_columnar_estimates_bit_identical():
    """The same seeded run yields the *same float* in production and
    under the per-tuple oracle."""

    def run(name):
        with plane(name):
            db = _build_db()
            interface = TopKInterface(db, k=60)
            estimator = RsEstimator(
                interface,
                [count_all(), sum_measure(db.schema, "m")],
                budget_per_round=150,
                seed=9,
            )
            report = estimator.run_round()
            return report.estimates["count"], report.estimates["sum_m"]

    assert run("vectorized") == run("scalar")
