"""HTAP epoch double-buffering: overlap correctness, pinning, and CoW.

The contracts under test (the epoch split):

* ``EngineConfig(overlap=True)`` is **bit-identical** to sequential mode
  on every data plane — estimators read the published
  :class:`~repro.hiddendb.epoch.StoreEpoch` and churn lands on the live
  store, becoming visible exactly at the next publish flip.
* Estimator queries run *concurrently* with ``apply_round`` churn, and
  deferred pages stay pinned to the pre-flip epoch: no
  ``StaleResultError`` for reads that started before a publish.
* Published epochs are immutable (mutations raise), and the heap blocks
  they share with the live store are copy-on-write: post-publish churn
  never leaks into the epoch.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.errors import ExperimentError
from repro.hiddendb import ConjunctiveQuery, TopKInterface
from repro.hiddendb.database import HiddenDatabase, reading_epoch
from repro.hiddendb.epoch import FrozenRun, StoreEpoch
from repro.hiddendb.schema import boolean_schema
from repro.hiddendb.store import SortedKeyList

ALGORITHMS = ("RESTART", "REISSUE", "RS")


def _fig_source(seed: int = 7):
    return skewed_source(
        [2 + (i % 5) for i in range(10)], exponent=0.4, seed=seed
    )


def _run_engine(
    overlap: bool,
    plane: str | None = None,
    rounds: int = 3,
    n: int = 1200,
):
    """One seeded multi-tenant churn run; returns every observable output."""
    source = _fig_source()
    config = EngineConfig(
        data_plane=plane,
        overlap=overlap,
        k=10,
        budget_per_round=60,
        seed=3,
    )
    engine = Engine(config, schema=source.schema)
    engine.load(source.batch_columns(n))
    schedule = FreshTupleSchedule(
        source, inserts_per_round=40, delete_fraction=0.01
    )
    for index, algorithm in enumerate(ALGORITHMS):
        engine.submit(
            EstimationTask(algorithm, [count_all()], algorithm,
                           seed=100 + index)
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
    return outputs


# ----------------------------------------------------------------------
# Overlap mode is bit-identical to sequential, everywhere
# ----------------------------------------------------------------------
# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize(
    "plane", ["vectorized", "scalar"],
    ids=["blocked-None-vectorized", "blocked-None-scalar"],
)
def test_overlap_bit_identical_to_sequential(plane):
    sequential = _run_engine(False, plane)
    overlapped = _run_engine(True, plane)
    assert sequential == overlapped


# ----------------------------------------------------------------------
# Churn/read overlap stress: reads pinned to the pre-flip epoch
# ----------------------------------------------------------------------
def test_estimator_queries_overlap_concurrent_churn():
    """Estimator rounds run while apply_updates churns the live store.

    With overlap on, churn takes only the write lock, so it genuinely
    interleaves with the round — and because every read is pinned to the
    published epoch, the reports are bit-identical to running the same
    rounds with no concurrent churn at all (no ``StaleResultError``, no
    torn pages).
    """
    def build():
        source = _fig_source()
        engine = Engine(
            EngineConfig(overlap=True, k=10, budget_per_round=60, seed=3),
            schema=source.schema,
        )
        engine.load(source.batch_columns(1500))
        for index, algorithm in enumerate(ALGORITHMS):
            engine.submit(
                EstimationTask(algorithm, [count_all()], algorithm,
                               seed=100 + index)
            )
        return engine

    quiet = build()
    expected = [
        {name: (r.estimates, r.queries_used)
         for name, r in quiet.run_round().items()}
        for _ in range(2)
    ]

    engine = build()
    stop = threading.Event()
    churned = []
    rng = random.Random(23)
    domains = _fig_source().schema.domain_sizes

    def churn():
        while not stop.is_set():
            engine.apply_updates(lambda db: db.insert_many([
                (tuple(rng.randrange(d) for d in domains), ())
                for _ in range(20)
            ]))
            churned.append(20)

    # Publish the first epoch, then churn concurrently with both rounds.
    first = {
        name: (r.estimates, r.queries_used)
        for name, r in engine.run_round().items()
    }
    writer = threading.Thread(target=churn)
    writer.start()
    try:
        second_live = {
            name: (r.estimates, r.queries_used)
            for name, r in engine.run_round().items()
        }
    finally:
        stop.set()
        writer.join()
    # Rounds without an advance re-read the same epoch: the concurrent
    # rounds match the quiet engine's rounds, bit for bit...
    assert first == expected[0]
    assert second_live == expected[1]
    # ... and the concurrent churn genuinely landed on the live store
    # while the rounds ran (the overlap, not a serialization artifact).
    assert sum(churned) > 0
    assert len(engine.db) == 1500 + sum(churned)
    # The next flip makes the churn visible wholesale.
    engine.advance_round()
    assert len(engine.db.published) == 1500 + sum(churned)


def test_deferred_pages_survive_post_publish_churn():
    """A page materialised from an epoch never goes stale.

    On the live store a deferred columnar page raises
    ``StaleResultError`` once a mutation lands (PR 5 contract).  Pinned
    to a published epoch, the same page keeps resolving after arbitrary
    live churn — the epoch's mutation counter is frozen.
    """
    schema = boolean_schema(4)
    db = HiddenDatabase(schema)
    rng = random.Random(5)
    db.insert_many([
        (tuple(rng.randrange(2) for _ in range(4)), ()) for _ in range(300)
    ])
    interface = TopKInterface(db, k=8)
    interface.register_attr_order([0, 1, 2, 3])
    epoch = db.publish_epoch()
    with reading_epoch(db, epoch):
        result = interface.search(ConjunctiveQuery(((0, 1), (1, 0))))
    for _ in range(5):
        db.insert((1, 0, 1, 0), ())
    db.delete(next(db.tuples()).tid)
    # Read after churn: pinned to the pre-flip epoch, still resolves.
    page = result.tuples
    assert all(t.values[0] == 1 and t.values[1] == 0 for t in page)


# ----------------------------------------------------------------------
# Epoch immutability + copy-on-write isolation
# ----------------------------------------------------------------------
def _tiny_db():
    db = HiddenDatabase(boolean_schema(3))
    rng = random.Random(9)
    db.insert_many([
        (tuple(rng.randrange(2) for _ in range(3)), (float(i),))
        for i in range(50)
    ])
    return db


def test_epoch_rejects_mutation():
    db = _tiny_db()
    epoch = db.publish_epoch()
    with pytest.raises(ExperimentError):
        epoch.insert(next(db.tuples()))
    with pytest.raises(ExperimentError):
        epoch.delete(0)
    with pytest.raises(ExperimentError):
        epoch.bulk_delete([0, 1])
    index = epoch.ensure_index((0, 1, 2))
    with pytest.raises(ExperimentError):
        db.store.ensure_index((0, 1, 2))._keys.freeze().add(7)
    assert index.count_prefix([]) == len(epoch)


def test_epoch_is_isolated_from_live_churn():
    db = _tiny_db()
    db.store.ensure_index((0, 1, 2))
    epoch = db.publish_epoch()
    before_tids = sorted(t.tid for t in epoch.tuples())
    before_measures = {t.tid: t.measures for t in epoch.tuples()}
    # Kill, replace, and insert on the live store — all three mutation
    # shapes that touch shared heap-block columns in place.
    db.delete(before_tids[0])
    db.update_measures(before_tids[1], (99.5,))
    db.insert((1, 1, 1), (7.0,))
    assert sorted(t.tid for t in epoch.tuples()) == before_tids
    assert {t.tid: t.measures for t in epoch.tuples()} == before_measures
    assert epoch.get(before_tids[1]).measures == before_measures[
        before_tids[1]
    ]
    # The live store saw everything.
    assert len(db) == 50
    assert db.store.get(before_tids[1]).measures == (99.5,)


# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize("inserts", [10], ids=["blocked-options0"])
def test_epoch_index_queries_match_live_at_publish(inserts):
    db = _tiny_db()
    db.store.ensure_index((0, 1, 2))
    live_index = db.store.ensure_index((0, 1, 2))
    expected = {
        prefix: list(live_index.iter_tids(list(prefix)))
        for prefix in ((), (0,), (1,), (0, 1), (1, 0, 1))
    }
    epoch = db.publish_epoch()
    for _ in range(inserts):
        db.insert((0, 0, 0), (1.0,))
    frozen_index = epoch.ensure_index((0, 1, 2))
    for prefix, tids in expected.items():
        assert list(frozen_index.iter_tids(list(prefix))) == tids
        assert frozen_index.range_tids(list(prefix)).tolist() == tids
        assert frozen_index.count_prefix(list(prefix)) == len(tids)


def test_round_index_pins_with_the_epoch():
    db = _tiny_db()
    epoch = db.publish_epoch()
    assert isinstance(epoch, StoreEpoch)
    assert epoch.round_index == 1
    db.advance_round()
    db.advance_round()
    assert db.current_round == 3
    with reading_epoch(db, epoch):
        assert db.current_round == 1
        assert len(db) == 50
    assert db.current_round == 3


def test_freeze_backend_views_are_stable():
    live = SortedKeyList()
    keys = list(range(0, 3000, 7))
    live.bulk_add(keys)
    frozen = live.freeze()
    assert len(frozen) == len(keys)
    live.bulk_add(range(1, 100, 7))
    assert len(frozen) == len(keys)
    assert list(frozen.range_keys(0, 100)) == [k for k in keys if k < 100]
    assert frozen.rank(1400) == sum(1 for k in keys if k < 1400)
    assert 14 in frozen and 15 not in frozen
    frozen.check_invariants()
    with pytest.raises(ExperimentError):
        frozen.add(5)


def test_frozen_run_wide_keys_and_int64_edge():
    run = FrozenRun([2**70, 2**80, 2**90])
    assert run.rank(2**75) == 1
    assert run.count_range(0, 2**100) == 3
    narrow = FrozenRun(FrozenRun([1, 5, 9])._run)
    # Probes at/past the int64 bound clamp instead of overflowing
    # searchsorted (a prefix hi can be exactly 2**63).
    assert narrow.rank(2**63) == 3
    assert narrow.count_range(-(2**70), 2**63) == 3


def test_overlap_refuses_on_query_hooks():
    source = _fig_source()
    engine = Engine(
        EngineConfig(overlap=True, k=10, budget_per_round=40, seed=1),
        schema=source.schema,
    )
    engine.load(source.batch_columns(400))
    handle = engine.submit(
        EstimationTask("hooked", [count_all()], "RS", seed=4)
    )
    handle.estimator.on_query = lambda: None
    with pytest.raises(ExperimentError, match="on_query"):
        engine.run_round()
