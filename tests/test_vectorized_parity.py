"""Production-vs-reference load-path parity.

Columnar loads (batch encode, frozen heap blocks) must be observationally
indistinguishable from the per-tuple reference plane of
``tests/oracle.py``: same tids, same values, same measures, same ranking
scores, byte-identical query results.
"""

import random

import numpy as np
import pytest

from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.hiddendb import HiddenDatabase, TopKInterface
from repro.hiddendb.query import ConjunctiveQuery
from tests.oracle import plane

#: A fig12-style schema scaled down: wide enough that keys exceed 64 bits.
WIDE_DOMAINS = [2 + (i % 7) for i in range(20)]

#: Narrow schema whose key universe fits int64 (exercises the other path).
NARROW_DOMAINS = [3, 4, 2]


def _tuple_snapshot(tuples):
    return sorted((t.tid, t.values, t.measures, t.score) for t in tuples)


def _page_snapshot(result):
    return (
        result.status.value,
        [(t.tid, t.values, t.measures, t.score) for t in result.tuples],
    )


def _run_workload(name, domains, rounds=4):
    """Load, churn, and query one database in production or the oracle."""
    with plane(name):
        source = skewed_source(domains, exponent=0.4, seed=3)
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(3000, distinct=False))
        schedule = FreshTupleSchedule(
            source, inserts_per_round=80, delete_fraction=0.01
        )
        schedule_rng = random.Random(5)
        for _ in range(rounds):
            apply_round(db, schedule, schedule_rng)
            db.advance_round()
        interface = TopKInterface(db, k=25)
        order = tuple(range(len(domains)))
        interface.register_attr_order(order)
        pages = []
        queries = [
            ConjunctiveQuery(()),
            ConjunctiveQuery(((0, 1),)),
            ConjunctiveQuery(((0, 0), (1, 2))),
            ConjunctiveQuery(((2, 1),)),  # ad-hoc: falls back to a scan
        ]
        for query in queries:
            pages.append(_page_snapshot(interface.search(query)))
        return _tuple_snapshot(db.tuples()), pages


class TestLoadAndQueryParity:
    # Case ids are kept stable across releases so per-case results compare.
    @pytest.mark.parametrize(
        "domains", [WIDE_DOMAINS, NARROW_DOMAINS],
        ids=["domains0-blocked", "domains1-blocked"],
    )
    def test_byte_identical_results(self, domains):
        vector_content, vector_pages = _run_workload("vectorized", domains)
        scalar_content, scalar_pages = _run_workload("scalar", domains)
        assert vector_content == scalar_content
        assert vector_pages == scalar_pages

    def test_payload_list_and_batch_loads_agree(self):
        source_a = skewed_source(NARROW_DOMAINS, exponent=0.6, seed=9)
        source_b = skewed_source(NARROW_DOMAINS, exponent=0.6, seed=9)
        db_a = HiddenDatabase(source_a.schema)
        db_b = HiddenDatabase(source_b.schema)
        db_a.insert_many(source_a.batch(200, distinct=False))
        db_b.insert_many(source_b.batch_columns(200, distinct=False))
        assert _tuple_snapshot(db_a.tuples()) == _tuple_snapshot(db_b.tuples())

    def test_batch_after_scalar_inserts_keeps_parity(self):
        # A batch arriving after per-tuple inserts must not iterate ahead
        # of them (blocks come first), so it takes the per-tuple path.
        def population(name):
            with plane(name):
                source = skewed_source(NARROW_DOMAINS, seed=2)
                db = HiddenDatabase(source.schema)
                db.insert(b"\x01\x02\x01")
                db.insert_many(source.batch_columns(50, distinct=False))
                return (
                    [t.tid for t in db.tuples()],
                    db.store.random_tids(random.Random(0), 10),
                )

        assert population("vectorized") == population("scalar")

    def test_inserted_batch_is_not_aliased(self):
        source = skewed_source(
            NARROW_DOMAINS, measures=("m",),
            measure_sampler=lambda rng: (1.0,), seed=7,
        )
        batch = source.batch_columns(10, distinct=False)
        db1 = HiddenDatabase(source.schema)
        db2 = HiddenDatabase(source.schema)
        db1.insert_many(batch)
        db2.insert_many(batch)
        db1.update_measures(0, (99.0,))
        assert float(batch.measures[0, 0]) == 1.0  # caller's batch intact
        assert db2.store.get(0).measures == (1.0,)  # second db intact
        assert db1.store.get(0).measures == (99.0,)

    def test_sum_ground_truth_bit_identical_across_planes(self):
        import random as pyrandom

        from repro.core.aggregates import sum_measure

        mrng = pyrandom.Random(11)

        def truth(name):
            with plane(name):
                source = skewed_source(
                    NARROW_DOMAINS, measures=("m",),
                    measure_sampler=lambda rng: (rng.uniform(0, 1e16),),
                    seed=4,
                )
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(500, distinct=False))
                for _ in range(37):  # a scalar remainder after the block
                    db.insert(b"\x01\x00\x01", (mrng.uniform(0, 1e16),))
                return sum_measure(source.schema, "m").ground_truth(db)

        a = truth("vectorized")
        mrng = pyrandom.Random(11)
        b = truth("scalar")
        assert a == b  # bit-identical, not approx

    def test_random_tids_identical_across_planes(self):
        def population(name):
            with plane(name):
                source = skewed_source(NARROW_DOMAINS, seed=2)
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(500, distinct=False))
                db.delete(10)
                db.insert(b"\x01\x02\x01")
                return db.store.random_tids(random.Random(0), 50)

        assert population("vectorized") == population("scalar")


class TestBlockHeapSemantics:
    def _loaded_db(self, n=400):
        source = skewed_source(NARROW_DOMAINS, seed=7)
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(n, distinct=False))
        return db

    def test_get_materializes_block_rows(self):
        db = self._loaded_db()
        t = db.store.get(5)
        assert t.tid == 5
        assert isinstance(t.values, bytes) and len(t.values) == 3
        assert isinstance(t.score, float)

    def test_get_missing_raises_keyerror(self):
        db = self._loaded_db()
        with pytest.raises(KeyError):
            db.store.get(10_000)

    def test_delete_from_block(self):
        db = self._loaded_db(100)
        before = len(db)
        t = db.delete(17)
        assert t.tid == 17
        assert len(db) == before - 1
        assert 17 not in db.store
        with pytest.raises(KeyError):
            db.delete(17)

    def test_replace_updates_block_row_in_place(self):
        source = skewed_source(
            NARROW_DOMAINS, measures=("m",),
            measure_sampler=lambda rng: (1.0,), seed=7,
        )
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(50, distinct=False))
        updated = db.update_measures(3, (42.0,))
        assert updated.measures == (42.0,)
        assert db.store.get(3).measures == (42.0,)
        assert len(db) == 50
        # The row stays in its block, so heap iteration order (and with
        # it random_tids parity with the reference plane) is unchanged.
        assert [t.tid for t in db.tuples()] == list(range(50))

    def test_measure_score_batch_does_not_alias_measures(self):
        from repro.hiddendb import MeasureScore

        source = skewed_source(
            NARROW_DOMAINS, measures=("price",),
            measure_sampler=lambda rng: (10.0,), seed=7,
        )
        db = HiddenDatabase(source.schema, ranking=MeasureScore("price"))
        db.insert_many(source.batch_columns(30, distinct=False))
        db.update_measures(0, (99.0,))
        assert db.store.get(0).measures == (99.0,)
        # The score was assigned at insert time and must not change.
        assert db.store.get(0).score == 10.0

    def test_random_tids_parity_survives_measure_drift(self):
        def sample(name):
            with plane(name):
                source = skewed_source(
                    NARROW_DOMAINS, measures=("m",),
                    measure_sampler=lambda rng: (1.0,), seed=7,
                )
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(40, distinct=False))
                db.update_measures(3, (9.0,))
                db.update_measures(11, (8.0,))
                return db.store.random_tids(random.Random(7), 10)

        assert sample("vectorized") == sample("scalar")

    def test_out_of_order_batches_take_the_per_tuple_path(self):
        from repro.errors import SchemaError
        from repro.hiddendb.tuples import TupleBatch

        def batch(tids):
            n = len(tids)
            return TupleBatch(
                np.zeros((n, 3), dtype=np.uint8),
                np.empty((n, 0), dtype=np.float64),
                tids=np.array(tids), scores=np.zeros(n),
            )

        db = HiddenDatabase(skewed_source(NARROW_DOMAINS, seed=1).schema)
        db.store.insert_batch(batch([10, 20]))
        # Tids interleaving an existing block fall back to per-tuple
        # inserts (dict side), staying reachable and duplicate-checked.
        db.store.insert_batch(batch([12, 15]))
        assert len(db) == 4
        assert sorted(t.tid for t in db.tuples()) == [10, 12, 15, 20]
        assert db.store.get(20).tid == 20
        with pytest.raises(SchemaError):
            db.store.insert_batch(batch([15]))  # duplicate, either form
        with pytest.raises(SchemaError):
            db.store.insert_batch(batch([20]))
        db.store.insert_batch(batch([21, 30]))  # strictly above: block
        assert len(db) == 6

    def test_fully_dead_blocks_are_released(self):
        db = self._loaded_db(30)
        assert len(db.store._blocks) == 1
        for tid in range(30):
            db.delete(tid)
        assert len(db) == 0
        assert db.store._blocks == []
        db.insert(b"\x00\x00\x00")  # heap still functional afterwards
        assert len(db) == 1

    def test_duplicate_tid_rejected_across_heap_forms(self):
        from repro.errors import SchemaError
        from repro.hiddendb.tuples import TupleBatch

        db = self._loaded_db(20)
        with pytest.raises(SchemaError):
            db.insert(b"\x00\x00\x00", tid=5)
        batch = TupleBatch(
            np.zeros((2, 3), dtype=np.uint8),
            np.empty((2, 0), dtype=np.float64),
            tids=np.array([5, 100]),
            scores=np.zeros(2),
        )
        with pytest.raises(SchemaError):
            db.store.insert_batch(batch)

    def test_index_backfill_covers_blocks_and_dict(self):
        db = self._loaded_db(300)
        db.insert(b"\x00\x00\x00")
        index = db.store.ensure_index((0, 1, 2))
        assert len(index) == len(db) == 301

    def test_ground_truth_matches_scan_on_blocks(self):
        from repro.core.aggregates import count_all, count_where

        source = skewed_source(NARROW_DOMAINS, seed=4)
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(500, distinct=False))
        db.delete(0)
        spec = count_all()
        assert spec.ground_truth(db) == len(db) == 499
        where_spec = count_where(source.schema, {"A0": "A0_1"})
        expected = sum(1 for t in db.tuples() if t.values[0] == 1)
        assert where_spec.ground_truth(db) == expected
