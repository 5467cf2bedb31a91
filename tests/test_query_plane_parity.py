"""Scalar-vs-columnar *query plane* parity.

PR 2 proved the load path byte-identical across data planes; this module
proves the same for the query path introduced with the columnar top-k
plane: for every page size and query class (empty, underfull,
overflowing, ad-hoc scan), the pages returned by the columnar plane —
tids, values, measures, scores, order, status — and the interface's
stats counters must match the scalar reference plane bit for bit, before
and after churn rounds.
"""

import random

import numpy as np
import pytest

from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.errors import StaleResultError
from repro.hiddendb import HiddenDatabase, TopKInterface
from repro.hiddendb.query import ConjunctiveQuery
from repro.hiddendb.store import using_data_plane

#: Narrow schema: int64 keys, a measure for SUM-path coverage.
NARROW_DOMAINS = [3, 4, 2]

#: Wide fig12-style schema: mixed-radix keys exceed 64 bits.
WIDE_DOMAINS = [2 + (i % 7) for i in range(20)]


def _page(result):
    return (
        result.status.value,
        [(t.tid, t.values, t.measures, t.score) for t in result.tuples],
    )


def _stats(interface):
    return interface.stats.to_dict()


def _narrow_queries():
    return [
        ConjunctiveQuery(()),                      # root
        ConjunctiveQuery(((0, 0),)),               # prefix depth 1
        ConjunctiveQuery(((0, 1),)),
        ConjunctiveQuery(((0, 2),)),               # possibly empty
        ConjunctiveQuery(((0, 0), (1, 2))),        # prefix depth 2
        ConjunctiveQuery(((0, 1), (1, 3), (2, 1))),  # leaf
        ConjunctiveQuery(((1, 0),)),               # ad-hoc: scan
        ConjunctiveQuery(((2, 1),)),               # ad-hoc: scan
        ConjunctiveQuery(((1, 3), (2, 0))),        # ad-hoc: scan, sparse
    ]


def _wide_queries():
    return [
        ConjunctiveQuery(()),
        ConjunctiveQuery(((0, 0),)),
        ConjunctiveQuery(((0, 1), (1, 2))),
        ConjunctiveQuery(((5, 1),)),               # ad-hoc: scan
    ]


def _run_workload(plane, domains, k, queries, n=2500, rounds=3):
    """Load, query, churn, and re-query one database under a plane."""
    with using_data_plane(plane):
        source = skewed_source(
            domains, exponent=0.5, seed=11, measures=("m",),
            measure_sampler=lambda rng: (rng.uniform(0.0, 100.0),),
        )
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(n, distinct=False))
        interface = TopKInterface(db, k=k)
        interface.register_attr_order(tuple(range(len(domains))))
        pages = [_page(interface.search(query)) for query in queries]
        schedule = FreshTupleSchedule(
            source, inserts_per_round=60, delete_fraction=0.02
        )
        schedule_rng = random.Random(23)
        for _ in range(rounds):
            apply_round(db, schedule, schedule_rng)
            db.advance_round()
            pages.extend(_page(interface.search(query)) for query in queries)
        return pages, _stats(interface)


class TestQueryPlaneParity:
    # Case ids are kept stable across releases so per-case results compare.
    @pytest.mark.parametrize(
        "k", [1, 10, 100], ids=["1-blocked", "10-blocked", "100-blocked"]
    )
    def test_pages_byte_identical_narrow(self, k):
        queries = _narrow_queries()
        columnar = _run_workload("vectorized", NARROW_DOMAINS, k, queries)
        scalar = _run_workload("scalar", NARROW_DOMAINS, k, queries)
        assert columnar == scalar

    @pytest.mark.parametrize("k", [1, 100], ids=["1-blocked", "100-blocked"])
    def test_pages_byte_identical_wide_keys(self, k):
        queries = _wide_queries()
        columnar = _run_workload(
            "vectorized", WIDE_DOMAINS, k, queries, n=1500, rounds=2
        )
        scalar = _run_workload(
            "scalar", WIDE_DOMAINS, k, queries, n=1500, rounds=2
        )
        assert columnar == scalar

    def test_underflow_and_valid_and_overflow_statuses(self):
        """The three status classes appear and agree on both planes."""
        queries = _narrow_queries()
        (_, stats_columnar) = _run_workload(
            "vectorized", NARROW_DOMAINS, 100, queries
        )
        (_, stats_scalar) = _run_workload(
            "scalar", NARROW_DOMAINS, 100, queries
        )
        assert stats_columnar == stats_scalar
        assert stats_columnar["overflow"] > 0
        assert stats_columnar["valid"] > 0

    def test_empty_database_underflows(self):
        for plane in ("vectorized", "scalar"):
            with using_data_plane(plane):
                source = skewed_source(NARROW_DOMAINS, seed=1)
                db = HiddenDatabase(source.schema)
                interface = TopKInterface(db, k=5)
                interface.register_attr_order((0, 1, 2))
                root = interface.search(ConjunctiveQuery(()))
                scan = interface.search(ConjunctiveQuery(((1, 1),)))
                assert root.underflow and root.tuples == ()
                assert scan.underflow and scan.tuples == ()

    def test_scan_parity_with_scalar_remainder(self):
        """Scan queries over a mixed heap (blocks + dict rows) agree."""

        def run(plane):
            with using_data_plane(plane):
                source = skewed_source(
                    NARROW_DOMAINS, seed=5, measures=("m",),
                    measure_sampler=lambda rng: (rng.uniform(0, 10),),
                )
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(300, distinct=False))
                db.insert([1, 2, 0], (3.5,))  # dict-side rows
                db.insert([1, 1, 1], (4.5,))
                db.delete(17)
                interface = TopKInterface(db, k=7)
                # No registered order: every query takes the scan path.
                return [
                    _page(interface.search(q)) for q in _narrow_queries()
                ], _stats(interface)

        assert run("vectorized") == run("scalar")


class TestDeferredPageSemantics:
    def _interface(self, n=200, k=5):
        source = skewed_source(
            NARROW_DOMAINS, seed=3, measures=("m",),
            measure_sampler=lambda rng: (1.0,),
        )
        db = HiddenDatabase(source.schema)
        db.insert_many(source.batch_columns(n, distinct=False))
        interface = TopKInterface(db, k=k)
        interface.register_attr_order((0, 1, 2))
        return db, interface

    def test_valid_result_len_does_not_materialize(self):
        with using_data_plane("vectorized"):
            _, interface = self._interface()
            result = interface.search(ConjunctiveQuery(((0, 0), (1, 3))))
            if result.valid:
                assert result.page is not None
                assert len(result) == result.page.matching
                assert result._tuples is None  # still deferred

    def test_stale_valid_page_read_raises(self):
        with using_data_plane("vectorized"):
            db, interface = self._interface(n=50, k=200)
            result = interface.search(ConjunctiveQuery(()))
            assert result.valid  # k exceeds the database size
            db.delete(0)  # mutate before the page is read
            with pytest.raises(StaleResultError):
                _ = result.tuples

    def test_overflow_page_reads_current_state_like_scalar(self):
        """Overflow loaders re-read at access time on BOTH planes, so a
        post-mutation read agrees across planes (leaf-overflow outcomes
        are consumed mid-round by the intra-round driver)."""

        def page_after_mutation(plane):
            with using_data_plane(plane):
                source = skewed_source(NARROW_DOMAINS, seed=3)
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(200, distinct=False))
                interface = TopKInterface(db, k=5)
                interface.register_attr_order((0, 1, 2))
                result = interface.search(ConjunctiveQuery(((0, 1),)))
                assert result.overflow
                db.delete(next(t.tid for t in db.tuples()
                               if t.values[0] == 1))
                db.insert([1, 0, 0])
                return _page(result)

        assert page_after_mutation("vectorized") == page_after_mutation(
            "scalar"
        )

    def test_scan_overflow_page_is_query_time_snapshot_like_scalar(self):
        """The scalar scan branch captures its matches eagerly and ranks
        lazily; the columnar plane must return the same page even when the
        top match is deleted between query and read."""

        def page_after_mutation(plane):
            with using_data_plane(plane):
                source = skewed_source(NARROW_DOMAINS, seed=3)
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(200, distinct=False))
                interface = TopKInterface(db, k=5)  # no index: scan path
                result = interface.search(ConjunctiveQuery(((0, 1),)))
                assert result.overflow
                victim = max(
                    (t for t in db.tuples() if t.values[0] == 1),
                    key=lambda t: (t.score, -t.tid),
                )
                db.delete(victim.tid)
                db.insert([1, 0, 0])
                return _page(result)

        assert page_after_mutation("vectorized") == page_after_mutation(
            "scalar"
        )

    def test_leaf_overflow_contribution_under_intra_round_hook(self):
        """Regression: a drill-down ending at an overflowing leaf has its
        page read AFTER the intra-round hook mutated the store; both
        planes must complete and agree."""
        from repro import QueryTree, count_all
        from repro.core.drilldown import drill_from_root
        from repro.hiddendb.session import QuerySession

        def run(plane):
            with using_data_plane(plane):
                source = skewed_source([2, 2], exponent=0.0, seed=1)
                db = HiddenDatabase(source.schema)
                db.insert_many(source.batch_columns(80, distinct=False))
                interface = TopKInterface(db, k=5)
                tree = QueryTree(db.schema)
                tree.register(interface)
                rng = random.Random(0)

                def mutate():
                    db.insert(
                        bytes(
                            rng.randrange(s)
                            for s in db.schema.domain_sizes
                        )
                    )

                session = QuerySession(interface, on_query=mutate)
                outcome = drill_from_root(
                    session, tree, tree.random_signature(rng)
                )
                assert outcome.leaf_overflow
                return count_all().contribution(outcome, tree)

        assert run("vectorized") == run("scalar")

    def test_freeze_pins_page_against_mutation(self):
        with using_data_plane("vectorized"):
            db, interface = self._interface(n=50, k=200)
            result = interface.search(ConjunctiveQuery(()))
            assert result.valid  # k exceeds the database size
            result.freeze()
            db.delete(0)
            # The frozen page reflects pre-mutation state: tid 0 is still
            # on it, and reading it does not raise.
            assert 0 in [t.tid for t in result.tuples]

    def test_advance_round_alone_keeps_pages_readable(self):
        with using_data_plane("vectorized"):
            db, interface = self._interface()
            result = interface.search(ConjunctiveQuery(((0, 1),)))
            db.advance_round()  # no content mutation
            assert len(result.tuples) == len(result)

    def test_page_order_matches_tie_break(self):
        with using_data_plane("vectorized"):
            _, interface = self._interface(k=100)
            result = interface.search(ConjunctiveQuery(()))
            page = result.tuples
            keys = [(-t.score, t.tid) for t in page]
            assert keys == sorted(keys)

    def test_gather_unsorted_input_preserves_order(self):
        with using_data_plane("vectorized"):
            db, _ = self._interface()
            tids = np.array([7, 3, 11, 5], dtype=np.int64)
            rows = db.store.gather(tids)
            assert rows.batch.tids.tolist() == [7, 3, 11, 5]
            for row, tid in enumerate(tids):
                assert rows.materialize_row(row).tid == int(tid)
