"""Unit and property tests for the restrictive top-k search interface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    ConjunctiveQuery,
    HiddenDatabase,
    QueryStatus,
    Schema,
    TopKInterface,
)
from tests.conftest import fill_random


class TestStatuses:
    def test_underflow(self, small_schema):
        db = HiddenDatabase(small_schema)
        interface = TopKInterface(db, k=5)
        result = interface.search(ConjunctiveQuery.root())
        assert result.status is QueryStatus.UNDERFLOW
        assert result.tuples == ()

    def test_valid_returns_all_matches(self, small_schema):
        db = HiddenDatabase(small_schema)
        db.insert([0, 0, 0])
        db.insert([0, 1, 0])
        interface = TopKInterface(db, k=5)
        result = interface.search(ConjunctiveQuery.root())
        assert result.status is QueryStatus.VALID
        assert len(result) == 2

    def test_overflow_returns_exactly_k(self, small_interface):
        result = small_interface.search(ConjunctiveQuery.root())
        assert result.status is QueryStatus.OVERFLOW
        assert len(result.tuples) == small_interface.k

    def test_k_must_be_positive(self, small_db):
        with pytest.raises(ValueError):
            TopKInterface(small_db, k=0)


class TestRanking:
    def test_page_is_top_k_by_score(self, small_db):
        interface = TopKInterface(small_db, k=7)
        page = interface.search(ConjunctiveQuery.root()).tuples
        page_scores = [t.score for t in page]
        all_scores = sorted((t.score for t in small_db.tuples()), reverse=True)
        assert page_scores == all_scores[:7]

    def test_page_order_descending(self, small_db):
        interface = TopKInterface(small_db, k=7)
        page = interface.search(ConjunctiveQuery.root()).tuples
        assert list(page) == sorted(
            page, key=lambda t: (-t.score, t.tid)
        )


class TestStats:
    def test_counters(self, small_schema):
        db = HiddenDatabase(small_schema)
        db.insert([0, 0, 0])
        interface = TopKInterface(db, k=5)
        interface.search(ConjunctiveQuery.root())  # valid
        interface.search(ConjunctiveQuery([(0, 1)]))  # underflow
        assert interface.stats.queries == 2
        assert interface.stats.valid == 1
        assert interface.stats.underflow == 1

    def test_record_unit(self):
        """Direct unit coverage of the counter state machine."""
        from repro.hiddendb.interface import InterfaceStats

        stats = InterfaceStats()
        assert stats.to_dict() == {
            "queries": 0, "underflow": 0, "valid": 0, "overflow": 0,
        }
        for status, repeats in (
            (QueryStatus.VALID, 3),
            (QueryStatus.UNDERFLOW, 2),
            (QueryStatus.OVERFLOW, 4),
        ):
            for _ in range(repeats):
                stats.record(status)
        assert stats.to_dict() == {
            "queries": 9, "underflow": 2, "valid": 3, "overflow": 4,
        }
        assert stats.queries == (
            stats.underflow + stats.valid + stats.overflow
        )

    def test_tallies_identical_across_query_planes(self, small_schema):
        """The columnar plane classifies every query exactly like the
        scalar oracle, so the VALID/OVERFLOW/EMPTY tallies must match."""
        from repro.hiddendb.store import using_data_plane

        queries = [
            ConjunctiveQuery.root(),
            ConjunctiveQuery([(0, 0)]),
            ConjunctiveQuery([(0, 1), (1, 2)]),
            ConjunctiveQuery([(0, 1), (1, 2), (2, 3)]),
            ConjunctiveQuery([(2, 2)]),  # scan path
        ]

        def tallies(plane):
            with using_data_plane(plane):
                db = HiddenDatabase(small_schema)
                fill_random(db, 80, seed=4)
                interface = TopKInterface(db, k=6)
                interface.register_attr_order((0, 1, 2))
                for query in queries:
                    interface.search(query)
                return interface.stats.to_dict()

        columnar = tallies("vectorized")
        assert columnar == tallies("scalar")
        assert columnar["queries"] == len(queries)

    def test_session_exposes_interface_stats(self, open_session):
        open_session.search(ConjunctiveQuery.root())
        assert open_session.stats is open_session.interface.stats
        assert open_session.stats.queries == 1


class TestPrefixVsScan:
    def test_prefix_path_equals_scan_path(self, small_db):
        """The indexed evaluation must agree with the full-scan oracle."""
        indexed = TopKInterface(small_db, k=4)
        indexed.register_attr_order((0, 1, 2))
        scanning = TopKInterface(small_db, k=4)  # no index registered
        queries = [
            ConjunctiveQuery.root(),
            ConjunctiveQuery([(0, 0)]),
            ConjunctiveQuery([(0, 1), (1, 2)]),
            ConjunctiveQuery([(0, 1), (1, 2), (2, 3)]),
            ConjunctiveQuery([(1, 0)]),  # not a prefix: falls back to scan
        ]
        for query in queries:
            a = indexed.search(query)
            b = scanning.search(query)
            assert a.status == b.status, query
            assert [t.tid for t in a.tuples] == [t.tid for t in b.tuples]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(0, 3), min_size=0, max_size=3),
    st.randoms(use_true_random=False),
)
def test_indexed_matches_oracle_on_random_databases(n, k, raw_prefix, rnd):
    """Any prefix query: indexed result == naive full scan result."""
    schema = Schema(
        [Attribute("a", 2), Attribute("b", 3), Attribute("c", 4)]
    )
    db = HiddenDatabase(schema)
    fill_random(db, n, seed=rnd.randrange(10_000))
    sizes = schema.domain_sizes
    predicates = [
        (i, v % sizes[i]) for i, v in enumerate(raw_prefix)
    ]
    query = ConjunctiveQuery(predicates)
    indexed = TopKInterface(db, k=k)
    indexed.register_attr_order((0, 1, 2))
    scanning = TopKInterface(db, k=k)
    a = indexed.search(query)
    b = scanning.search(query)
    assert a.status == b.status
    assert [t.tid for t in a.tuples] == [t.tid for t in b.tuples]
