"""Storage-backend tests: packed-engine internals plus cross-backend parity.

The parity tests are the contract that makes backends swappable: the same
seeded insert/delete/query workload must produce identical query results —
statuses (overflow flags included), pages, and counts — on every backend.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Attribute, HiddenDatabase, Schema, SchemaError, TopKInterface
from repro.hiddendb import (
    PackedArrayBackend,
    available_backends,
    get_default_backend,
    make_backend,
    set_default_backend,
    using_backend,
)
from repro.hiddendb.query import ConjunctiveQuery
from repro.hiddendb.store import SortedKeyList


BACKENDS = ("blocked", "packed")


# ----------------------------------------------------------------------
# Registry / default management
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_engines_registered(self):
        assert available_backends() == BACKENDS

    def test_make_backend_types(self):
        assert isinstance(make_backend("blocked"), SortedKeyList)
        assert isinstance(make_backend("packed"), PackedArrayBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError):
            make_backend("btree9000")
        with pytest.raises(SchemaError):
            set_default_backend("btree9000")
        with pytest.raises(SchemaError):
            HiddenDatabase(Schema([Attribute("a", 2)]), backend="btree9000")

    def test_using_backend_scopes_default(self):
        before = get_default_backend()
        with using_backend("packed"):
            assert get_default_backend() == "packed"
            db = HiddenDatabase(Schema([Attribute("a", 2)]))
            assert db.backend == "packed"
        assert get_default_backend() == before

    def test_backend_visible_through_interface_and_session(self):
        from repro.hiddendb.session import QuerySession

        db = HiddenDatabase(Schema([Attribute("a", 2)]), backend="packed")
        interface = TopKInterface(db, k=3)
        session = QuerySession(interface)
        assert interface.backend == "packed"
        assert session.backend == "packed"


# ----------------------------------------------------------------------
# PackedArrayBackend internals
# ----------------------------------------------------------------------
class TestPackedArrayBackend:
    def test_empty(self):
        keys = PackedArrayBackend()
        assert len(keys) == 0
        assert keys.rank(10) == 0
        assert 5 not in keys
        assert list(keys.iter_range(0, 100)) == []

    def test_key_bound_selects_representation(self):
        assert PackedArrayBackend(key_bound=2**62).is_packed
        assert not PackedArrayBackend(key_bound=2**200).is_packed
        assert not PackedArrayBackend().is_packed

    def test_wide_keys_fall_back_to_list(self):
        keys = PackedArrayBackend(key_bound=2**200)
        huge = 2**180
        keys.add(huge)
        keys.add(huge + 1)
        assert keys.rank(huge + 1) == 1
        assert list(keys.iter_range(huge, huge + 2)) == [huge, huge + 1]

    def test_duplicates_and_remove(self):
        keys = PackedArrayBackend([3, 3], key_bound=100)
        keys.add(3)
        assert len(keys) == 3
        assert keys.count_range(3, 4) == 3
        keys.remove(3)
        assert keys.count_range(3, 4) == 2
        keys.check_invariants()

    def test_remove_missing_raises(self):
        keys = PackedArrayBackend([1, 3], key_bound=100)
        with pytest.raises(ValueError):
            keys.remove(2)
        keys.remove(1)
        with pytest.raises(ValueError):
            keys.remove(1)

    def test_deferred_delete_then_query(self):
        """Deletes buffered in the dead list stay invisible to queries."""
        keys = PackedArrayBackend(range(100), key_bound=1000, min_buffer=512)
        for value in range(0, 50, 2):
            keys.remove(value)
        assert keys._dead  # still buffered, not compacted
        assert len(keys) == 75
        assert keys.rank(50) == 25
        assert 4 not in keys
        assert 5 in keys
        assert list(keys.iter_range(0, 6)) == [1, 3, 5]
        keys.check_invariants()

    def test_compaction_round_trip(self):
        keys = PackedArrayBackend(key_bound=10**6, min_buffer=16)
        rng = random.Random(0)
        reference: list[int] = []
        for _ in range(3000):
            if reference and rng.random() < 0.45:
                victim = rng.choice(reference)
                reference.remove(victim)
                keys.remove(victim)
            else:
                value = rng.randrange(500)
                reference.append(value)
                keys.add(value)
        keys.check_invariants()
        assert list(keys) == sorted(reference)

    def test_rank_cache_invalidated_on_mutation(self):
        keys = PackedArrayBackend(range(10), key_bound=100)
        assert keys.rank(5) == 5
        keys.add(2)
        assert keys.rank(5) == 6
        keys.remove(2)
        keys.remove(2)
        assert keys.rank(5) == 4

    def test_bulk_ops(self):
        keys = PackedArrayBackend(key_bound=10**6)
        keys.bulk_add(range(0, 1000, 2))
        keys.bulk_add([1, 3, 5])
        keys.bulk_remove([0, 2, 4])
        keys.check_invariants()
        assert len(keys) == 500
        assert list(keys.iter_range(0, 7)) == [1, 3, 5, 6]
        with pytest.raises(ValueError):
            keys.bulk_remove([1, 999_999])

    def test_range_keys_zero_copy_and_buffered_paths(self):
        import numpy as np

        keys = PackedArrayBackend(range(0, 100, 2), key_bound=1000,
                                  min_buffer=512)
        clean = keys.range_keys(10, 30)
        assert isinstance(clean, np.ndarray)  # packed run slice
        assert clean.tolist() == list(range(10, 30, 2))
        keys.add(11)       # buffered tail key inside the range
        keys.remove(12)    # buffered dead key inside the range
        merged = keys.range_keys(10, 30)
        assert list(merged) == [10, 11, 14, 16, 18, 20, 22, 24, 26, 28]
        assert list(merged) == list(keys.iter_range(10, 30))
        assert list(keys.range_keys(30, 10)) == []

    def test_range_keys_wide_key_list_path(self):
        keys = PackedArrayBackend(key_bound=2**200, min_buffer=512)
        huge = 2**180
        keys.bulk_add([huge, huge + 2, huge + 4])
        assert keys.range_keys(huge, huge + 3) == [huge, huge + 2]
        assert keys.range_keys(huge + 5, huge) == []


# ----------------------------------------------------------------------
# Backend parity: same ops, same answers
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)),
        max_size=120,
    )
)
def test_backends_agree_on_random_op_streams(operations):
    """Both engines expose an identical multiset after any add/remove mix."""
    engines = {
        "blocked": make_backend("blocked", block_size=4),
        "packed": PackedArrayBackend(key_bound=64, min_buffer=8),
    }
    reference: list[int] = []
    for is_remove, value in operations:
        if is_remove and value in reference:
            reference.remove(value)
            for engine in engines.values():
                engine.remove(value)
        elif not is_remove:
            reference.append(value)
            for engine in engines.values():
                engine.add(value)
    reference.sort()
    for name, engine in engines.items():
        engine.check_invariants()
        assert list(engine) == reference, name
        assert len(engine) == len(reference), name
        for probe in (0, 7, 25, 51):
            expected = sum(1 for v in reference if v < probe)
            assert engine.rank(probe) == expected, name
        assert list(engine.iter_range(5, 30)) == [
            v for v in reference if 5 <= v < 30
        ], name
        # The array-native variant returns the same contents for any range.
        for lo, hi in ((5, 30), (0, 51), (10, 10), (30, 5)):
            assert list(engine.range_keys(lo, hi)) == list(
                engine.iter_range(lo, hi)
            ), name


def _seeded_churn(backend: str, rounds: int = 6):
    """One seeded insert/delete/query workload; returns observable outputs."""
    schema = Schema(
        [Attribute("a", 3), Attribute("b", 4), Attribute("c", 5)],
        measures=("m",),
    )
    db = HiddenDatabase(schema, backend=backend)
    interface = TopKInterface(db, k=4)
    interface.register_attr_order((0, 1, 2))
    rng = random.Random(99)
    observations = []
    for _ in range(rounds):
        db.insert_many(
            (
                bytes(
                    [rng.randrange(3), rng.randrange(4), rng.randrange(5)]
                ),
                (round(rng.uniform(1, 100), 2),),
            )
            for _ in range(120)
        )
        victims = db.store.random_tids(rng, 40)
        db.bulk_delete(victims)
        db.advance_round()
        for a in range(3):
            for predicates in (((0, a),), ((0, a), (1, a))):
                result = interface.search(ConjunctiveQuery(predicates))
                observations.append(
                    (
                        predicates,
                        result.status,
                        tuple(t.tid for t in result.tuples),
                    )
                )
    index = db.store.ensure_index((0, 1, 2))
    counts = tuple(
        index.count_prefix(prefix)
        for prefix in ([], [0], [1], [2], [0, 1], [2, 3], [1, 2, 4])
    )
    return observations, counts, len(db)


def test_backend_parity_on_seeded_churn_workload():
    """Identical seeded churn => identical statuses, pages and counts.

    RandomScore is seeded per database, so even the overflow pages (top-k
    by score) must match tuple for tuple — any divergence is a backend bug.
    """
    blocked = _seeded_churn("blocked")
    packed = _seeded_churn("packed")
    assert blocked[2] == packed[2]  # database size
    assert blocked[1] == packed[1]  # prefix counts
    for left, right in zip(blocked[0], packed[0]):
        # predicates, status (overflow flag), page tids
        assert left == right


# ----------------------------------------------------------------------
# Array-native bulk fast paths
# ----------------------------------------------------------------------
class TestArrayBulkPaths:
    """ndarray batches must behave exactly like iterable batches."""

    def _fresh(self, name):
        if name == "blocked":
            return SortedKeyList()
        return PackedArrayBackend(key_bound=2**40)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_array_bulk_add_matches_iterable(self, name):
        rng = random.Random(13)
        keys = [rng.randrange(0, 1000) for _ in range(500)]
        via_array = self._fresh(name)
        via_array.bulk_add(np.array(keys, dtype=np.int64))
        via_iter = self._fresh(name)
        via_iter.bulk_add(keys)
        via_array.check_invariants()
        assert list(via_array) == list(via_iter) == sorted(keys)
        assert len(via_array) == 500

    @pytest.mark.parametrize("name", BACKENDS)
    def test_array_bulk_remove_matches_iterable(self, name):
        rng = random.Random(29)
        keys = sorted(rng.randrange(0, 200) for _ in range(300))
        victims = rng.sample(keys, 120)
        via_array = self._fresh(name)
        via_array.bulk_add(np.array(keys, dtype=np.int64))
        via_array.bulk_remove(np.array(victims, dtype=np.int64))
        via_iter = self._fresh(name)
        via_iter.bulk_add(keys)
        via_iter.bulk_remove(victims)
        via_array.check_invariants()
        via_iter.check_invariants()
        assert list(via_array) == list(via_iter)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_array_bulk_remove_missing_raises_and_preserves(self, name):
        backend = self._fresh(name)
        backend.bulk_add(np.array([1, 3, 3, 7], dtype=np.int64))
        with pytest.raises(ValueError):
            backend.bulk_remove(np.array([3, 3, 3], dtype=np.int64))
        with pytest.raises(ValueError):
            backend.bulk_remove(np.array([2], dtype=np.int64))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_array_ops_interleave_with_scalar_ops(self, name):
        backend = self._fresh(name)
        backend.add(50)
        backend.bulk_add(np.arange(0, 100, 2, dtype=np.int64))
        backend.remove(50)
        backend.bulk_remove(np.arange(0, 50, 2, dtype=np.int64))
        backend.check_invariants()
        assert list(backend) == list(range(50, 100, 2))
        assert backend.rank(60) == 5
        assert backend.count_range(50, 60) == 5

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_array_batches_are_noops(self, name):
        backend = self._fresh(name)
        backend.bulk_add(np.empty(0, dtype=np.int64))
        backend.bulk_remove(np.empty(0, dtype=np.int64))
        assert len(backend) == 0

    def test_unpacked_engine_routes_array_to_generic_path(self):
        backend = PackedArrayBackend(key_bound=2**300)
        assert not backend.is_packed
        backend.bulk_add(np.array([5, 1, 5], dtype=np.int64))
        backend.check_invariants()
        assert list(backend) == [1, 5, 5]
        backend.bulk_remove(np.array([5, 5], dtype=np.int64))
        assert list(backend) == [1]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), max_size=80),
        st.data(),
    )
    def test_property_array_parity(self, keys, data):
        for name in BACKENDS:
            backend = self._fresh(name)
            backend.bulk_add(np.array(keys, dtype=np.int64))
            backend.check_invariants()
            assert list(backend) == sorted(keys)
            if keys:
                victims = data.draw(
                    st.lists(st.sampled_from(keys), max_size=len(keys)),
                    label=f"victims-{name}",
                )
                from collections import Counter

                removable = []
                budget = Counter(keys)
                for key in victims:
                    if budget[key] > 0:
                        budget[key] -= 1
                        removable.append(key)
                backend.bulk_remove(np.array(removable, dtype=np.int64))
                backend.check_invariants()
                assert list(backend) == sorted(budget.elements())
