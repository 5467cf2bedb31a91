"""SortedKeyList tests: ndarray bulk paths and a reference-list oracle.

The key list behind every prefix index must hold exactly the multiset a
plain sorted Python list would after any add/remove mix, and its
``np.ndarray`` bulk fast paths must behave exactly like iterable batches.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hiddendb.store import DEFAULT_BLOCK_SIZE, SortedKeyList

#: The default block layout, under the case id these tests have always had.
DEFAULT_LAYOUT = pytest.mark.parametrize(
    "block_size", [DEFAULT_BLOCK_SIZE], ids=["blocked"]
)


# ----------------------------------------------------------------------
# Reference-list oracle: same ops, same answers
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)),
        max_size=120,
    )
)
def test_backends_agree_on_random_op_streams(operations):
    """The key list matches a sorted reference list after any add/remove
    mix."""
    keys = SortedKeyList(block_size=4)
    reference: list[int] = []
    for is_remove, value in operations:
        if is_remove and value in reference:
            reference.remove(value)
            keys.remove(value)
        elif not is_remove:
            reference.append(value)
            keys.add(value)
    reference.sort()
    keys.check_invariants()
    assert list(keys) == reference
    assert len(keys) == len(reference)
    for probe in (0, 7, 25, 51):
        assert keys.rank(probe) == sum(1 for v in reference if v < probe)
    assert list(keys.iter_range(5, 30)) == [
        v for v in reference if 5 <= v < 30
    ]
    # The array-native variant returns the same contents for any range.
    for lo, hi in ((5, 30), (0, 51), (10, 10), (30, 5)):
        assert list(keys.range_keys(lo, hi)) == list(keys.iter_range(lo, hi))


# ----------------------------------------------------------------------
# Array-native bulk fast paths
# ----------------------------------------------------------------------
class TestArrayBulkPaths:
    """ndarray batches must behave exactly like iterable batches."""

    @DEFAULT_LAYOUT
    def test_array_bulk_add_matches_iterable(self, block_size):
        rng = random.Random(13)
        keys = [rng.randrange(0, 1000) for _ in range(500)]
        via_array = SortedKeyList(block_size=block_size)
        via_array.bulk_add(np.array(keys, dtype=np.int64))
        via_iter = SortedKeyList(block_size=block_size)
        via_iter.bulk_add(keys)
        via_array.check_invariants()
        assert list(via_array) == list(via_iter) == sorted(keys)
        assert len(via_array) == 500

    @DEFAULT_LAYOUT
    def test_array_bulk_remove_matches_iterable(self, block_size):
        rng = random.Random(29)
        keys = sorted(rng.randrange(0, 200) for _ in range(300))
        victims = rng.sample(keys, 120)
        via_array = SortedKeyList(block_size=block_size)
        via_array.bulk_add(np.array(keys, dtype=np.int64))
        via_array.bulk_remove(np.array(victims, dtype=np.int64))
        via_iter = SortedKeyList(block_size=block_size)
        via_iter.bulk_add(keys)
        via_iter.bulk_remove(victims)
        via_array.check_invariants()
        via_iter.check_invariants()
        assert list(via_array) == list(via_iter)

    @DEFAULT_LAYOUT
    def test_array_bulk_remove_missing_raises_and_preserves(self, block_size):
        keys = SortedKeyList(block_size=block_size)
        keys.bulk_add(np.array([1, 3, 3, 7], dtype=np.int64))
        with pytest.raises(ValueError):
            keys.bulk_remove(np.array([3, 3, 3], dtype=np.int64))
        with pytest.raises(ValueError):
            keys.bulk_remove(np.array([2], dtype=np.int64))

    @DEFAULT_LAYOUT
    def test_array_ops_interleave_with_scalar_ops(self, block_size):
        keys = SortedKeyList(block_size=block_size)
        keys.add(50)
        keys.bulk_add(np.arange(0, 100, 2, dtype=np.int64))
        keys.remove(50)
        keys.bulk_remove(np.arange(0, 50, 2, dtype=np.int64))
        keys.check_invariants()
        assert list(keys) == list(range(50, 100, 2))
        assert keys.rank(60) == 5
        assert keys.count_range(50, 60) == 5

    @DEFAULT_LAYOUT
    def test_empty_array_batches_are_noops(self, block_size):
        keys = SortedKeyList(block_size=block_size)
        keys.bulk_add(np.empty(0, dtype=np.int64))
        keys.bulk_remove(np.empty(0, dtype=np.int64))
        assert len(keys) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), max_size=80),
        st.data(),
    )
    def test_property_array_parity(self, keys, data):
        key_list = SortedKeyList()
        key_list.bulk_add(np.array(keys, dtype=np.int64))
        key_list.check_invariants()
        assert list(key_list) == sorted(keys)
        if keys:
            victims = data.draw(
                st.lists(st.sampled_from(keys), max_size=len(keys)),
                label="victims",
            )
            removable = []
            budget = Counter(keys)
            for key in victims:
                if budget[key] > 0:
                    budget[key] -= 1
                    removable.append(key)
            key_list.bulk_remove(np.array(removable, dtype=np.int64))
            key_list.check_invariants()
            assert list(key_list) == sorted(budget.elements())
