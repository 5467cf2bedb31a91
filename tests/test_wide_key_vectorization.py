"""Wide-key (>64-bit schema) vectorization parity tests.

Wide-schema workloads (fig12's m=50 keys span ~157 bits) turn key ranges
into tids with :func:`repro.hiddendb.backends.mod_many`, the chunked
int64-limb modulo behind ``PrefixIndex.range_tids``.  It must equal the
per-key ``%`` loop for any modulus class (power of two, small, 48-bit
Horner, and the big-modulus double-and-add path covering the rest of
``[2**48, 2**63)``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Attribute, Schema
from repro.hiddendb import mod_many
from repro.hiddendb.store import PrefixIndex
from repro.hiddendb.tuples import make_tuple


# ----------------------------------------------------------------------
# mod_many: the chunked limb reduction vs the per-key loop
# ----------------------------------------------------------------------
MODULI = (
    1,
    2,
    7,
    2**16,
    2**31 - 1,        # largest "small" modulus (direct product path)
    2**31 + 11,       # forces the 16-bit-digit Horner multiply
    2**48,            # the default tid_span (power-of-two mask path)
    2**48 - 59,       # largest Horner-capable modulus class
    2**50 + 1,        # beyond the Horner bound: double-and-add path
    2**55 - 55,       # mid-band non-power-of-two (double-and-add)
    2**62 + 2**61 + 1,  # wide bit pattern high in the band
    2**63 - 25,       # largest supported non-power-of-two modulus
    12345678901234,
)


@pytest.mark.parametrize("modulus", MODULI)
def test_mod_many_matches_scalar_loop(modulus):
    rng = random.Random(modulus % 997)
    keys = [rng.randrange(2**200) for _ in range(500)]
    keys += [0, 1, modulus, modulus - 1 if modulus > 1 else 0, 2**63, 2**64]
    assert mod_many(keys, modulus).tolist() == [k % modulus for k in keys]


def test_mod_many_int64_arrays_and_empty_input():
    arr = np.array([0, 5, 17, 2**40], dtype=np.int64)
    assert mod_many(arr, 7).tolist() == [0, 5, 3, (2**40) % 7]
    assert mod_many([], 97).tolist() == []
    with pytest.raises(ValueError):
        mod_many([1], 0)


def test_mod_many_modulus_bound():
    # Remainders are int64, so moduli past 2**63 are rejected up front
    # instead of overflowing the output vector.
    with pytest.raises(ValueError):
        mod_many([5], 2**63 + 1)
    with pytest.raises(ValueError):
        mod_many([2**100], 2**70)
    # 2**63 itself is a power of two whose remainders still fit.
    keys = [2**64 + 3, 7, 2**63 - 1]
    assert mod_many(keys, 2**63).tolist() == [k % 2**63 for k in keys]
    arr = np.array([-1, 5, 2**62], dtype=np.int64)
    assert mod_many(arr, 2**63).tolist() == [
        int(v) % 2**63 for v in arr
    ]


def test_mod_many_rejects_negative_keys_on_the_limb_path():
    # Regression: a negative key used to hang the limb decomposition
    # (arithmetic shift converges to -1, never 0).
    with pytest.raises(ValueError):
        mod_many([-1, 5], 7)
    # The power-of-two mask path matches % for negatives, like int64.
    assert mod_many([-1, 5], 8).tolist() == [-1 % 8, 5 % 8]
    assert mod_many(np.array([-1, 5], dtype=np.int64), 7).tolist() == [
        -1 % 7, 5 % 7,
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**250), max_size=50),
    st.integers(min_value=1, max_value=2**52),
)
def test_mod_many_property_parity(keys, modulus):
    assert mod_many(keys, modulus).tolist() == [k % modulus for k in keys]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**250), max_size=50),
    st.integers(min_value=2**48, max_value=2**63 - 1),
)
def test_mod_many_big_modulus_band_parity(keys, modulus):
    # Regression: non-power-of-two moduli in [2**48, 2**63) used to drop
    # silently to the per-key scalar loop; the exact double-and-add
    # reduction now covers the whole band and must match % bit for bit.
    assert mod_many(keys, modulus).tolist() == [k % modulus for k in keys]


def test_mod_many_chunking_boundary():
    """Inputs longer than one chunk stay exact across the seams."""
    modulus = 2**31 + 11
    keys = [(i * 2**97 + i) for i in range(10000)]
    assert mod_many(keys, modulus).tolist() == [k % modulus for k in keys]


# ----------------------------------------------------------------------
# range_tids on a wide schema: vectorized twin of iter_tids
# ----------------------------------------------------------------------
# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize("rows", [600], ids=["blocked"])
def test_range_tids_parity_on_wide_schema(rows):
    schema = Schema([Attribute(f"A{i}", 2 + i % 5) for i in range(40)])
    index = PrefixIndex(schema, tuple(range(40)))
    assert not index.codec.fits_int64  # the wide path is what we test
    rng = random.Random(3)
    for tid in range(rows):
        values = bytes(rng.randrange(schema.attributes[a].size)
                       for a in range(40))
        index.add(make_tuple(tid, values, (), 0.5))
    for prefix in ([], [0], [1], [0, 1], [1, 2, 3]):
        vectorized = index.range_tids(prefix)
        assert vectorized.dtype == np.int64
        assert vectorized.tolist() == list(index.iter_tids(prefix))
