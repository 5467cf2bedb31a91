"""Key-vector helpers behind the prefix indexes' sorted key multisets.

Every estimator round bottoms out in rank and range queries over the
sorted key multiset of a :class:`~repro.hiddendb.store.PrefixIndex`, held
by a :class:`~repro.hiddendb.store.SortedKeyList`.  This module holds the
vectorized arithmetic those two classes share:

* :func:`mod_many` — ``key % modulus`` over a whole key vector, exact for
  mixed-radix keys wider than 64 bits (``PrefixIndex.range_tids`` uses it
  to turn a key range into tids);
* :func:`_as_int64_batch` / :func:`_sorted_multiset_subtract` — the
  ndarray fast paths of ``SortedKeyList.bulk_add`` / ``bulk_remove``;
* :data:`DEFAULT_BLOCK_SIZE` — the ``SortedKeyList`` block size.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

#: Target number of keys per ``SortedKeyList`` block; blocks split at
#: twice this size.
DEFAULT_BLOCK_SIZE = 1024

#: Largest key an int64 vector can hold.
_INT64_MAX = 2**63 - 1

#: One 63-bit limb of a wide (>= 2**63) key.
_LIMB_BITS = 63
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Keys are processed this many at a time by the chunked big-int helpers,
#: bounding the transient object arrays they allocate.
_CHUNK = 8192

#: Largest modulus the 16-bit-digit modular multiply stays exact in
#: uint64 for; moduli in ``[2**48, 2**63)`` switch to the double-and-add
#: multiply (:func:`_mulmod_big_vec`).
_MOD_MANY_BOUND = 1 << 48


def _mulmod_scalar_vec(
    values: np.ndarray, factor: int, modulus: int
) -> np.ndarray:
    """``(values * factor) % modulus`` exactly, for uint64 ``values`` and a
    scalar ``factor``, both already reduced mod ``modulus < 2**48``.

    ``factor`` is split into 16-bit digits so every intermediate product
    stays below 2**64 (``values < 2**48``, digit ``< 2**16``) — Horner over
    the digits then reduces after each step.
    """
    if modulus < 1 << 31:
        # Direct product fits: values < 2**31, factor < 2**31.
        return (values * np.uint64(factor)) % np.uint64(modulus)
    m = np.uint64(modulus)
    out = np.zeros_like(values)
    started = False
    for shift in (32, 16, 0):
        digit = (factor >> shift) & 0xFFFF
        if started:
            out = ((out << np.uint64(16)) % m + (values * np.uint64(digit)) % m) % m
        elif digit:
            out = (values * np.uint64(digit)) % m
            started = True
    return out


def _mulmod_big_vec(
    values: np.ndarray, factor: int, modulus: int
) -> np.ndarray:
    """``(values * factor) % modulus`` exactly, for uint64 ``values`` and
    a scalar ``factor``, both already reduced mod ``modulus < 2**63``.

    The digit split of :func:`_mulmod_scalar_vec` stops being exact once
    ``modulus`` reaches 2**48, so this band multiplies by binary
    double-and-add instead: every intermediate stays below ``modulus``,
    which keeps both the doubling (``2 * acc < 2**64``) and the
    conditional add (``acc + values < 2**64``) exact in uint64.  Costs
    ~2 vector ops per factor bit — fine for the rare non-power-of-two
    ``tid_span`` configurations that reach it.
    """
    m = np.uint64(modulus)
    one = np.uint64(1)
    acc = np.zeros_like(values)
    started = False
    for bit in bin(factor)[2:]:
        if started:
            acc = (acc << one) % m
        if bit == "1":
            acc = (acc + values) % m
            started = True
    return acc


def _object_chunks(keys: Sequence[int]) -> Iterator[np.ndarray]:
    """The keys as object-dtype chunks (C-dispatched big-int arithmetic)."""
    for start in range(0, len(keys), _CHUNK):
        yield np.array(keys[start : start + _CHUNK], dtype=object)


def _limbs_of(chunk: np.ndarray) -> list[np.ndarray]:
    """63-bit limbs of a non-negative big-int chunk, least significant
    first, each as an int64 vector.  No per-key Python-bytecode loop: the
    mask/shift/convert steps are all C-dispatched object-array ufuncs."""
    limbs: list[np.ndarray] = []
    remaining = chunk
    while True:
        limbs.append((remaining & _LIMB_MASK).astype(np.int64))
        remaining = remaining >> _LIMB_BITS
        if not remaining.any():
            return limbs


def mod_many(keys, modulus: int) -> np.ndarray:
    """``key % modulus`` for every key, as an int64 vector.

    The vectorized twin of ``[key % modulus for key in keys]`` for key
    schemas wider than 64 bits: keys are processed in chunks, decomposed
    into int64 limbs with object-array arithmetic (one C-dispatched ufunc
    per limb instead of a Python-bytecode loop per key), and recombined
    with an exact modular Horner evaluation.  Power-of-two moduli — the
    default ``tid_span`` is ``2**48`` — reduce to a single masked low
    limb.  Non-power-of-two moduli pick the modular multiply that stays
    exact for their size: 16-bit digit splitting below ``2**48``
    (:func:`_mulmod_scalar_vec`), binary double-and-add for
    ``[2**48, 2**63)`` (:func:`_mulmod_big_vec`).  Above ``2**63`` the
    remainders themselves stop fitting the int64 result vector, so the
    modulus is rejected outright.

    Parity with the scalar loop is property-tested
    (``tests/test_wide_key_vectorization.py``).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus > 1 << 63:
        raise ValueError(
            "mod_many returns int64 remainders; modulus must be <= 2**63"
        )
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if modulus > _INT64_MAX:
            # modulus == 2**63 (guarded above): a power of two one past
            # int64, so the two's-complement mask is the exact remainder.
            return np.asarray(keys, dtype=np.int64) & (modulus - 1)
        return np.asarray(keys, dtype=np.int64) % modulus
    n = len(keys)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    power_of_two = modulus & (modulus - 1) == 0
    mulmod = (
        _mulmod_scalar_vec if modulus < _MOD_MANY_BOUND else _mulmod_big_vec
    )
    position = 0
    base_mod = pow(2, _LIMB_BITS, modulus) if not power_of_two else 0
    for chunk in _object_chunks(keys):
        stop = position + len(chunk)
        if power_of_two:
            # key % 2**j == low limb % 2**j for j <= 63: truncation keeps
            # every bit the mask can see (and, like ``%``, a two's
            # complement ``&`` maps negatives into [0, 2**j)).
            out[position:stop] = (chunk & (modulus - 1)).astype(np.int64)
        else:
            if (chunk < 0).any():
                # The limb decomposition would loop forever on a negative
                # key (arithmetic shift converges to -1, never 0); keys
                # are non-negative by construction everywhere in the repo.
                raise ValueError("mod_many requires non-negative keys")
            limbs = _limbs_of(chunk)
            acc = np.zeros(len(chunk), dtype=np.uint64)
            m = np.uint64(modulus)
            for limb in reversed(limbs):
                acc = mulmod(acc, base_mod, modulus)
                acc = (acc + limb.astype(np.uint64) % m) % m
            out[position:stop] = acc.astype(np.int64)
        position = stop
    return out


def _as_int64_batch(keys) -> np.ndarray | None:
    """The keys as an int64 vector if they arrived as an integer ndarray.

    Non-integer arrays (floats, bools, objects) fall through to the
    generic iterable path so their per-key semantics stay identical.
    """
    if isinstance(keys, np.ndarray) and np.issubdtype(
        keys.dtype, np.integer
    ):
        return np.asarray(keys, dtype=np.int64)
    return None


def _sorted_multiset_subtract(
    existing: np.ndarray, batch: np.ndarray, owner: str
) -> np.ndarray:
    """Remove the sorted ``batch`` multiset from sorted ``existing``.

    Occurrence ``j`` of a key in ``batch`` cancels the ``j``-th occurrence
    of that key in ``existing`` — pure searchsorted arithmetic, no Python
    loop.  Raises ``ValueError`` (and leaves both inputs untouched) when a
    batch key has no remaining occurrence.
    """
    n = len(existing)
    positions = np.searchsorted(existing, batch, side="left")
    occurrence = np.arange(len(batch)) - np.searchsorted(
        batch, batch, side="left"
    )
    remove_positions = positions + occurrence
    out_of_range = remove_positions >= n
    if out_of_range.any():
        bad = out_of_range
        bad[~out_of_range] = (
            existing[remove_positions[~out_of_range]] != batch[~out_of_range]
        )
    else:
        bad = existing[remove_positions] != batch
    if bad.any():
        missing = int(batch[int(np.argmax(bad))])
        raise ValueError(f"key {missing} not in {owner}")
    keep = np.ones(n, dtype=bool)
    keep[remove_positions] = False
    return existing[keep]
