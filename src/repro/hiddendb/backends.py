"""Pluggable key-storage backends for the prefix indexes.

Every estimator round bottoms out in rank and range queries over the sorted
key multiset of a :class:`~repro.hiddendb.store.PrefixIndex`, so the engine
behind that multiset bounds the throughput of every figure benchmark.  This
module separates the *query interface* (:class:`StorageBackend`) from the
*storage engine* so engines can be swapped per database, per experiment, or
globally (the ``--backend`` CLI flag and the ``REPRO_BENCH_BACKEND``
benchmark knob).

Two engines ship:

* ``"blocked"`` — :class:`~repro.hiddendb.store.SortedKeyList`, the seed's
  blocked sorted list: O(sqrt n) point updates, O(log n + #blocks) rank.
  Registered by :mod:`repro.hiddendb.store` to avoid a circular import.
* ``"packed"`` — :class:`PackedArrayBackend` below: one large sorted run
  (a packed ``array('q')`` when the key universe fits 64 bits, a plain list
  otherwise) plus small sorted insert/delete buffers that are lazily merged
  back into the run.  Rank is O(log n) regardless of size, bulk loads sort
  once instead of paying per-key insertion, and repeated rank probes — the
  prefix-conjunction workload issues the same node boundaries over and over
  — hit an amortized rank cache that is invalidated on mutation.

**Reader-concurrency contract** (all shipped engines): any number of
threads may issue read-only calls (``rank`` / ``count_range`` /
``iter_range`` / ``range_keys`` / ``__contains__`` / ``__len__`` /
iteration) concurrently — internal read-side caches (rank caches, the
wide-run probe array) are only ever *added to* by readers, which is safe
under the GIL, and compactions replace runs instead of mutating them, so
a view handed out by ``range_keys`` stays a valid snapshot.  Mutations
(``add`` / ``remove`` / ``bulk_*``) must be externally serialized against
both readers and other writers; the engine facade's round barrier
(:meth:`repro.api.Engine.run_round` vs ``apply_updates``) provides that
serialization.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from heapq import merge as heap_merge
from typing import (
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..errors import SchemaError
from ..obs import OBS

#: Target number of keys per block for blocked engines; blocks split at
#: twice this size.
DEFAULT_BLOCK_SIZE = 1024

# Observability handles, created once at import: rank() and the bulk merge
# paths are the hottest code in the tree, so the enabled check is the only
# per-call cost and the registry lock is never touched here.
_PACKED_HITS = OBS.counter(
    "repro_rank_cache_hits_total", {"backend": "packed"}
)
_PACKED_MISSES = OBS.counter(
    "repro_rank_cache_misses_total", {"backend": "packed"}
)
_PACKED_COMPACTIONS = OBS.counter(
    "repro_backend_compactions_total", {"backend": "packed"}
)
_MERGE_ADD_ROWS = OBS.histogram("repro_bulk_merge_rows", {"op": "add"})
_MERGE_REMOVE_ROWS = OBS.histogram("repro_bulk_merge_rows", {"op": "remove"})
_PACKED_REFREEZE_REUSED = OBS.counter(
    "repro_epoch_refreeze_reused_total", {"backend": "packed"}
)

#: Largest key a packed ``array('q')`` run can hold.
_INT64_MAX = 2**63 - 1

#: Entries kept in the rank cache before it stops growing (safety valve;
#: the cache is cleared on every mutation anyway).
_RANK_CACHE_LIMIT = 65536

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


def shift_many(keys: Sequence[int], shift: int) -> np.ndarray:
    """``key >> shift`` for every key, as an int64 vector (chunked
    object-array shifts — the construction path of the wide-run probe
    array).  Every shifted value must fit int64; callers guarantee that by
    deriving ``shift`` from the key universe's bit length."""
    n = len(keys)
    out = np.empty(n, dtype=np.int64)
    position = 0
    for chunk in _object_chunks(keys):
        stop = position + len(chunk)
        out[position:stop] = (chunk >> shift).astype(np.int64)
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


@runtime_checkable
class StorageBackend(Protocol):
    """A sorted multiset of integers — the contract prefix indexes query.

    Implementations must support duplicate keys and raise ``ValueError``
    from :meth:`remove` / :meth:`bulk_remove` when a key is absent.

    :meth:`range_keys` (the array-native ``iter_range``, feeding the
    columnar query plane) is part of the contract and implemented by both
    shipped engines; :meth:`PrefixIndex.range_tids
    <repro.hiddendb.store.PrefixIndex.range_tids>` degrades gracefully to
    ``iter_range`` for third-party engines that predate it, at per-key
    cost.
    """

    def add(self, key: int) -> None: ...

    def remove(self, key: int) -> None: ...

    def bulk_add(self, keys: Iterable[int]) -> None: ...

    def bulk_remove(self, keys: Iterable[int]) -> None: ...

    def rank(self, key: int) -> int: ...

    def count_range(self, lo: int, hi: int) -> int: ...

    def iter_range(self, lo: int, hi: int) -> Iterator[int]: ...

    def range_keys(self, lo: int, hi: int) -> "np.ndarray | list[int]": ...

    def __len__(self) -> int: ...

    def __contains__(self, key: int) -> bool: ...

    def __iter__(self) -> Iterator[int]: ...

    def check_invariants(self) -> None: ...


class PackedArrayBackend:
    """Sorted-run storage engine with buffered mutations and rank caching.

    Layout:

    * ``_run`` — the main sorted run.  Packed into an ``array('q')`` when
      ``key_bound`` (the exclusive upper bound of the key universe, known
      to the prefix index from its radices) fits in a signed 64-bit word;
      mixed-radix keys of wide schemas exceed that, in which case the run
      falls back to a flat Python list — still O(log n) rank via bisect.
    * ``_tail`` — small sorted list of keys added since the last compaction.
    * ``_dead`` — small sorted multiset of keys deleted from the run but not
      yet physically removed (every dead key has a matching live occurrence
      in the run; tail deletions are applied immediately).

    ``rank(key)`` is then ``bisect(run) + bisect(tail) - bisect(dead)``.
    When the buffers outgrow ``max(min_buffer, len(run) / 8)`` they are
    merged back into a fresh run — O(n), amortized O(1) per mutation.

    Wide-key runs (key universe beyond int64, so the run is a plain list
    of Python big ints) additionally keep a *probe array*: the int64
    vector of every run key's top 63 bits, rebuilt at each compaction.  A
    rank probe then narrows to the (typically tiny) equal-top-bits window
    with two C-speed ``np.searchsorted`` calls before the exact big-int
    bisect — replacing ~log2(n) arbitrary-precision comparisons per probe
    with two int64 binary searches, the ``count_prefix`` hot spot of
    wide-schema workloads like fig12's m=50.
    """

    __slots__ = ("_run", "_tail", "_dead", "_size", "_packed", "_min_buffer",
                 "_rank_cache", "_key_bound", "_hi_shift", "_run_hi",
                 "_freeze_rev", "_frozen_rev", "_frozen_view",
                 "_buffers_shared")

    def __init__(
        self,
        keys: Iterable[int] = (),
        key_bound: int | None = None,
        min_buffer: int = 256,
    ):
        self._packed = key_bound is not None and 0 <= key_bound <= _INT64_MAX
        self._min_buffer = min_buffer
        self._key_bound = key_bound
        self._freeze_rev = 0
        self._frozen_rev = -1
        self._frozen_view = None
        self._buffers_shared = False
        # Wide-key probe plan: shift every key so the result fits int64.
        if key_bound is not None and not self._packed:
            self._hi_shift = max(0, int(key_bound).bit_length() - 63)
        else:
            self._hi_shift = 0
        self._run_hi: np.ndarray | None = None
        self._install_run(sorted(keys))
        self._tail: list[int] = []
        self._dead: list[int] = []
        self._size = len(self._run)
        self._rank_cache: dict[int, int] = {}

    @property
    def is_packed(self) -> bool:
        """True when the main run is a 64-bit packed array."""
        return self._packed

    def _new_run(self, sorted_keys):
        if self._packed:
            return array("q", sorted_keys)
        return list(sorted_keys)

    def _install_run(self, sorted_keys) -> None:
        """Replace the main run (and rebuild the wide-key probe array)."""
        self._run = self._new_run(sorted_keys)
        if self._hi_shift and len(self._run) >= 64:
            self._run_hi = shift_many(self._run, self._hi_shift)
        else:
            self._run_hi = None

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _buffer_limit(self) -> int:
        return max(self._min_buffer, len(self._run) >> 3)

    def _dirty(self) -> None:
        self._freeze_rev += 1
        if self._rank_cache:
            self._rank_cache.clear()

    def _privatize_buffers(self) -> None:
        """Copy-on-write the tail/dead buffers a frozen view shares.

        :meth:`_snapshot_view` hands the *live* buffer lists to the frozen
        clone by reference (an O(1) publish flip); the first in-place
        buffer mutation afterwards must therefore copy them so the
        immutable epoch never observes post-flip churn.  Rebinding
        assignments (``self._tail = ...``) are always safe and skip this.
        """
        if self._buffers_shared:
            self._tail = list(self._tail)
            self._dead = list(self._dead)
            self._buffers_shared = False

    def _maybe_compact(self) -> None:
        if len(self._tail) + len(self._dead) > self._buffer_limit():
            self._compact()

    def _compact(self) -> None:
        """Merge the tail into the run and drop dead keys (O(n))."""
        if not (self._tail or self._dead):
            return
        if OBS.enabled:
            _PACKED_COMPACTIONS.inc()
        if self._packed:
            # One vectorized multiset-subtract + concatenate-sort instead
            # of a per-key Python heap walk over the whole run.
            self._replace_run(self._live_array())
            return
        self._install_run(
            list(heap_merge(self._iter_live_run(), self._tail))
        )
        self._tail = []
        self._dead = []

    def add(self, key: int) -> None:
        """Insert ``key`` keeping order; duplicates are allowed."""
        self._privatize_buffers()
        insort(self._tail, key)
        self._size += 1
        self._dirty()
        self._maybe_compact()

    def bulk_add(self, keys: Iterable[int]) -> None:
        """Insert a batch in one sort+merge instead of per-key insertion.

        A numeric ``np.ndarray`` batch takes a fully vectorized path on
        packed runs: one ``np.sort`` merge into a fresh run, no
        per-element Python calls.
        """
        array_batch = _as_int64_batch(keys)
        if array_batch is not None:
            if OBS.enabled and len(array_batch):
                _MERGE_ADD_ROWS.observe(len(array_batch))
            if self._packed and len(array_batch) * 8 >= len(self._run):
                self._bulk_add_array(array_batch)
                return
            keys = array_batch.tolist()
        batch = sorted(keys)
        if not batch:
            return
        if OBS.enabled and array_batch is None:
            _MERGE_ADD_ROWS.observe(len(batch))
        if self._tail:
            self._tail = list(heap_merge(self._tail, batch))
        else:
            self._tail = batch
        self._size += len(batch)
        self._dirty()
        self._maybe_compact()

    def _live_array(self) -> np.ndarray:
        """All live keys (run − dead, merged with tail) as sorted int64."""
        if len(self._run):
            run = np.frombuffer(self._run, dtype=np.int64)
        else:
            run = np.empty(0, dtype=np.int64)
        if self._dead:
            run = _sorted_multiset_subtract(
                run, np.asarray(self._dead, dtype=np.int64),
                type(self).__name__,
            )
        if self._tail:
            run = np.concatenate(
                [run, np.asarray(self._tail, dtype=np.int64)]
            )
            run.sort()
        return run

    def _replace_run(self, merged: np.ndarray) -> None:
        new_run = array("q")
        new_run.frombytes(merged.astype(np.int64, copy=False).tobytes())
        self._run = new_run
        self._tail = []
        self._dead = []
        self._size = len(merged)
        self._dirty()

    def _bulk_add_array(self, batch: np.ndarray) -> None:
        if not len(batch):
            return
        merged = np.concatenate([self._live_array(), batch])
        merged.sort()
        self._replace_run(merged)

    def _remove_one(self, key: int) -> None:
        self._privatize_buffers()
        position = bisect_left(self._tail, key)
        if position < len(self._tail) and self._tail[position] == key:
            del self._tail[position]
        elif self._count(self._run, key) - self._count(self._dead, key) > 0:
            insort(self._dead, key)
        else:
            raise ValueError(f"key {key} not in PackedArrayBackend")
        self._size -= 1
        self._dirty()

    def remove(self, key: int) -> None:
        """Remove one occurrence of ``key``; raise ``ValueError`` if absent."""
        self._remove_one(key)
        self._maybe_compact()

    def bulk_remove(self, keys: Iterable[int]) -> None:
        """Remove a batch, deferring physical deletion to one compaction.

        A numeric ``np.ndarray`` batch on a packed run is subtracted with
        one vectorized multiset pass and a run rebuild.
        """
        array_batch = _as_int64_batch(keys)
        if array_batch is not None:
            if OBS.enabled and len(array_batch):
                _MERGE_REMOVE_ROWS.observe(len(array_batch))
            if self._packed and len(array_batch) * 8 >= len(self._run):
                self._bulk_remove_array(array_batch)
                return
            keys = array_batch.tolist()
        batch = sorted(keys)
        if OBS.enabled and array_batch is None and batch:
            _MERGE_REMOVE_ROWS.observe(len(batch))
        for key in batch:
            self._remove_one(key)
        self._maybe_compact()

    def _bulk_remove_array(self, batch: np.ndarray) -> None:
        if not len(batch):
            return
        survivors = _sorted_multiset_subtract(
            self._live_array(), np.sort(batch), type(self).__name__
        )
        self._replace_run(survivors)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @staticmethod
    def _count(seq, key: int) -> int:
        return bisect_right(seq, key) - bisect_left(seq, key)

    def __contains__(self, key: int) -> bool:
        if self._count(self._tail, key):
            return True
        return self._count(self._run, key) - self._count(self._dead, key) > 0

    def _run_bisect(self, key: int) -> int:
        """``bisect_left`` over the main run, probe-accelerated when wide.

        Keys sharing the same top 63 bits form a contiguous window of the
        run; two int64 ``searchsorted`` probes locate it and the exact
        big-int bisect only runs inside.  Truncation is monotone, so the
        window bounds are exact.
        """
        run_hi = self._run_hi
        if run_hi is not None and 0 <= key < self._key_bound:
            probe = key >> self._hi_shift
            lo = int(np.searchsorted(run_hi, probe, side="left"))
            hi = int(np.searchsorted(run_hi, probe, side="right"))
            return bisect_left(self._run, key, lo, hi)
        return bisect_left(self._run, key)

    def rank(self, key: int) -> int:
        """Number of stored keys strictly smaller than ``key``."""
        cached = self._rank_cache.get(key)
        if cached is not None:
            if OBS.enabled:
                _PACKED_HITS.inc()
            return cached
        if OBS.enabled:
            _PACKED_MISSES.inc()
        value = (
            self._run_bisect(key)
            + bisect_left(self._tail, key)
            - bisect_left(self._dead, key)
        )
        if len(self._rank_cache) < _RANK_CACHE_LIMIT:
            self._rank_cache[key] = value
        return value

    def count_range(self, lo: int, hi: int) -> int:
        """Number of keys in the half-open interval ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self.rank(hi) - self.rank(lo)

    def _iter_live_run(self, lo: int | None = None, hi: int | None = None):
        """Run keys in ``[lo, hi)`` minus their dead occurrences.

        Dead keys pair with run occurrences count-for-count, and both
        sequences are sorted, so a single forward walk cancels them.
        """
        run, dead = self._run, self._dead
        start = 0 if lo is None else bisect_left(run, lo)
        dead_position = 0 if lo is None else bisect_left(dead, lo)
        dead_length = len(dead)
        for position in range(start, len(run)):
            key = run[position]
            if hi is not None and key >= hi:
                return
            if dead_position < dead_length and dead[dead_position] == key:
                dead_position += 1
                continue
            yield key

    def iter_range(self, lo: int, hi: int) -> Iterator[int]:
        """Yield keys in ``[lo, hi)`` in ascending order."""
        if hi <= lo:
            return iter(())
        tail = self._tail
        tail_slice = tail[bisect_left(tail, lo):bisect_left(tail, hi)]
        dead = self._dead
        if not tail_slice and bisect_left(dead, lo) == bisect_left(dead, hi):
            # No buffered keys in range: the answer is one contiguous run
            # slice — a C-level copy instead of a per-key generator merge.
            run = self._run
            return iter(run[bisect_left(run, lo):bisect_left(run, hi)])
        return heap_merge(self._iter_live_run(lo, hi), tail_slice)

    def range_keys(self, lo: int, hi: int) -> "np.ndarray | list[int]":
        """Keys in ``[lo, hi)`` as one vector — array-native ``iter_range``.

        On a packed run with no buffered keys in range this is a zero-copy
        int64 view of the run slice; otherwise it degrades to a list with
        the same contents.  Callers must not mutate a returned view
        (compactions replace the run rather than mutating it, so views
        taken here stay valid snapshots).
        """
        if hi <= lo:
            return np.empty(0, dtype=np.int64) if self._packed else []
        tail = self._tail
        tail_slice = tail[bisect_left(tail, lo):bisect_left(tail, hi)]
        dead = self._dead
        if not tail_slice and bisect_left(dead, lo) == bisect_left(dead, hi):
            run = self._run
            start, stop = bisect_left(run, lo), bisect_left(run, hi)
            if self._packed:
                if not len(run):
                    return np.empty(0, dtype=np.int64)
                return np.frombuffer(run, dtype=np.int64)[start:stop]
            return run[start:stop]
        return list(heap_merge(self._iter_live_run(lo, hi), tail_slice))

    def __iter__(self) -> Iterator[int]:
        yield from heap_merge(self._iter_live_run(), list(self._tail))

    def _snapshot_view(self):
        """A point-in-time clone for frozen reads: the (immutable) run
        *and* the tail/dead buffers are shared by reference — the live
        side privatizes the buffers on its next in-place mutation
        (:meth:`_privatize_buffers`), so the flip itself is O(1) — and
        the rank cache starts fresh.  Reads on the clone run the exact
        live query code over state that can never change."""
        clone = object.__new__(type(self))
        for name in self.__slots__:
            if name == "__weakref__":
                continue
            setattr(clone, name, getattr(self, name))
        clone._rank_cache = {}
        # The clone must not retain the previous epoch's frozen view (an
        # unbounded chain of epochs otherwise) and never mutates, so its
        # shared-buffer flag is moot but kept True for clarity.
        clone._frozen_view = None
        clone._frozen_rev = -1
        clone._buffers_shared = True
        self._buffers_shared = True
        return clone

    def freeze(self):
        """An immutable snapshot view of the current multiset contents.

        With clean buffers the frozen view references the sorted run *by
        reference*: mutations never touch an installed run in place
        (``_install_run`` / ``_replace_run`` build fresh ones), so the
        view stays a valid snapshot forever at zero copy cost — the
        property the epoch publish flip relies on.  With buffered churn
        pending, the view wraps a clone that shares the run *and* the
        tail/dead buffers by reference (the live side copies them on its
        next in-place mutation), so a publish flip is O(1) here.

        Re-freezing with no content change since the previous freeze
        returns the previous frozen view unchanged — back-to-back flips
        under light churn only rebuild the views whose backend actually
        mutated (counted by ``repro_epoch_refreeze_reused_total``).
        """
        from .epoch import FrozenBuffered, FrozenRun

        if self._frozen_view is not None and (
            self._frozen_rev == self._freeze_rev
        ):
            if OBS.enabled:
                _PACKED_REFREEZE_REUSED.inc()
            return self._frozen_view
        if self._tail or self._dead:
            frozen = FrozenBuffered(self._snapshot_view())
        else:
            frozen = FrozenRun(
                self._run,
                run_hi=self._run_hi,
                hi_shift=self._hi_shift,
                key_bound=self._key_bound,
            )
        self._frozen_view = frozen
        self._frozen_rev = self._freeze_rev
        return frozen

    def check_invariants(self) -> None:
        """Validate internal structure (used by property tests)."""
        run = list(self._run)
        assert run == sorted(run), "unsorted run"
        assert self._tail == sorted(self._tail), "unsorted tail"
        assert self._dead == sorted(self._dead), "unsorted dead list"
        for key in set(self._dead):
            assert self._count(self._dead, key) <= self._count(run, key), (
                "dead key without matching run occurrence"
            )
        assert self._size == len(run) + len(self._tail) - len(self._dead), (
            "size counter out of sync"
        )
        if self._run_hi is not None:
            assert len(self._run_hi) == len(run), "stale probe array"
            assert self._run_hi.tolist() == [
                key >> self._hi_shift for key in run
            ], "probe array out of sync with run"


# ----------------------------------------------------------------------
# Registry and default-backend management
# ----------------------------------------------------------------------

#: Factory: keyword arguments ``block_size`` and ``key_bound`` (either may
#: be ignored) to a fresh, empty backend.
BackendFactory = Callable[..., StorageBackend]

_REGISTRY: dict[str, BackendFactory] = {}

_default_backend = "blocked"


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a storage engine under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names of all registered storage engines."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str | None) -> str:
    """Validate a backend name; ``None`` means the process-wide default."""
    if name is None:
        return _default_backend
    if name not in _REGISTRY:
        raise SchemaError(
            f"unknown storage backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return name


def get_default_backend() -> str:
    """The backend used when a database is built without an explicit one."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    if name not in _REGISTRY:
        raise SchemaError(
            f"unknown storage backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    previous = _default_backend
    _default_backend = name
    return previous


@contextmanager
def using_backend(name: str | None):
    """Scope the default backend (``None`` leaves it untouched)."""
    if name is None:
        yield get_default_backend()
        return
    previous = set_default_backend(name)
    try:
        yield name
    finally:
        set_default_backend(previous)


def make_backend(
    name: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    key_bound: int | None = None,
) -> StorageBackend:
    """Build an empty backend by name (``None`` = process default).

    ``key_bound`` is the exclusive upper bound of the key universe when the
    caller knows it (prefix indexes do); packing engines use it to choose a
    64-bit representation.
    """
    factory = _REGISTRY[resolve_backend(name)]
    return factory(block_size=block_size, key_bound=key_bound)


def _packed_factory(
    block_size: int = DEFAULT_BLOCK_SIZE, key_bound: int | None = None
) -> PackedArrayBackend:
    # block_size is the one tuning knob threaded through TupleStore /
    # HiddenDatabase; map it onto the packed engine's buffer floor so the
    # parameter tunes every backend rather than being silently ignored.
    return PackedArrayBackend(
        key_bound=key_bound, min_buffer=max(64, block_size // 4)
    )


register_backend("packed", _packed_factory)
