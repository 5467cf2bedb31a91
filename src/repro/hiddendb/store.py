"""Storage layer of the hidden database simulator.

The drill-down estimators issue only *prefix conjunctions*: with attributes
ordered ``Ao1, Ao2, ...`` a query-tree node at depth ``d`` fixes the first
``d`` attributes of that order.  If every tuple's key is its value vector
written in mixed radix (most significant digit = first attribute of the
order, least significant digits = the tuple id for uniqueness), a node is a
*contiguous key range* and "does this node overflow?" becomes two positional
bisects.

Components:

* :class:`SortedKeyList` — a blocked sorted list of integers (the same idea
  as ``sortedcontainers.SortedList``, reimplemented because this environment
  is offline): O(sqrt n) insert/delete, O(log n + #blocks) positional rank.
* :class:`KeyCodec` — the mixed-radix key codec over one attribute order,
  with vectorized :meth:`KeyCodec.encode_many` / :meth:`KeyCodec.decode_many`
  batch paths (pure int64 when the key universe fits 64 bits, int64 limbs
  combined with arbitrary-precision arithmetic otherwise).
* :class:`PrefixIndex` — a key codec plus the :class:`SortedKeyList`
  holding the key multiset.
* :class:`TupleStore` — the tuple heap plus any number of prefix indexes,
  with a mutation-event stream for ground-truth observers, bulk
  insert/delete, and a deferred-maintenance :meth:`TupleStore.bulk` context
  so churn rounds pay one index merge instead of per-tuple upkeep.  Batches
  inserted through :meth:`TupleStore.insert_batch` stay columnar: rows live
  in frozen :class:`~repro.hiddendb.tuples.TupleBatch` blocks and are
  materialized as :class:`HiddenTuple` objects only when a query touches
  them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import SchemaError
from ..obs import OBS
from .backends import (
    DEFAULT_BLOCK_SIZE,
    _as_int64_batch,
    _sorted_multiset_subtract,
    mod_many,
)
from .schema import Schema
from .tuples import HiddenTuple, TupleBatch

#: The name the prefix-index storage (:class:`SortedKeyList`) reports in
#: snapshots, on ``/v1/healthz``, in ``Engine.metrics()`` and as a metric
#: label.
INDEX_ENGINE = "blocked"

#: Copy-on-write privatizations (import-time handle; see repro.obs).
_PRIVATIZED_BLOCKS = OBS.counter("repro_epoch_privatized_blocks_total")
_REFREEZE_REUSED = OBS.counter(
    "repro_epoch_refreeze_reused_total", {"backend": INDEX_ENGINE}
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "GatheredRows",
    "INDEX_ENGINE",
    "KeyCodec",
    "PrefixIndex",
    "SortedKeyList",
    "TupleStore",
]


class SortedKeyList:
    """A sorted multiset of integers stored in balanced blocks.

    Supports the three operations the prefix index needs:

    * :meth:`add` / :meth:`remove` in O(sqrt n),
    * :meth:`rank` (count of keys strictly below a value) in
      O(log n + #blocks),
    * :meth:`iter_range` over a half-open key interval.
    """

    __slots__ = ("_blocks", "_maxes", "_size", "_block_size",
                 "_freeze_rev", "_frozen_rev", "_frozen_view")

    def __init__(
        self,
        keys: Iterable[int] = (),
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        self._block_size = block_size
        self._freeze_rev = 0
        self._frozen_rev = -1
        self._frozen_view = None
        self._rebuild(sorted(keys))

    def __len__(self) -> int:
        return self._size

    def _locate_block(self, key: int) -> int:
        """Index of the first block whose max is >= key (len for none)."""
        return bisect_left(self._maxes, key)

    def add(self, key: int) -> None:
        """Insert ``key`` keeping order; duplicates are allowed."""
        self._freeze_rev += 1
        if not self._blocks:
            self._blocks.append([key])
            self._maxes.append(key)
            self._size = 1
            return
        block_index = self._locate_block(key)
        if block_index == len(self._blocks):
            block_index -= 1
        block = self._blocks[block_index]
        insort(block, key)
        self._maxes[block_index] = block[-1]
        self._size += 1
        if len(block) > 2 * self._block_size:
            self._split_block(block_index)

    def _split_block(self, block_index: int) -> None:
        block = self._blocks[block_index]
        half = len(block) // 2
        right = block[half:]
        del block[half:]
        self._blocks.insert(block_index + 1, right)
        self._maxes[block_index] = block[-1]
        self._maxes.insert(block_index + 1, right[-1])

    def remove(self, key: int) -> None:
        """Remove one occurrence of ``key``; raise ``ValueError`` if absent."""
        self._freeze_rev += 1
        block_index = self._locate_block(key)
        if block_index == len(self._blocks):
            raise ValueError(f"key {key} not in SortedKeyList")
        block = self._blocks[block_index]
        position = bisect_left(block, key)
        if position == len(block) or block[position] != key:
            raise ValueError(f"key {key} not in SortedKeyList")
        del block[position]
        self._size -= 1
        if block:
            self._maxes[block_index] = block[-1]
        else:
            del self._blocks[block_index]
            del self._maxes[block_index]

    def bulk_add(self, keys: Iterable[int]) -> None:
        """Insert a batch of keys with one rebuild instead of n insorts.

        Large batches (at least a quarter of the current size) rebuild the
        block structure from a single merge-sort; small batches fall back to
        per-key insertion, which keeps amortized cost below a rebuild.  A
        numeric ``np.ndarray`` batch takes a fully vectorized merge with no
        per-element Python calls.
        """
        array_batch = _as_int64_batch(keys)
        if array_batch is not None:
            if len(array_batch) * 4 >= self._size:
                self._bulk_add_array(array_batch)
                return
            keys = array_batch.tolist()
        batch = sorted(keys)
        if not batch:
            return
        if len(batch) * 4 < self._size:
            for key in batch:
                self.add(key)
            return
        merged = list(self)
        merged.extend(batch)
        merged.sort()
        self._rebuild(merged)

    def _as_array(self) -> np.ndarray:
        """Current contents as a sorted int64 vector."""
        if not self._size:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(block, dtype=np.int64) for block in self._blocks]
        )

    def _bulk_add_array(self, batch: np.ndarray) -> None:
        if not len(batch):
            return
        merged = np.concatenate([self._as_array(), batch])
        merged.sort()
        self._rebuild(merged.tolist())

    def bulk_remove(self, keys: Iterable[int]) -> None:
        """Remove a batch of keys; raise ``ValueError`` if any is absent.

        Mirrors :meth:`bulk_add`: large batches rebuild once, small batches
        delegate to per-key removal, numeric ``np.ndarray`` batches subtract
        vectorized.
        """
        array_batch = _as_int64_batch(keys)
        if array_batch is not None:
            if len(array_batch) * 4 >= self._size:
                survivors = _sorted_multiset_subtract(
                    self._as_array(), np.sort(array_batch), "SortedKeyList"
                )
                self._rebuild(survivors.tolist())
                return
            keys = array_batch.tolist()
        batch = sorted(keys)
        if not batch:
            return
        if len(batch) * 4 < self._size:
            for key in batch:
                self.remove(key)
            return
        survivors: list[int] = []
        batch_position = 0
        batch_length = len(batch)
        for key in self:
            if batch_position < batch_length and batch[batch_position] == key:
                batch_position += 1
                continue
            survivors.append(key)
        if batch_position != batch_length:
            raise ValueError(
                f"key {batch[batch_position]} not in SortedKeyList"
            )
        self._rebuild(survivors)

    def _rebuild(self, sorted_keys: list[int]) -> None:
        """Replace the contents with an already-sorted key list."""
        self._freeze_rev += 1
        self._blocks = []
        self._maxes = []
        for start in range(0, len(sorted_keys), self._block_size):
            block = sorted_keys[start : start + self._block_size]
            self._blocks.append(block)
            self._maxes.append(block[-1])
        self._size = len(sorted_keys)

    def __contains__(self, key: int) -> bool:
        block_index = self._locate_block(key)
        if block_index == len(self._blocks):
            return False
        block = self._blocks[block_index]
        position = bisect_left(block, key)
        return position < len(block) and block[position] == key

    def rank(self, key: int) -> int:
        """Number of stored keys strictly smaller than ``key``."""
        block_index = self._locate_block(key)
        if block_index == len(self._blocks):
            return self._size
        preceding = 0
        for i in range(block_index):
            preceding += len(self._blocks[i])
        return preceding + bisect_left(self._blocks[block_index], key)

    def count_range(self, lo: int, hi: int) -> int:
        """Number of keys in the half-open interval ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self.rank(hi) - self.rank(lo)

    def iter_range(self, lo: int, hi: int) -> Iterator[int]:
        """Yield keys in ``[lo, hi)`` in ascending order."""
        if hi <= lo:
            return
        block_index = self._locate_block(lo)
        while block_index < len(self._blocks):
            block = self._blocks[block_index]
            start = bisect_left(block, lo) if block[0] < lo else 0
            for position in range(start, len(block)):
                key = block[position]
                if key >= hi:
                    return
                yield key
            block_index += 1

    def range_keys(self, lo: int, hi: int) -> list[int]:
        """Keys in ``[lo, hi)`` as one list — array-native ``iter_range``.

        Block-sliced (C-level copies) instead of a per-key generator.
        """
        if hi <= lo:
            return []
        out: list[int] = []
        block_index = self._locate_block(lo)
        while block_index < len(self._blocks):
            block = self._blocks[block_index]
            if block[0] >= hi:
                break
            start = bisect_left(block, lo) if block[0] < lo else 0
            if block[-1] >= hi:
                out.extend(block[start:bisect_left(block, hi)])
                break
            out.extend(block[start:] if start else block)
            block_index += 1
        return out

    def __iter__(self) -> Iterator[int]:
        for block in self._blocks:
            yield from block

    def freeze(self):
        """An immutable snapshot copy of the current multiset contents.

        Blocks are mutated in place by ``add`` / ``remove``, so a
        freeze copies the contents: one int64 vector when every key fits
        64 bits, a plain list of Python ints for wide key universes.
        """
        from .epoch import FrozenRun

        if self._frozen_view is not None and (
            self._frozen_rev == self._freeze_rev
        ):
            if OBS.enabled:
                _REFREEZE_REUSED.inc()
            return self._frozen_view
        try:
            keys = self._as_array()
        except OverflowError:
            keys = [key for block in self._blocks for key in block]
        frozen = FrozenRun(keys)
        self._frozen_view = frozen
        self._frozen_rev = self._freeze_rev
        return frozen

    def check_invariants(self) -> None:
        """Validate internal structure (used by property tests)."""
        total = 0
        previous_max = None
        for block, block_max in zip(self._blocks, self._maxes):
            assert block, "empty block retained"
            assert block == sorted(block), "unsorted block"
            assert block[-1] == block_max, "stale block max"
            if previous_max is not None:
                assert block[0] >= previous_max, "blocks out of order"
            previous_max = block_max
            total += len(block)
        assert total == self._size, "size counter out of sync"


#: Largest exclusive key bound representable in a signed 64-bit key vector.
_INT64_KEY_BOUND = 2**63

#: Largest partial radix product allowed inside one int64 limb of the wide
#: encode path (one extra digit of radix <= 2 must never overflow int64).
_LIMB_BOUND = 2**62


class KeyCodec:
    """Mixed-radix key codec over one attribute order.

    The key of a tuple is::

        ((v[o1] * |U_o2| + v[o2]) * |U_o3| + ...) * TID_SPAN + tid

    so a depth-``d`` prefix (values for the first ``d`` attributes of the
    order) owns the contiguous range ``[code_d * span_d, (code_d+1) * span_d)``
    where ``span_d`` is the product of the remaining radices times
    ``TID_SPAN``.  Python's arbitrary-precision integers make this exact for
    any number of attributes.

    :meth:`encode_many` / :meth:`decode_many` are the vectorized batch
    paths.  When the whole key universe fits a signed 64-bit word the
    encoding is one numpy Horner loop over int64 vectors; otherwise the
    digits are grouped into int64-safe *limbs* (each an exact partial
    mixed-radix code, computed vectorized) that are combined with
    arbitrary-precision integer arithmetic over object arrays — still no
    per-digit Python loop, and overflow-checked by construction because
    every limb product stays below ``2**62``.
    """

    __slots__ = ("attr_order", "radices", "tid_span", "spans", "_limb_plan")

    def __init__(
        self,
        radices: Sequence[int],
        attr_order: Sequence[int],
        tid_span: int,
    ):
        self.attr_order = tuple(attr_order)
        self.radices = tuple(int(r) for r in radices)
        if len(self.radices) != len(self.attr_order):
            raise SchemaError("radices must align with attr_order")
        self.tid_span = int(tid_span)
        # spans[d] = width of a depth-d prefix's key range.
        spans = [self.tid_span]
        for radix in reversed(self.radices):
            spans.append(spans[-1] * radix)
        spans.reverse()  # spans[d] for d in 0..m
        self.spans = tuple(spans)
        # The wide-path limb plan: consecutive digits of the extended digit
        # sequence (value digits in attr order, then the tid digit) grouped
        # so each group's radix product stays int64-safe.
        digits = self.radices + (self.tid_span,)
        plan: list[tuple[int, int, int]] = []  # (start, stop, product)
        start = 0
        product = 1
        for position, radix in enumerate(digits):
            if product * radix > _LIMB_BOUND and product > 1:
                plan.append((start, position, product))
                start, product = position, 1
            product *= radix
        plan.append((start, len(digits), product))
        self._limb_plan = tuple(plan)

    @property
    def fits_int64(self) -> bool:
        """True when every key fits a signed 64-bit word."""
        return self.spans[0] <= _INT64_KEY_BOUND

    def encode(self, values: bytes | Sequence[int], tid: int) -> int:
        """Full key of one tuple (value digits + tid) — the scalar path."""
        code = 0
        for attr_index, radix in zip(self.attr_order, self.radices):
            code = code * radix + values[attr_index]
        return code * self.tid_span + tid

    def encode_many(
        self, values: np.ndarray, tids: np.ndarray
    ) -> np.ndarray:
        """Keys of an ``(n, m)`` uint8 value matrix plus an int64 tid vector.

        Returns an int64 vector when the key universe fits 64 bits, else an
        object vector of exact arbitrary-precision Python ints (same order).
        """
        tids = np.asarray(tids, dtype=np.int64)
        n = len(tids)
        if len(values) != n:
            raise SchemaError("values and tids must have equal length")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.fits_int64:
            code = np.zeros(n, dtype=np.int64)
            for attr_index, radix in zip(self.attr_order, self.radices):
                code *= radix
                code += values[:, attr_index]
            return code * self.tid_span + tids
        digits = self.radices + (self.tid_span,)
        total: np.ndarray | None = None
        for start, stop, product in self._limb_plan:
            limb = np.zeros(n, dtype=np.int64)
            for position in range(start, stop):
                limb *= digits[position]
                if position < len(self.attr_order):
                    limb += values[:, self.attr_order[position]]
                else:
                    limb += tids
            if total is None:
                total = limb.astype(object)
            else:
                total = total * product + limb
        assert total is not None
        return total

    def decode_many(self, keys: np.ndarray | Sequence[int]) -> tuple[
        np.ndarray, np.ndarray
    ]:
        """Inverse of :meth:`encode_many`.

        Returns ``(values, tids)`` with ``values`` an ``(n, m)`` uint8
        matrix in *schema attribute order* and ``tids`` an int64 vector.
        """
        n = len(keys)
        values = np.zeros((n, len(self.attr_order)), dtype=np.uint8)
        tids = np.empty(n, dtype=np.int64)
        if n == 0:
            return values, tids
        if self.fits_int64:
            code = np.asarray(keys, dtype=np.int64)
            tids[:] = code % self.tid_span
            code = code // self.tid_span
            for attr_index, radix in zip(
                reversed(self.attr_order), reversed(self.radices)
            ):
                values[:, attr_index] = code % radix
                code = code // radix
            return values, tids
        for row, key in enumerate(keys):
            code, tid = divmod(int(key), self.tid_span)
            tids[row] = tid
            for attr_index, radix in zip(
                reversed(self.attr_order), reversed(self.radices)
            ):
                code, digit = divmod(code, radix)
                values[row, attr_index] = digit
        return values, tids

    def prefix_range(self, prefix_values: Sequence[int]) -> tuple[int, int]:
        """Half-open key interval of the node fixing ``prefix_values``.

        ``prefix_values`` are value indices for the first ``len(prefix)``
        attributes of this codec's order.
        """
        depth = len(prefix_values)
        code = 0
        for position in range(depth):
            code = code * self.radices[position] + prefix_values[position]
        span = self.spans[depth]
        lo = code * span
        return lo, lo + span


class PrefixIndex:
    """A key codec plus the :class:`SortedKeyList` holding the key multiset.

    ``block_size`` sizes the key list's blocks (unit tests shrink it to
    force multi-block layouts at small n).

    **Reader-concurrency contract:** all query methods (``count_prefix``,
    ``iter_tids``, ``range_tids``, ``prefix_range``, ``__len__``) are safe
    to call from any number of threads concurrently as long as no mutation
    (``add`` / ``remove`` / ``bulk_*``) runs at the same time.  Mutations
    must be serialized against readers externally — the engine facade's
    round barrier does this.
    """

    __slots__ = ("attr_order", "codec", "_keys")

    def __init__(
        self,
        schema: Schema,
        attr_order: Sequence[int],
        tid_span: int = 2**48,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        order = tuple(attr_order)
        if sorted(order) != list(range(schema.num_attributes)):
            raise SchemaError(
                "attr_order must be a permutation of all attribute indexes"
            )
        self.attr_order = order
        self.codec = KeyCodec(
            tuple(schema.attributes[a].size for a in order), order, tid_span
        )
        self._keys = SortedKeyList(block_size=block_size)

    @property
    def depth(self) -> int:
        """Maximum prefix depth (number of attributes)."""
        return len(self.attr_order)

    def encode(self, t: HiddenTuple) -> int:
        """Full key of a tuple (value digits + tid)."""
        return self.codec.encode(t.values, t.tid)

    def prefix_range(self, prefix_values: Sequence[int]) -> tuple[int, int]:
        """Half-open key interval of the node fixing ``prefix_values``."""
        return self.codec.prefix_range(prefix_values)

    def add(self, t: HiddenTuple) -> None:
        self._keys.add(self.encode(t))

    def remove(self, t: HiddenTuple) -> None:
        self._keys.remove(self.encode(t))

    def bulk_add(self, tuples: Iterable[HiddenTuple]) -> None:
        """Index a batch of tuples with one key-list merge."""
        self._keys.bulk_add([self.encode(t) for t in tuples])

    def bulk_remove(self, tuples: Iterable[HiddenTuple]) -> None:
        """Unindex a batch of tuples with one key-list merge."""
        self._keys.bulk_remove([self.encode(t) for t in tuples])

    def _batch_keys(self, batch: TupleBatch):
        keys = self.codec.encode_many(batch.values, batch.tids)
        if keys.dtype == object:
            return keys.tolist()
        return keys

    def bulk_add_batch(self, batch: TupleBatch) -> None:
        """Index a columnar batch without materializing tuples."""
        self._keys.bulk_add(self._batch_keys(batch))

    def count_prefix(self, prefix_values: Sequence[int]) -> int:
        """Number of stored tuples matching the prefix."""
        lo, hi = self.prefix_range(prefix_values)
        return self._keys.count_range(lo, hi)

    def iter_tids(self, prefix_values: Sequence[int]) -> Iterator[int]:
        """Yield tids of tuples matching the prefix (key order)."""
        lo, hi = self.prefix_range(prefix_values)
        tid_span = self.codec.tid_span
        for key in self._keys.iter_range(lo, hi):
            yield key % tid_span

    def range_tids(self, prefix_values: Sequence[int]) -> np.ndarray:
        """Matching tids as an int64 vector — array-native ``iter_tids``.

        One vectorized modulo when the key multiset hands back an int64
        key array (a frozen narrow-schema run); the chunked limb reduction
        (:func:`~repro.hiddendb.backends.mod_many`) over a block-sliced
        key list otherwise — wide schemas exceed int64, but their keys
        never pay a per-key Python ``%`` (parity-tested against the
        scalar loop).
        """
        lo, hi = self.prefix_range(prefix_values)
        return mod_many(self._keys.range_keys(lo, hi), self.codec.tid_span)

    def __len__(self) -> int:
        return len(self._keys)


class _HeapBlock:
    """A frozen columnar segment of the tuple heap.

    Holds one identified :class:`TupleBatch` plus a liveness mask; rows are
    located by bisect on the (strictly increasing) tid vector and turned
    into :class:`HiddenTuple` objects only on demand.
    """

    __slots__ = ("batch", "tid_lo", "tid_hi", "alive", "alive_count",
                 "_tid_list", "_score_list", "shared")

    def __init__(self, batch: TupleBatch):
        self.batch = batch
        self.tid_lo = int(batch.tids[0])
        self.tid_hi = int(batch.tids[-1])
        self.alive = np.ones(len(batch), dtype=bool)
        self.alive_count = len(batch)
        # True while a published epoch's clone shares this block's mutable
        # columns; the first in-place write privatizes them (copy-on-write).
        self.shared = False
        # Plain-list twins of the tid/score columns, built lazily on the
        # first point read: bisect on a list and plain float access beat
        # per-call numpy scalar boxing on the lookup path queries hammer,
        # but blocks that are never point-read shouldn't pay for them.
        self._tid_list: list[int] | None = None
        self._score_list: list[float] | None = None

    def _tids(self) -> list[int]:
        tids = self._tid_list
        if tids is None:
            # Concurrent readers may race to build the twins; both write
            # identical lists, so either wins.  Publish order matters:
            # readers gate on ``_tid_list``, so ``_score_list`` must be
            # assigned first — a reader that observes a non-None
            # ``_tid_list`` is then guaranteed a non-None ``_score_list``
            # (CPython's GIL orders the two stores).
            scores = self.batch.scores.tolist()
            tids = self.batch.tids.tolist()
            self._score_list = scores
            self._tid_list = tids
        return tids

    def locate(self, tid: int) -> int | None:
        """Row index of a live tid, or ``None``."""
        tids = self._tids()
        row = bisect_left(tids, tid)
        if row < len(tids) and tids[row] == tid and self.alive[row]:
            return row
        return None

    def materialize(self, row: int) -> HiddenTuple:
        """Build the row's tuple (cheaper than ``batch.materialize``)."""
        batch = self.batch
        tids = self._tids()
        return HiddenTuple(
            tids[row],
            batch.values[row].tobytes(),
            batch.row_measures(row),
            self._score_list[row],
        )

    def snapshot(self) -> "_HeapBlock":
        """A copy-on-write clone sharing every column with this block.

        Both sides are marked :attr:`shared`; the first in-place mutation
        on the live side (:meth:`kill`, or a measure replace through
        :meth:`TupleStore.replace`) privatizes the mutable columns via
        :meth:`_unshare`, so the clone keeps observing the snapshot-time
        contents forever — the heap half of an epoch publish, at zero
        copy cost until churn actually touches the block.
        """
        clone = _HeapBlock.__new__(_HeapBlock)
        clone.batch = self.batch
        clone.tid_lo = self.tid_lo
        clone.tid_hi = self.tid_hi
        clone.alive = self.alive
        clone.alive_count = self.alive_count
        clone._tid_list = self._tid_list
        clone._score_list = self._score_list
        clone.shared = True
        self.shared = True
        return clone

    def _unshare(self) -> None:
        """Privatize the mutable columns before an in-place write.

        Only ``alive``, ``measures`` and ``scores`` are ever written in
        place (values/tids stay frozen for the block's lifetime), so only
        those copy; the lazy list twins are dropped because a published
        clone may still share them.
        """
        if not self.shared:
            return
        batch = self.batch
        self.batch = TupleBatch(
            batch.values, batch.measures.copy(),
            batch.tids, batch.scores.copy(),
        )
        self.alive = self.alive.copy()
        self._tid_list = None
        self._score_list = None
        self.shared = False
        if OBS.enabled:
            _PRIVATIZED_BLOCKS.inc()

    def kill(self, row: int) -> None:
        self._unshare()
        self.alive[row] = False
        self.alive_count -= 1

    def alive_tids(self) -> list[int]:
        """Tids of the live rows, ascending."""
        if self.alive_count == len(self.batch):
            return self.batch.tids.tolist()
        return self.batch.tids[self.alive].tolist()

    def alive_batch(self) -> TupleBatch:
        """A compacted batch of just the live rows (for index backfill)."""
        batch = self.batch
        if self.alive_count == len(batch):
            return batch
        mask = self.alive
        return TupleBatch(
            batch.values[mask], batch.measures[mask],
            batch.tids[mask], batch.scores[mask],
        )

    def iter_alive(self) -> Iterator[HiddenTuple]:
        for row in np.flatnonzero(self.alive):
            yield self.materialize(int(row))


class GatheredRows:
    """Columnar gather result plus exact per-row materialization.

    ``batch`` holds the gathered column vectors (page selection and
    column-level aggregation read these).  Rows that were resolved from
    the per-tuple dict keep their original :class:`HiddenTuple` objects in
    ``row_objects`` so materialization is bit-exact even for rows the
    permissive scalar heap stored with off-schema measure arity; block
    rows materialize from the columns.
    """

    __slots__ = ("batch", "row_objects")

    def __init__(
        self,
        batch: TupleBatch,
        row_objects: dict[int, HiddenTuple] | None = None,
    ):
        self.batch = batch
        self.row_objects = row_objects

    def __len__(self) -> int:
        return len(self.batch)

    def materialize_row(self, row: int) -> HiddenTuple:
        """The row's tuple — the stored object when one exists."""
        if self.row_objects is not None:
            found = self.row_objects.get(row)
            if found is not None:
                return found
        return self.batch.materialize(row)


class TupleStore:
    """Tuple heap plus registered prefix indexes and a mutation stream.

    Listeners registered via :meth:`subscribe` receive
    ``("insert", tuple)`` / ``("delete", tuple)`` events, which is how the
    experiment harness maintains exact ground truth in O(1) per mutation.

    Every prefix index keeps its keys in a :class:`SortedKeyList`.  Inside
    a :meth:`bulk` block, per-mutation index maintenance is deferred and the
    buffered batch is applied with one ``bulk_add``/``bulk_remove`` per
    index when the block exits; the tuple heap and the listener stream stay
    exact throughout, so only *index reads* must wait for the block to end.

    The heap is hybrid: per-tuple inserts live in a dict, columnar batches
    (:meth:`insert_batch`) live in frozen :class:`_HeapBlock` segments whose
    rows are materialized lazily.  Iteration yields blocks first, then the
    dict — ascending tid order, enforced: a batch whose tids are not
    strictly above every existing tid is routed through the per-tuple
    path, so block tid ranges never interleave the dict or each other.

    **Reader-concurrency contract:** any number of threads may read
    concurrently (``get`` / ``gather`` / ``scan_match`` / ``tuples`` /
    index queries) — readers never block each other and every lazy
    read-side structure is safe to race on: heap blocks publish their
    lazy list twins in a GIL-ordered sequence, and
    :meth:`ensure_index` double-checks under a build lock so concurrent
    first-queries of one attribute order build its index exactly once.
    Mutations (insert/delete/replace/bulk) must be externally serialized
    against both readers and other writers — the engine facade holds its
    round barrier (``run_round`` vs ``apply_updates``) for exactly this.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._tuples: dict[int, HiddenTuple] = {}
        self._blocks: list[_HeapBlock] = []
        self._block_los: list[int] = []  # sorted tid_lo per block
        self._size = 0
        # Bumped on every content mutation; deferred result pages capture
        # it at query time so a late read can detect staleness.
        self._epoch = 0
        self._indexes: dict[tuple[int, ...], PrefixIndex] = {}
        # Serializes index *builds* only; reads of ``_indexes`` stay
        # lock-free (GIL-atomic dict lookups on an insert-only dict).
        self._index_lock = threading.Lock()
        self._listeners: list[Callable[[str, HiddenTuple], None]] = []
        self._bulk_depth = 0
        self._pending_add: list[HiddenTuple] = []
        self._pending_del: list[HiddenTuple] = []
        self._pending_batches: list[TupleBatch] = []

    def __len__(self) -> int:
        return self._size

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of content mutations (insert/delete/replace)."""
        return self._epoch

    def _find_block(self, tid: int) -> tuple[_HeapBlock, int] | None:
        """The block and row holding a live tid, or ``None``.

        One probe suffices: :meth:`insert_batch` rejects overlapping tid
        ranges, so at most one block can span any tid.
        """
        if not self._blocks:
            return None
        position = bisect_right(self._block_los, tid) - 1
        if position < 0:
            return None
        block = self._blocks[position]
        if tid > block.tid_hi:
            return None
        row = block.locate(tid)
        if row is None:
            return None
        return block, row

    def _drop_block(self, block: _HeapBlock) -> None:
        """Release a fully-dead block (long churn must not pin memory)."""
        position = self._blocks.index(block)
        del self._blocks[position]
        del self._block_los[position]

    def __contains__(self, tid: int) -> bool:
        return tid in self._tuples or self._find_block(tid) is not None

    def get(self, tid: int) -> HiddenTuple:
        found = self._tuples.get(tid)
        if found is not None:
            return found
        located = self._find_block(tid)
        if located is None:
            raise KeyError(tid)
        block, row = located
        return block.materialize(row)

    def tuples(self) -> Iterator[HiddenTuple]:
        """Iterate over all stored tuples (blocks first, then the dict)."""
        for block in self._blocks:
            yield from block.iter_alive()
        yield from self._tuples.values()

    def segments(self) -> tuple[list[TupleBatch], list[HiddenTuple]]:
        """The heap as columnar segments plus the scalar remainder.

        Simulator-side observers (exact ground truth) use this to evaluate
        bulk-loaded content vectorized instead of materializing it.
        """
        return (
            [block.alive_batch() for block in self._blocks],
            list(self._tuples.values()),
        )

    def gather(self, tids: np.ndarray) -> "GatheredRows":
        """Columnar copy of the given live rows, in input order.

        The columnar query plane's page fetch: block rows are located with
        one ``searchsorted`` per intersecting block and copied with fancy
        indexing; rows living in the per-tuple dict (scalar inserts,
        value-changing replaces) are filled in per tid and keep their
        original :class:`HiddenTuple` objects for exact materialization.
        Raises ``KeyError`` when a tid is not live — deferred pages guard
        against that with the mutation epoch before calling.
        """
        tids = np.asarray(tids, dtype=np.int64)
        n = len(tids)
        num_attributes = self.schema.num_attributes
        num_measures = len(self.schema.measures)
        values = np.empty((n, num_attributes), dtype=np.uint8)
        measures = np.empty((n, num_measures), dtype=np.float64)
        scores = np.empty(n, dtype=np.float64)
        if n == 0:
            return GatheredRows(
                TupleBatch(values, measures, tids.copy(), scores)
            )
        # Resolve against the sorted view; un-permute at the end.
        order: np.ndarray | None = None
        sorted_tids = tids
        if n > 1 and not bool(np.all(tids[1:] >= tids[:-1])):
            order = np.argsort(tids, kind="stable")
            sorted_tids = tids[order]
        resolved = np.zeros(n, dtype=bool)
        for block in self._blocks:
            lo = int(np.searchsorted(sorted_tids, block.tid_lo, side="left"))
            hi = int(np.searchsorted(sorted_tids, block.tid_hi, side="right"))
            if lo == hi:
                continue
            chunk = sorted_tids[lo:hi]
            batch = block.batch
            rows = np.searchsorted(batch.tids, chunk)
            # chunk values are bounded by this block's tid range, so every
            # position is in range; mismatches / dead rows fall through to
            # the dict (value-changing replace re-homes a tid there).
            found = (batch.tids[rows] == chunk) & block.alive[rows]
            if found.all():
                values[lo:hi] = batch.values[rows]
                if num_measures:
                    measures[lo:hi] = batch.measures[rows]
                scores[lo:hi] = batch.scores[rows]
                resolved[lo:hi] = True
            else:
                rows = rows[found]
                values[lo:hi][found] = batch.values[rows]
                if num_measures:
                    measures[lo:hi][found] = batch.measures[rows]
                scores[lo:hi][found] = batch.scores[rows]
                resolved[lo:hi] = found
        row_objects: dict[int, HiddenTuple] | None = None
        if not resolved.all():
            row_objects = {}
            for position in np.flatnonzero(~resolved):
                position = int(position)
                t = self._tuples.get(int(sorted_tids[position]))
                if t is None:
                    raise KeyError(int(sorted_tids[position]))
                output_row = (
                    position if order is None else int(order[position])
                )
                row_objects[output_row] = t
                values[position] = np.frombuffer(t.values, dtype=np.uint8)
                if num_measures:
                    if len(t.measures) == num_measures:
                        measures[position] = t.measures
                    else:
                        # The permissive scalar heap allows off-schema
                        # measure arity; columns are best-effort zeros,
                        # materialization returns the object itself.
                        measures[position] = 0.0
                scores[position] = t.score
        if order is not None:
            inverse = np.empty(n, dtype=np.intp)
            inverse[order] = np.arange(n)
            values = values[inverse]
            measures = measures[inverse]
            scores = scores[inverse]
        return GatheredRows(
            TupleBatch(values, measures, tids.copy(), scores), row_objects
        )

    def scan_match(
        self, predicates: Sequence[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tids and scores of live rows matching an equality conjunction.

        The columnar twin of filtering :meth:`tuples` with
        ``query.matches``: frozen blocks are matched with one boolean mask
        over the value matrix, the per-tuple dict per row.  Returns two
        aligned vectors (int64 tids, float64 scores) — an eager snapshot,
        taken at query time like the reference scan's match list.
        """
        tid_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        for block in self._blocks:
            batch = block.batch
            mask = None
            for attr_index, value_index in predicates:
                term = batch.values[:, attr_index] == value_index
                mask = term if mask is None else (mask & term)
            mask = block.alive if mask is None else (mask & block.alive)
            tid_parts.append(batch.tids[mask])
            score_parts.append(batch.scores[mask])
        if self._tuples:
            dict_tids: list[int] = []
            dict_scores: list[float] = []
            for t in self._tuples.values():
                values = t.values
                if all(values[a] == v for a, v in predicates):
                    dict_tids.append(t.tid)
                    dict_scores.append(t.score)
            if dict_tids:
                tid_parts.append(np.asarray(dict_tids, dtype=np.int64))
                score_parts.append(np.asarray(dict_scores, dtype=np.float64))
        if not tid_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        return np.concatenate(tid_parts), np.concatenate(score_parts)

    def subscribe(self, listener: Callable[[str, HiddenTuple], None]) -> None:
        """Register a mutation listener (``event in {"insert", "delete"}``)."""
        self._listeners.append(listener)

    def index_orders(self) -> tuple[tuple[int, ...], ...]:
        """Snapshot of the registered attribute orders (safe to iterate
        while another thread builds a new index)."""
        return tuple(self._indexes)

    def ensure_index(self, attr_order: Sequence[int]) -> PrefixIndex:
        """Get (or build, backfilling existing tuples) the index for an order.

        Safe under concurrent readers: the hot path is one lock-free dict
        probe; a miss double-checks under the build lock so racing
        first-queries of the same order build the index exactly once, and
        the index becomes visible only after its backfill completes.
        """
        key = tuple(attr_order)
        index = self._indexes.get(key)
        if index is not None:
            return index
        with self._index_lock:
            index = self._indexes.get(key)
            if index is not None:
                return index
            # A new index built mid-bulk must not re-apply the buffered
            # mutations its backfill already covers.
            self._flush_pending()
            index = PrefixIndex(self.schema, key)
            for block in self._blocks:
                index.bulk_add_batch(block.alive_batch())
            index.bulk_add(self._tuples.values())
            self._indexes[key] = index
        return index

    def insert(self, t: HiddenTuple) -> None:
        """Insert a tuple; tids must be unique for the store's lifetime."""
        if t.tid in self._tuples or self._find_block(t.tid) is not None:
            raise SchemaError(f"duplicate tid {t.tid}")
        self._tuples[t.tid] = t
        self._size += 1
        self._epoch += 1
        if self._bulk_depth:
            self._pending_add.append(t)
        else:
            for index in self._indexes.values():
                index.add(t)
        for listener in self._listeners:
            listener("insert", t)

    def insert_batch(self, batch: TupleBatch) -> int:
        """Insert an identified columnar batch in one heap/index operation.

        Semantically identical to inserting the materialized tuples one by
        one (the per-tuple reference in ``tests/oracle.py``), but no
        per-tuple Python object is built unless a mutation listener is
        subscribed.
        """
        n = len(batch)
        if n == 0:
            return 0
        if batch.tids is None or batch.scores is None:
            raise SchemaError("insert_batch requires an identified batch")
        if n > 1 and not bool(np.all(np.diff(batch.tids) > 0)):
            raise SchemaError("batch tids must be strictly increasing")
        tid_lo = int(batch.tids[0])
        if self._tuples or (
            self._blocks and tid_lo <= self._blocks[-1].tid_hi
        ):
            # A new block would iterate before existing dict rows (blocks
            # come first) or interleave existing blocks, breaking the
            # ascending-tid heap invariant that keeps block lookups a
            # single probe and iteration order identical to per-tuple
            # inserts — route such batches through the per-tuple path,
            # which behaves exactly like per-tuple inserts by construction
            # (including their duplicate-tid check).
            with self.bulk():
                for t in batch.iter_tuples():
                    self.insert(t)
            return n
        # The block owns private copies: callers may reuse the batch (or
        # load it into several databases), and replace() mutates block
        # columns in place.
        block = _HeapBlock(
            TupleBatch(
                batch.values.copy(), batch.measures.copy(),
                batch.tids.copy(), batch.scores.copy(),
            )
        )
        self._blocks.append(block)
        self._block_los.append(block.tid_lo)
        self._size += n
        self._epoch += 1
        if self._bulk_depth:
            self._pending_batches.append(block.batch)
        else:
            for index in self._indexes.values():
                index.bulk_add_batch(block.batch)
        if self._listeners:
            for t in block.batch.iter_tuples():
                for listener in self._listeners:
                    listener("insert", t)
        return n

    def delete(self, tid: int) -> HiddenTuple:
        """Delete by tid and return the removed tuple."""
        t = self._tuples.pop(tid, None)
        if t is None:
            located = self._find_block(tid)
            if located is None:
                raise KeyError(tid)
            block, row = located
            t = block.materialize(row)
            block.kill(row)
            if block.alive_count == 0:
                self._drop_block(block)
        self._size -= 1
        self._epoch += 1
        if self._bulk_depth:
            self._pending_del.append(t)
        else:
            for index in self._indexes.values():
                index.remove(t)
        for listener in self._listeners:
            listener("delete", t)
        return t

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    @contextmanager
    def bulk(self):
        """Defer index maintenance for a batch of mutations.

        Mutations inside the block update the heap and fire listener events
        immediately; prefix indexes are brought up to date in one
        ``bulk_add``/``bulk_remove`` pass when the outermost block exits.
        Index-backed queries issued *inside* the block would see stale
        counts — the simulator only mutates between queries, so no such
        read exists in any supported workload.
        """
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                self._flush_pending()

    def _flush_pending(self) -> None:
        if (
            not self._pending_add
            and not self._pending_del
            and not self._pending_batches
        ):
            return
        adds, dels = self._pending_add, self._pending_del
        batches = self._pending_batches
        self._pending_add, self._pending_del = [], []
        self._pending_batches = []
        for index in self._indexes.values():
            for batch in batches:
                index.bulk_add_batch(batch)
            if adds:
                index.bulk_add(adds)
            if dels:
                index.bulk_remove(dels)

    def bulk_delete(self, tids: Iterable[int]) -> list[HiddenTuple]:
        """Delete many tids, paying one index merge for the whole batch."""
        with self.bulk():
            return [self.delete(tid) for tid in tids]

    def replace(self, t: HiddenTuple) -> None:
        """Swap the stored tuple with the same tid (measure updates)."""
        old = self._tuples.get(t.tid)
        block_row: tuple[_HeapBlock, int] | None = None
        if old is None:
            block_row = self._find_block(t.tid)
            if block_row is None:
                raise KeyError(t.tid)
            block, row = block_row
            old = block.materialize(row)
        if old.values != t.values:
            # Categorical change moves the tuple in every index; model it
            # as delete + insert so indexes and listeners stay consistent.
            self.delete(old.tid)
            self.insert(t)
            return
        if block_row is not None:
            # Update the frozen block's columns in place: index keys
            # depend only on (values, tid), and keeping the row in its
            # block preserves heap iteration order — and therefore the
            # per-tuple-reference parity of ``random_tids`` — under
            # measure drift.
            block, row = block_row
            block._unshare()
            block.batch.measures[row] = t.measures
            block.batch.scores[row] = t.score
            if block._score_list is not None:
                block._score_list[row] = t.score
        else:
            self._tuples[t.tid] = t
        self._epoch += 1
        for listener in self._listeners:
            listener("delete", old)
            listener("insert", t)

    def publish_epoch(self, round_index: int):
        """An immutable snapshot of the full store state — the HTAP read
        epoch (:class:`~repro.hiddendb.epoch.StoreEpoch`).

        Heap blocks become copy-on-write clones, the scalar dict remainder
        copies shallowly, and every prefix index freezes its key list.
        Callers must serialize the publish
        against writers, and must not publish mid-:meth:`bulk` (deferred
        index maintenance would be invisible to the snapshot); the engine's
        write lock provides both.  The returned epoch then serves reads
        forever without any lock: its content never changes, so its
        ``mutation_epoch`` is frozen and pages pinned to it can never go
        stale.
        """
        from .epoch import StoreEpoch

        return StoreEpoch(self, round_index)

    def random_tids(self, rng, count: int) -> list[int]:
        """Sample ``count`` distinct tids uniformly (for deletion schedules).

        The population is composed blocks-first then dict, which keeps it
        ascending by tid in every supported flow — so the sampled sequence
        is identical between columnar and per-tuple loads.
        """
        population: list[int] = []
        for block in self._blocks:
            population.extend(block.alive_tids())
        population.extend(self._tuples.keys())
        if count >= len(population):
            return population
        return rng.sample(population, count)
