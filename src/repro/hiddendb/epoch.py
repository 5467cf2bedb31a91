"""Published read epochs: immutable snapshots of a :class:`TupleStore`.

The HTAP split of the engine facade (``EngineConfig(overlap=True)``) runs
round-boundary churn *concurrently* with estimator queries.  That only
works if the analytical readers never observe the transactional writers —
so writers mutate the live store while readers are pinned to a
:class:`StoreEpoch`: a frozen, fully self-contained snapshot produced by
an atomic publish flip (:meth:`TupleStore.publish_epoch
<repro.hiddendb.store.TupleStore.publish_epoch>`, called under the
engine's write lock at every ``advance_round``).

A publish is cheap by construction:

* heap blocks become copy-on-write clones
  (:meth:`~repro.hiddendb.store._HeapBlock.snapshot`) — no column copies
  until churn actually touches a shared block;
* the scalar dict remainder copies shallowly
  (:class:`~repro.hiddendb.tuples.HiddenTuple` is never mutated in
  place);
* every prefix index freezes its storage backend
  (:func:`freeze_backend`): the packing engines hand their sorted run
  over *by reference* (compactions replace runs, never mutate them), the
  blocked engine pays one content copy.

The epoch's ``mutation_epoch`` counter is frozen at publish time, so
deferred result pages pinned to an epoch can never raise
:class:`~repro.errors.StaleResultError` — exactly the guarantee that lets
reads started before a publish flip keep resolving after churn lands.

Because :class:`StoreEpoch` *is* a :class:`TupleStore` (same heap layout,
same index table, custom construction), the whole read path — ``get`` /
``gather`` / ``scan_match`` / ``tuples`` / ``ensure_index`` — is
inherited verbatim: epoch reads are bit-identical to reading the live
store at the publish instant, by construction rather than by reimplementation.
Mutation entry points raise :class:`~repro.errors.ExperimentError`.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from typing import Iterator

import numpy as np

from ..errors import ExperimentError
from .store import PrefixIndex, TupleStore

__all__ = [
    "FrozenBuffered",
    "FrozenPrefixIndex",
    "FrozenRun",
    "StoreEpoch",
    "freeze_backend",
]

#: Exclusive int64 bound — rank probes at or past it clamp to the run end
#: instead of overflowing ``np.searchsorted``'s needle conversion.
_INT64_BOUND = 2**63


def _frozen(operation: str):
    raise ExperimentError(
        f"cannot {operation}: published epochs are immutable read "
        "snapshots — mutate the live store and publish a new epoch"
    )


class FrozenRun:
    """An immutable sorted key multiset — one backend's frozen contents.

    Holds either an int64 vector (zero-copy view of a packed engine's
    run, or a copy of a blocked engine's contents) or, for key universes
    beyond int64, a plain list of Python ints with the packed engine's
    top-63-bits probe array riding along for C-speed window narrowing.

    Implements the read subset of the
    :class:`~repro.hiddendb.backends.StorageBackend` protocol; mutation
    entry points raise.
    """

    __slots__ = ("_run", "_is_array", "_run_hi", "_hi_shift", "_key_bound")

    def __init__(
        self,
        keys,
        run_hi: np.ndarray | None = None,
        hi_shift: int = 0,
        key_bound: int | None = None,
    ):
        if isinstance(keys, array):
            # A packed engine's array('q') run: zero-copy int64 view (the
            # view keeps the buffer alive; the engine only ever *replaces*
            # its run, so the contents can never change underneath).
            self._run = (
                np.frombuffer(keys, dtype=np.int64)
                if len(keys)
                else np.empty(0, dtype=np.int64)
            )
            self._is_array = True
        elif isinstance(keys, np.ndarray):
            self._run = np.asarray(keys, dtype=np.int64)
            self._is_array = True
        else:
            self._run = list(keys)
            self._is_array = False
        self._run_hi = run_hi
        self._hi_shift = hi_shift
        self._key_bound = key_bound

    def __len__(self) -> int:
        return len(self._run)

    def _bisect(self, key: int) -> int:
        """``bisect_left`` over the frozen run, probe-accelerated when
        the run holds wide Python ints."""
        if self._is_array:
            if key >= _INT64_BOUND:
                return len(self._run)
            if key < -_INT64_BOUND:
                return 0
            return int(np.searchsorted(self._run, key, side="left"))
        run_hi = self._run_hi
        if (
            run_hi is not None
            and self._key_bound is not None
            and 0 <= key < self._key_bound
        ):
            probe = key >> self._hi_shift
            lo = int(np.searchsorted(run_hi, probe, side="left"))
            hi = int(np.searchsorted(run_hi, probe, side="right"))
            return bisect_left(self._run, key, lo, hi)
        return bisect_left(self._run, key)

    def rank(self, key: int) -> int:
        """Number of stored keys strictly smaller than ``key``."""
        return self._bisect(key)

    def count_range(self, lo: int, hi: int) -> int:
        """Number of keys in the half-open interval ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self._bisect(hi) - self._bisect(lo)

    def range_keys(self, lo: int, hi: int) -> "np.ndarray | list[int]":
        """Keys in ``[lo, hi)`` as one vector (zero-copy view when packed)."""
        if hi <= lo:
            return (
                np.empty(0, dtype=np.int64) if self._is_array else []
            )
        return self._run[self._bisect(lo):self._bisect(hi)]

    def iter_range(self, lo: int, hi: int) -> Iterator[int]:
        """Yield keys in ``[lo, hi)`` in ascending order."""
        return iter(self.range_keys(lo, hi))

    def __contains__(self, key: int) -> bool:
        return self.count_range(key, key + 1) > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._run)

    def add(self, key: int) -> None:
        _frozen("add to a frozen run")

    def remove(self, key: int) -> None:
        _frozen("remove from a frozen run")

    def bulk_add(self, keys) -> None:
        _frozen("bulk_add to a frozen run")

    def bulk_remove(self, keys) -> None:
        _frozen("bulk_remove from a frozen run")

    def check_invariants(self) -> None:
        """Validate internal structure (used by property tests)."""
        run = list(self._run)
        assert run == sorted(run), "unsorted frozen run"
        if self._run_hi is not None:
            assert len(self._run_hi) == len(run), "stale probe array"


class FrozenBuffered:
    """A frozen *buffered* engine state — run plus pending churn buffers.

    Produced by the packing engines' ``freeze()`` when insert/delete
    buffers are non-empty at publish time: rather than eagerly compacting
    the whole O(n) run into a fresh one (work the live lazy-merge read
    path never does), the engine hands over a point-in-time clone of
    itself — shared immutable run, *copied* small tail/dead buffers — and
    this wrapper exposes its read methods while refusing mutation.  Reads
    execute the exact live query code (run bisect + tail/dead buffer
    adjustment), so frozen answers are bit-identical to live answers at
    the publish instant by construction, and a publish flip costs
    O(pending churn) instead of O(n).
    """

    __slots__ = ("_view",)

    def __init__(self, view):
        self._view = view

    def __len__(self) -> int:
        return len(self._view)

    def __contains__(self, key: int) -> bool:
        return key in self._view

    def __iter__(self) -> Iterator[int]:
        return iter(self._view)

    def rank(self, key: int) -> int:
        """Number of stored keys strictly smaller than ``key``."""
        return self._view.rank(key)

    def count_range(self, lo: int, hi: int) -> int:
        """Number of keys in the half-open interval ``[lo, hi)``."""
        return self._view.count_range(lo, hi)

    def iter_range(self, lo: int, hi: int) -> Iterator[int]:
        """Yield keys in ``[lo, hi)`` in ascending order."""
        return self._view.iter_range(lo, hi)

    def range_keys(self, lo: int, hi: int) -> "np.ndarray | list[int]":
        """Keys in ``[lo, hi)`` as one vector (zero-copy run slice when
        no buffered key falls inside the range)."""
        return self._view.range_keys(lo, hi)

    def add(self, key: int) -> None:
        _frozen("add to a frozen buffered view")

    def remove(self, key: int) -> None:
        _frozen("remove from a frozen buffered view")

    def bulk_add(self, keys) -> None:
        _frozen("bulk_add to a frozen buffered view")

    def bulk_remove(self, keys) -> None:
        _frozen("bulk_remove from a frozen buffered view")

    def check_invariants(self) -> None:
        """Validate the underlying clone (used by property tests)."""
        self._view.check_invariants()


def freeze_backend(backend):
    """Freeze any storage backend into an immutable read view.

    Backends that know how (:meth:`PackedArrayBackend.freeze
    <repro.hiddendb.backends.PackedArrayBackend.freeze>` and friends)
    produce the cheapest view they can; third-party engines degrade to a
    one-pass content copy with identical query results.
    """
    freeze = getattr(backend, "freeze", None)
    if freeze is not None:
        return freeze()
    keys = list(backend)
    try:
        return FrozenRun(np.asarray(keys, dtype=np.int64))
    except OverflowError:
        return FrozenRun(keys)


class FrozenPrefixIndex(PrefixIndex):
    """A live prefix index's codec over its frozen key multiset.

    Shares the (immutable) codec and attribute order with the live index
    and swaps the storage backend for its frozen view, so every query
    method — ``count_prefix`` / ``iter_tids`` / ``range_tids`` — is
    inherited and bit-identical to querying the live index at the
    publish instant.
    """

    def __init__(self, live: PrefixIndex):
        # Deliberately no super().__init__: the codec/backend are adopted
        # from the live index, not rebuilt.
        self.attr_order = live.attr_order
        self.backend_name = live.backend_name
        self.codec = live.codec
        self._keys = freeze_backend(live._keys)

    def add(self, t) -> None:
        _frozen("index into a frozen prefix index")

    def remove(self, t) -> None:
        _frozen("unindex from a frozen prefix index")

    def bulk_add(self, tuples) -> None:
        _frozen("bulk_add into a frozen prefix index")

    def bulk_remove(self, tuples) -> None:
        _frozen("bulk_remove from a frozen prefix index")

    def bulk_add_batch(self, batch) -> None:
        _frozen("bulk_add_batch into a frozen prefix index")


class StoreEpoch(TupleStore):
    """A published, immutable snapshot of a :class:`TupleStore`.

    Built by :meth:`TupleStore.publish_epoch
    <repro.hiddendb.store.TupleStore.publish_epoch>` under the engine's
    write lock; thereafter served lock-free to any number of readers.
    Carries :attr:`round_index` — the round the publish flip installed —
    so estimators pinned to the epoch report against a stable round even
    while the live database advances underneath them.

    The entire read path is inherited from :class:`TupleStore` (the
    snapshot *is* a tuple store, frozen): ``get``, ``gather``,
    ``scan_match``, ``tuples``, ``segments``, ``random_tids``, index
    queries, and even :meth:`ensure_index` — an attribute order first
    queried mid-round builds an epoch-local index from the frozen heap,
    exactly what the live store would have built at publish time.
    Mutations raise :class:`~repro.errors.ExperimentError`.
    """

    def __init__(self, store: TupleStore, round_index: int):
        # Deliberately no super().__init__: every field is adopted from
        # the live store as a snapshot, not rebuilt empty.
        self.schema = store.schema
        self.backend_name = store.backend_name
        self._block_size = store._block_size
        self._tuples = dict(store._tuples)
        self._blocks = [block.snapshot() for block in store._blocks]
        self._block_los = list(store._block_los)
        self._size = store._size
        # Frozen forever: pages pinned to this epoch can never go stale.
        self._epoch = store._epoch
        self._read_cache = (store._epoch, {})
        self._indexes = {
            key: FrozenPrefixIndex(index)
            for key, index in store._indexes.items()
        }
        self._index_lock = threading.Lock()
        self._listeners = []
        self._bulk_depth = 0
        self._pending_add = []
        self._pending_del = []
        self._pending_batches = []
        self.round_index = int(round_index)

    def insert(self, t) -> None:
        _frozen("insert into a published epoch")

    def insert_batch(self, batch) -> int:
        _frozen("insert_batch into a published epoch")

    def delete(self, tid: int):
        _frozen("delete from a published epoch")

    def replace(self, t) -> None:
        _frozen("replace in a published epoch")

    def bulk_insert(self, tuples) -> int:
        _frozen("bulk_insert into a published epoch")

    def bulk_delete(self, tids):
        _frozen("bulk_delete from a published epoch")

    def subscribe(self, listener) -> None:
        _frozen("subscribe to a published epoch")
