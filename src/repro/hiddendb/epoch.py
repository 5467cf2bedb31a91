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
* every prefix index freezes its key list
  (:meth:`SortedKeyList.freeze
  <repro.hiddendb.store.SortedKeyList.freeze>`): one content copy per
  index that changed since the previous publish.

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
from bisect import bisect_left
from typing import Iterator

import numpy as np

from ..errors import ExperimentError
from .store import PrefixIndex, TupleStore

__all__ = [
    "FrozenPrefixIndex",
    "FrozenRun",
    "StoreEpoch",
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
    """An immutable sorted key multiset — a key list's frozen contents.

    Holds an int64 vector when every key fits 64 bits, else (for key
    universes beyond int64) a plain list of Python ints.  Implements the
    read methods of :class:`~repro.hiddendb.store.SortedKeyList`; mutation
    entry points raise.
    """

    __slots__ = ("_run", "_is_array")

    def __init__(self, keys):
        if isinstance(keys, np.ndarray):
            self._run = np.asarray(keys, dtype=np.int64)
            self._is_array = True
        else:
            self._run = list(keys)
            self._is_array = False

    def __len__(self) -> int:
        return len(self._run)

    def _bisect(self, key: int) -> int:
        """``bisect_left`` over the frozen run."""
        if self._is_array:
            if key >= _INT64_BOUND:
                return len(self._run)
            if key < -_INT64_BOUND:
                return 0
            return int(np.searchsorted(self._run, key, side="left"))
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
        """Keys in ``[lo, hi)`` as one vector (a zero-copy view of an
        int64 run)."""
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


class FrozenPrefixIndex(PrefixIndex):
    """A live prefix index's codec over its frozen key multiset.

    Shares the (immutable) codec and attribute order with the live index
    and swaps the key list for its frozen view, so every query
    method — ``count_prefix`` / ``iter_tids`` / ``range_tids`` — is
    inherited and bit-identical to querying the live index at the
    publish instant.
    """

    def __init__(self, live: PrefixIndex):
        # Deliberately no super().__init__: the codec and keys are adopted
        # from the live index, not rebuilt.
        self.attr_order = live.attr_order
        self.codec = live.codec
        self._keys = live._keys.freeze()

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
        self._tuples = dict(store._tuples)
        self._blocks = [block.snapshot() for block in store._blocks]
        self._block_los = list(store._block_los)
        self._size = store._size
        # Frozen forever: pages pinned to this epoch can never go stale.
        self._epoch = store._epoch
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

    def bulk_delete(self, tids):
        _frozen("bulk_delete from a published epoch")

    def subscribe(self, listener) -> None:
        _frozen("subscribe to a published epoch")
