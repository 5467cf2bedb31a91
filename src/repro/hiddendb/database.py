"""The dynamic hidden database (paper §2.1, round-update model).

A :class:`HiddenDatabase` owns a :class:`~repro.hiddendb.store.TupleStore`,
assigns ranking scores at insert time, tracks the current round index, and —
for the convenience of update schedules — hands out fresh tids.

The round-update model: mutations are applied, then :meth:`advance_round` is
called, and the database is considered static for the duration of the round
(estimators query it through :class:`~repro.hiddendb.interface.TopKInterface`).
The constant-update model of §5.2 simply mutates the database *between
queries* instead (see :class:`repro.data.schedules.IntraRoundDriver`).

Epoch double-buffering (HTAP overlap): :meth:`HiddenDatabase.publish_epoch`
freezes the live store into an immutable
:class:`~repro.hiddendb.epoch.StoreEpoch` and installs it as the published
read version.  Readers that enter a :func:`reading_epoch` scope resolve
:attr:`HiddenDatabase.read_store` (and :attr:`current_round`) against that
pinned epoch, so round-boundary churn on the live store can proceed
concurrently without invalidating in-flight estimator pages.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..obs import OBS
from .epoch import StoreEpoch
from .ranking import RandomScore, RankingPolicy, scores_for_batch
from .schema import Schema
from .store import TupleStore, get_data_plane
from .tuples import HiddenTuple, TupleBatch

#: Per-context (thread / task) epoch pin: ``(database, epoch)`` while inside
#: a :func:`reading_epoch` scope, ``None`` otherwise.
_epoch_pin: ContextVar["tuple[HiddenDatabase, StoreEpoch] | None"] = ContextVar(
    "repro_epoch_pin", default=None
)

# Import-time observability handles (see repro.obs).
_PUBLISH_SECONDS = OBS.histogram("repro_epoch_publish_seconds")
_PINNED_READERS = OBS.gauge("repro_epoch_pinned_readers")


@contextmanager
def reading_epoch(db: "HiddenDatabase", epoch: StoreEpoch):
    """Pin all reads of ``db`` in this context to ``epoch``.

    While the scope is active, ``db.read_store`` resolves to ``epoch`` and
    ``db.current_round`` reports the round the epoch was published for —
    estimators see one immutable version end to end even if the live store
    is being churned and re-published concurrently.
    """
    token = _epoch_pin.set((db, epoch))
    # Capture the enabled flag so a registry toggled mid-scope cannot
    # unbalance the gauge (inc without dec or vice versa).
    tracked = OBS.enabled
    if tracked:
        _PINNED_READERS.inc()
    try:
        yield epoch
    finally:
        _epoch_pin.reset(token)
        if tracked:
            _PINNED_READERS.dec()


class HiddenDatabase:
    """A dynamic hidden web database with round semantics."""

    def __init__(self, schema: Schema, ranking: RankingPolicy | None = None):
        self.schema = schema
        self.ranking = ranking if ranking is not None else RandomScore()
        self.store = TupleStore(schema)
        self._round = 1
        self._next_tid = 0
        self._published: StoreEpoch | None = None

    # ------------------------------------------------------------------
    # Round bookkeeping
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        """1-based index of the current round ``Ri``.

        Inside a :func:`reading_epoch` scope for this database, reports the
        round the pinned epoch was published for (the live counter may have
        advanced concurrently).
        """
        pin = _epoch_pin.get()
        if pin is not None and pin[0] is self:
            return pin[1].round_index
        return self._round

    def advance_round(self) -> int:
        """Start the next round and return its index."""
        self._round += 1
        return self._round

    # ------------------------------------------------------------------
    # Epoch double-buffering
    # ------------------------------------------------------------------
    @property
    def published(self) -> StoreEpoch | None:
        """The most recently published read epoch (``None`` before the
        first :meth:`publish_epoch`)."""
        return self._published

    @property
    def read_store(self) -> TupleStore:
        """The store reads should target in the current context.

        Resolves to the pinned epoch inside a :func:`reading_epoch` scope
        for this database, and to the live store otherwise.
        """
        pin = _epoch_pin.get()
        if pin is not None and pin[0] is self:
            return pin[1]
        return self.store

    def publish_epoch(self) -> StoreEpoch:
        """Freeze the live store and install it as the published epoch.

        Callers must serialize this against writers (the engine facade's
        write lock provides that); readers already pinned to the previous
        epoch are unaffected — their version stays readable until released.
        """
        if not OBS.enabled:
            self._published = self.store.publish_epoch(self._round)
            return self._published
        with OBS.span("round.publish_flip"):
            started = perf_counter()
            self._published = self.store.publish_epoch(self._round)
            _PUBLISH_SECONDS.observe(perf_counter() - started)
        return self._published

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def allocate_tid(self) -> int:
        """A fresh, never-used tuple id."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def insert(
        self,
        values: bytes | Sequence[int],
        measures: Sequence[float] = (),
        tid: int | None = None,
    ) -> HiddenTuple:
        """Insert a new tuple; its ranking score is assigned by the policy."""
        if tid is None:
            tid = self.allocate_tid()
        else:
            self._next_tid = max(self._next_tid, tid + 1)
        if not isinstance(values, bytes):
            values = bytes(values)
        t = HiddenTuple(tid, values, tuple(measures))
        t.score = self.ranking.score(t, self.schema)
        self.store.insert(t)
        return t

    def insert_tuple(self, t: HiddenTuple) -> HiddenTuple:
        """Insert a pre-built tuple (keeps its score — used by pools)."""
        self._next_tid = max(self._next_tid, t.tid + 1)
        self.store.insert(t)
        return t

    def delete(self, tid: int) -> HiddenTuple:
        """Delete a tuple by id and return it."""
        return self.store.delete(tid)

    def update_measures(self, tid: int, measures: Sequence[float]) -> HiddenTuple:
        """Replace a tuple's measures (e.g. a price change on a listing)."""
        updated = self.store.get(tid).with_measures(tuple(measures))
        self.store.replace(updated)
        return updated

    def bulk_load(self, tuples: Iterable[HiddenTuple]) -> int:
        """Insert many pre-built tuples; returns how many were loaded."""
        with self.store.bulk():
            count = 0
            for t in tuples:
                self.insert_tuple(t)
                count += 1
        return count

    def insert_batch(self, batch: TupleBatch) -> int:
        """Insert a columnar batch: one tid range, one score vector, one
        index merge.

        Semantically identical to inserting the batch's rows one by one
        with :meth:`insert` — same tid allocation, same ranking-policy
        score stream — but the whole batch stays columnar on the
        vectorized data plane (see :mod:`repro.hiddendb.store`).
        """
        n = len(batch)
        if n == 0:
            return 0
        tids = np.arange(self._next_tid, self._next_tid + n, dtype=np.int64)
        scores = scores_for_batch(self.ranking, batch, tids, self.schema)
        self._next_tid += n
        self.store.insert_batch(batch.with_identity(tids, scores))
        return n

    def insert_many(
        self,
        rows: (
            Iterable[tuple[bytes | Sequence[int], Sequence[float]]] | TupleBatch
        ),
    ) -> int:
        """Insert many ``(values, measures)`` payloads in one index merge.

        Semantically identical to calling :meth:`insert` per row (same tid
        allocation, same ranking-policy score stream) but the indexes are
        brought up to date with one bulk merge for the whole batch.  A
        :class:`TupleBatch` — or, on the vectorized data plane, any uniform
        payload list — takes the columnar fast path.
        """
        if isinstance(rows, TupleBatch):
            return self.insert_batch(rows)
        if get_data_plane() == "vectorized":
            rows = list(rows)
            if self._payloads_uniform(rows):
                return self.insert_batch(
                    TupleBatch.from_payloads(rows, len(self.schema.measures))
                )
        count = 0
        with self.store.bulk():
            for values, measures in rows:
                self.insert(values, measures)
                count += 1
        return count

    def _payloads_uniform(self, rows: list) -> bool:
        """True when payload rows can be packed into one value matrix."""
        num_attributes = self.schema.num_attributes
        num_measures = len(self.schema.measures)
        return bool(rows) and all(
            len(values) == num_attributes and len(measures) == num_measures
            for values, measures in rows
        )

    def bulk_delete(self, tids: Iterable[int]) -> list[HiddenTuple]:
        """Delete many tuples by id in one index merge; returns them."""
        return self.store.bulk_delete(tids)

    # ------------------------------------------------------------------
    # Introspection (simulator-side only; NOT visible to estimators)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.read_store)

    def tuples(self) -> Iterator[HiddenTuple]:
        return self.read_store.tuples()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HiddenDatabase(n={len(self)}, m={self.schema.num_attributes}, "
            f"round={self._round})"
        )
