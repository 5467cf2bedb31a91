"""The per-tuple reference plane that parity tests compare production with.

Production loads and queries columnar only.  This module keeps the
per-tuple twin of each columnar entry point, and :func:`reference_plane`
patches the twins in for a scope:

* ``TupleStore.insert_batch`` and ``HiddenDatabase.insert_many`` insert
  one tuple at a time inside ``store.bulk()``;
* ``PrefixIndex.bulk_add_batch`` indexes ``batch.iter_tuples()``;
* ``TopKInterface._evaluate_prefix`` ranks ``store.get(tid)`` over
  ``index.iter_tids(prefix)`` with ``top_k_by_score``: valid pages are
  built eagerly, overflow loaders read the index again on access;
* ``TopKInterface._evaluate_scan`` filters a query-time snapshot of
  ``db.tuples()`` with ``query.matches``.

The twins never call ``range_tids``, ``gather``, ``scan_match``,
``top_k_select`` or ``encode_many``: those are the code they check
(``test_query_plane_parity.py`` guards this).  The patches are class
attributes, so every engine, thread and HTTP worker inside the scope runs
the reference.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.errors import SchemaError
from repro.hiddendb.database import HiddenDatabase
from repro.hiddendb.interface import TopKInterface
from repro.hiddendb.result import QueryResult, QueryStatus, top_k_by_score
from repro.hiddendb.store import PrefixIndex, TupleStore
from repro.hiddendb.tuples import TupleBatch


def bulk_add_batch(self, batch):
    self.bulk_add(batch.iter_tuples())


def insert_batch(self, batch):
    n = len(batch)
    if n == 0:
        return 0
    if batch.tids is None or batch.scores is None:
        raise SchemaError("insert_batch requires an identified batch")
    with self.bulk():
        for t in batch.iter_tuples():
            self.insert(t)
    return n


def insert_many(self, rows):
    if isinstance(rows, TupleBatch):
        return self.insert_batch(rows)
    count = 0
    with self.store.bulk():
        for values, measures in rows:
            self.insert(values, measures)
            count += 1
    return count


def evaluate_prefix(self, attr_order, prefix_values):
    store = self.db.read_store
    index = store.ensure_index(attr_order)
    matching = index.count_prefix(prefix_values)
    if matching == 0:
        return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())

    def load_page():
        return top_k_by_score(
            (store.get(tid) for tid in index.iter_tids(prefix_values)),
            self.k,
        )

    if matching <= self.k:
        return QueryResult(QueryStatus.VALID, self.k, tuples=load_page())
    return QueryResult(QueryStatus.OVERFLOW, self.k, loader=load_page)


def evaluate_scan(self, query):
    matches = [t for t in self.db.tuples() if query.matches(t)]
    if not matches:
        return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
    if len(matches) <= self.k:
        return QueryResult(
            QueryStatus.VALID, self.k, tuples=top_k_by_score(matches, self.k)
        )
    return QueryResult(
        QueryStatus.OVERFLOW,
        self.k,
        loader=lambda: top_k_by_score(matches, self.k),
    )


_TWINS = (
    (PrefixIndex, "bulk_add_batch", bulk_add_batch),
    (TupleStore, "insert_batch", insert_batch),
    (HiddenDatabase, "insert_many", insert_many),
    (TopKInterface, "_evaluate_prefix", evaluate_prefix),
    (TopKInterface, "_evaluate_scan", evaluate_scan),
)


@contextlib.contextmanager
def reference_plane():
    """Run the scope on the per-tuple twins; the originals return on exit."""
    with contextlib.ExitStack() as patches:
        for owner, attr, twin in _TWINS:
            patches.enter_context(mock.patch.object(owner, attr, twin))
        yield


def plane(name: str):
    """:func:`reference_plane` for ``"scalar"``, production otherwise, so
    parametrized tests keep their ``vectorized`` / ``scalar`` ids."""
    if name == "scalar":
        return reference_plane()
    return contextlib.nullcontext()
