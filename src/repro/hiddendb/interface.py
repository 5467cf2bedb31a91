"""The restrictive top-k search interface (paper §2.1).

This is the *only* channel estimators may use to see the database.  A query
returns at most ``k`` tuples chosen by the proprietary ranking; whether more
matches exist is revealed only through the overflow flag (no counts).

Query evaluation strategy:

* If the query's predicate attributes are a prefix of some registered
  attribute order, the matching set is a contiguous range in that order's
  :class:`~repro.hiddendb.store.PrefixIndex` — count via two bisects, page
  materialised lazily.
* Otherwise (ad-hoc conjunctions) evaluation falls back to a full scan.
  The scan path doubles as the correctness oracle in property tests.

Both strategies are columnar: candidate tids come from the index as
vectors (:meth:`PrefixIndex.range_tids`), scan predicates are matched
against the frozen blocks' value matrices (:meth:`TupleStore.scan_match`),
and a valid result carries a deferred
:class:`~repro.hiddendb.result.PageColumns`: page selection
(``np.argpartition`` + exact lexsort, tie-broken ``(-score, tid)`` exactly
like :func:`~repro.hiddendb.result.top_k_by_score`) and tuple
materialisation run only when a consumer reads the page.  The per-tuple
reference evaluation (``store.get`` plus ``top_k_by_score``) lives in
``tests/oracle.py``, which the parity tests compare this module against.

Deferred *valid* pages are pinned to the store's mutation epoch and raise
:class:`~repro.errors.StaleResultError` rather than reflect post-query
state (the reference computes them eagerly); the intra-round update driver
is safe because :class:`~repro.hiddendb.session.QuerySession` freezes
results before its mutation hook fires.  *Overflow* pages keep the
reference's lazy semantics path by path: prefix loaders re-read the
current index state at access, scan loaders rank a query-time snapshot.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from ..errors import StaleResultError
from ..obs import OBS
from .database import HiddenDatabase
from .query import ConjunctiveQuery
from .result import PageColumns, QueryResult, QueryStatus, top_k_select
from .tuples import HiddenTuple


#: Registry handles per query status, created once at import so the hot
#: path (``search``) never takes the registry's get-or-create lock.
_STATUS_COUNTERS = {
    QueryStatus.UNDERFLOW: OBS.counter(
        "repro_queries_total", {"status": "underflow"}
    ),
    QueryStatus.VALID: OBS.counter(
        "repro_queries_total", {"status": "valid"}
    ),
    QueryStatus.OVERFLOW: OBS.counter(
        "repro_queries_total", {"status": "overflow"}
    ),
}


class InterfaceStats:
    """Simulator-side counters (a real site would keep these server-side).

    Updates run under a per-instance lock, so observers reading from
    another thread while a round runs (telemetry, ``Engine.metrics()``)
    always see a consistent ``queries == underflow + valid + overflow``
    snapshot.
    """

    __slots__ = ("queries", "underflow", "valid", "overflow", "_lock")

    def __init__(self) -> None:
        self.queries = 0
        self.underflow = 0
        self.valid = 0
        self.overflow = 0
        self._lock = threading.Lock()

    def record(self, status: QueryStatus) -> None:
        with self._lock:
            self.queries += 1
            if status is QueryStatus.UNDERFLOW:
                self.underflow += 1
            elif status is QueryStatus.VALID:
                self.valid += 1
            else:
                self.overflow += 1
        if OBS.enabled:
            _STATUS_COUNTERS[status].inc()

    def merge(self, other: "InterfaceStats") -> None:
        """Fold another stats object into this one (both stay valid).

        Snapshots ``other`` first, then adds under this instance's lock —
        never holding both, so concurrent merges cannot deadlock.
        """
        snapshot = other.to_dict()
        with self._lock:
            self.queries += snapshot["queries"]
            self.underflow += snapshot["underflow"]
            self.valid += snapshot["valid"]
            self.overflow += snapshot["overflow"]

    def to_dict(self) -> dict[str, int]:
        """Consistent counter snapshot (stable keys)."""
        with self._lock:
            return {
                "queries": self.queries,
                "underflow": self.underflow,
                "valid": self.valid,
                "overflow": self.overflow,
            }


class TopKInterface:
    """Search endpoint of a hidden database with page size ``k``."""

    def __init__(self, db: HiddenDatabase, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.db = db
        self.k = k
        self.stats = InterfaceStats()

    @property
    def schema(self):
        return self.db.schema

    @property
    def current_round(self) -> int:
        """Round index, as a client could infer from wall-clock time."""
        return self.db.current_round

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def search(self, query: ConjunctiveQuery) -> QueryResult:
        """Execute one conjunctive search query."""
        query.validate(self.db.schema)
        result = self._evaluate(query)
        self.stats.record(result.status)
        return result

    def _evaluate(self, query: ConjunctiveQuery) -> QueryResult:
        prefix = self._match_prefix_order(query)
        if prefix is not None:
            attr_order, prefix_values = prefix
            return self._evaluate_prefix(attr_order, prefix_values)
        return self._evaluate_scan(query)

    def register_attr_order(self, attr_order: Sequence[int]) -> None:
        """Pre-register an attribute order so its queries use the index.

        Resolves against the context's read store: inside an epoch-pinned
        round this builds an epoch-local index from the frozen heap and
        leaves the live store (being churned concurrently) untouched.
        """
        self.db.read_store.ensure_index(attr_order)

    def _match_prefix_order(
        self, query: ConjunctiveQuery
    ) -> tuple[tuple[int, ...], list[int]] | None:
        """Find a registered order whose prefix covers the query's attributes."""
        # Iterate a snapshot: another tenant's thread may register a new
        # index (ensure_index) while this query plans.
        if not query.predicates:
            # Root query: any registered index (or none yet) works.
            for attr_order in self.db.read_store.index_orders():
                return attr_order, []
            return None
        wanted = {a: v for a, v in query.predicates}
        for attr_order in self.db.read_store.index_orders():
            head = attr_order[: len(wanted)]
            if set(head) == set(wanted):
                return attr_order, [wanted[a] for a in head]
        return None

    def _epoch_guarded(self, fetch: Callable) -> Callable:
        """Pin a deferred column fetch / page load to the current store state.

        Captures the context's read store: a page pinned to a published
        :class:`~repro.hiddendb.epoch.StoreEpoch` can never go stale (the
        epoch's mutation counter is frozen), so overlapped churn on the
        live store does not invalidate reads started before the flip.
        """
        store = self.db.read_store
        epoch = store.mutation_epoch

        def guarded():
            if store.mutation_epoch != epoch:
                raise StaleResultError(
                    "result page read after a database mutation; read "
                    "pages before mutating (QuerySession freezes them "
                    "ahead of its on_query hook)"
                )
            return fetch()
        return guarded

    def _evaluate_prefix(
        self, attr_order: Sequence[int], prefix_values: list[int]
    ) -> QueryResult:
        store = self.db.read_store
        index = store.ensure_index(attr_order)
        matching = index.count_prefix(prefix_values)
        if matching == 0:
            return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
        if matching <= self.k:
            fetch = self._epoch_guarded(
                lambda: store.gather(index.range_tids(prefix_values))
            )
            return QueryResult(
                QueryStatus.VALID,
                self.k,
                page=PageColumns(matching, self.k, fetch),
            )

        def load_page() -> list[HiddenTuple]:
            # Overflow pages re-read the index at access time
            # (leaf-overflow outcomes are read mid-round by the
            # intra-round driver), so no epoch guard here: the reference
            # loader has the identical read-at-access semantics.
            rows = store.gather(index.range_tids(prefix_values))
            batch = rows.batch
            order = top_k_select(batch.scores, batch.tids, self.k)
            return [rows.materialize_row(int(row)) for row in order]

        return QueryResult(QueryStatus.OVERFLOW, self.k, loader=load_page)

    def _evaluate_scan(self, query: ConjunctiveQuery) -> QueryResult:
        """Full-scan evaluation for arbitrary conjunctions."""
        store = self.db.read_store
        tids, scores = store.scan_match(query.predicates)
        matching = len(tids)
        if matching == 0:
            return QueryResult(QueryStatus.UNDERFLOW, self.k, tuples=())
        if matching <= self.k:
            fetch = self._epoch_guarded(lambda: store.gather(tids))
            return QueryResult(
                QueryStatus.VALID,
                self.k,
                page=PageColumns(matching, self.k, fetch),
            )
        # The reference scan captures its match list eagerly and only
        # ranks it on access; mirror that snapshot semantics exactly by
        # selecting and gathering the page rows now (k rows — cheap next
        # to the scan itself) and deferring just the materialization.
        rows = store.gather(tids[top_k_select(scores, tids, self.k)])
        return QueryResult(
            QueryStatus.OVERFLOW,
            self.k,
            loader=lambda: [
                rows.materialize_row(row) for row in range(len(rows))
            ],
        )
