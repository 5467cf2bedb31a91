"""Search results returned by the top-k interface.

A query either *underflows* (no match), is *valid* (1..k matches, all
returned), or *overflows* (more than k matches; only the top-k by the
proprietary score are returned, and the true count is NOT revealed).

Ranking an overflowing node would require scoring its entire (possibly
database-sized) answer set.  Estimators never read the tuples of an
overflowing result — only the flag — so materialisation is lazy: semantics
are identical to an eager interface, but the simulator only pays for ranking
when some consumer actually looks at the returned page.

The columnar query plane extends the same idea to *valid* pages: a
:class:`PageColumns` knows the matching count at query time (that decides
the status) but fetches the candidate columns, orders them with
:func:`top_k_select`, and materialises :class:`HiddenTuple` objects only on
first access.  The fetch is epoch-guarded by the interface, so a deferred
page can never silently reflect post-query database state.
"""

from __future__ import annotations

import enum
import heapq
from typing import Callable, Iterable, Sequence

import numpy as np

from .tuples import HiddenTuple, TupleBatch


class QueryStatus(enum.Enum):
    """Outcome class of a search query (paper §2.1)."""

    UNDERFLOW = "underflow"
    VALID = "valid"
    OVERFLOW = "overflow"


def top_k_select(
    scores: np.ndarray, tids: np.ndarray, k: int
) -> np.ndarray:
    """Row indices of the top-k page, in page order — the columnar twin of
    :func:`top_k_by_score`.

    Page order is (score desc, tid asc); tids are unique, so the order is
    total and must match ``top_k_by_score`` exactly (property-tested).  For
    ``n > k`` an ``np.argpartition`` pass narrows the candidates to the
    boundary score before the (much smaller) exact lexsort.
    """
    scores = np.asarray(scores, dtype=np.float64)
    tids = np.asarray(tids, dtype=np.int64)
    n = len(scores)
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.intp)
    if n <= k:
        return np.lexsort((tids, -scores))
    # Positions n-k..n-1 of the ascending partition hold the k largest
    # scores; the value at n-k is the page's boundary score.  Every row
    # tied with the boundary stays a candidate so the tid tie-break is
    # decided by the exact sort, not by partition order.
    boundary = scores[np.argpartition(scores, n - k)[n - k]]
    candidates = np.flatnonzero(scores >= boundary)
    order = candidates[np.lexsort((tids[candidates], -scores[candidates]))]
    return order[:k]


class PageColumns:
    """Deferred columnar page of one valid query result.

    ``matching`` (the number of matching tuples) is known at query time;
    ``fetch`` returns the candidates as a
    :class:`~repro.hiddendb.store.GatheredRows` (column vectors plus exact
    per-row materialization) and is called at most once, on first access.
    The interface's fetch closures raise
    :class:`~repro.errors.StaleResultError` when the store has mutated
    since the query, so deferral is observationally identical to an eager
    page in every supported workload.
    """

    __slots__ = ("matching", "k", "_fetch", "_rows", "_order")

    def __init__(self, matching: int, k: int, fetch: Callable):
        self.matching = matching
        self.k = k
        self._fetch = fetch
        self._rows = None
        self._order: np.ndarray | None = None

    @property
    def page_size(self) -> int:
        """Number of tuples the materialised page will contain."""
        return min(self.matching, self.k)

    def resolve(self):
        """Fetch (once) and return the candidate rows (``GatheredRows``)."""
        if self._rows is None:
            self._rows = self._fetch()
            self._fetch = None  # the closure pins store objects; drop it
        return self._rows

    def order(self) -> np.ndarray:
        """Candidate row indices of the page, in page order."""
        if self._order is None:
            batch = self.resolve().batch
            self._order = top_k_select(batch.scores, batch.tids, self.k)
        return self._order

    def page_batch(self) -> TupleBatch:
        """The page as a columnar batch, rows in page order."""
        batch = self.resolve().batch
        order = self.order()
        return TupleBatch(
            batch.values[order],
            batch.measures[order],
            batch.tids[order],
            batch.scores[order],
        )

    def materialize(self) -> list[HiddenTuple]:
        """Build the page's tuples (page order)."""
        rows = self.resolve()
        return [rows.materialize_row(int(row)) for row in self.order()]


class QueryResult:
    """Result page of one search query.

    Attributes
    ----------
    status:
        Underflow / valid / overflow classification.
    k:
        The interface's page size.
    page:
        Deferred columnar page (columnar query plane, valid results only),
        or ``None``.  Consumers that only need the page's column totals
        (see :meth:`repro.core.aggregates.AggregateSpec.contribution`) read
        it without materialising tuples.
    """

    __slots__ = ("status", "k", "page", "_tuples", "_loader")

    def __init__(
        self,
        status: QueryStatus,
        k: int,
        tuples: Sequence[HiddenTuple] | None = None,
        loader: Callable[[], Sequence[HiddenTuple]] | None = None,
        page: PageColumns | None = None,
    ):
        self.status = status
        self.k = k
        self.page = page
        self._tuples = tuple(tuples) if tuples is not None else None
        self._loader = loader

    @property
    def overflow(self) -> bool:
        return self.status is QueryStatus.OVERFLOW

    @property
    def underflow(self) -> bool:
        return self.status is QueryStatus.UNDERFLOW

    @property
    def valid(self) -> bool:
        return self.status is QueryStatus.VALID

    @property
    def tuples(self) -> tuple[HiddenTuple, ...]:
        """The returned page: all matches if valid, top-k if overflowing."""
        if self._tuples is None:
            if self._loader is not None:
                self._tuples = tuple(self._loader())
                self._loader = None
            elif self.page is not None:
                self._tuples = tuple(self.page.materialize())
            else:
                self._tuples = ()
        return self._tuples

    def freeze(self) -> None:
        """Pin a deferred page against later store mutations.

        Called by :class:`~repro.hiddendb.session.QuerySession` before its
        ``on_query`` hook fires (the hook is how the intra-round driver
        mutates the database between queries).  Overflow loaders are left
        lazy, exactly like the per-tuple reference — prefix loaders
        re-read the index at access time and scan loaders rank a
        query-time snapshot — so a post-mutation read (e.g. a
        leaf-overflow outcome consumed mid-round) matches the reference.
        """
        if self._tuples is None and self.page is not None:
            self.page.resolve()

    def __len__(self) -> int:
        if self._tuples is None and self.page is not None:
            return self.page.page_size
        return len(self.tuples)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"QueryResult({self.status.value}, k={self.k})"


def top_k_by_score(
    candidates: Iterable[HiddenTuple], k: int
) -> list[HiddenTuple]:
    """Top-k tuples by (score desc, tid asc) — the interface's page order."""
    return heapq.nsmallest(k, candidates, key=lambda t: (-t.score, t.tid))
