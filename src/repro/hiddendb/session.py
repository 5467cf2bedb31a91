"""Per-round query sessions with hard budget enforcement.

Real hidden databases limit queries per IP / API key per day (the paper's
``G``).  A :class:`QuerySession` wraps an interface with a budget counter
that raises :class:`~repro.errors.QueryBudgetExhausted` once spent — charged
queries stay charged, exactly like a metered web API.

The optional within-round answer cache models a client that remembers
answers it already received this round (issuing the same URL twice costs a
second request on a real site, which is the paper's accounting — hence the
cache defaults to off; turning it on is the "client cache" ablation).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from ..errors import QueryBudgetExhausted
from .interface import TopKInterface
from .query import ConjunctiveQuery
from .result import QueryResult


class QuerySession:
    """A budgeted client connection to a hidden database interface."""

    def __init__(
        self,
        interface: TopKInterface,
        budget: int | None = None,
        cache_within_round: bool = False,
        on_query: Callable[[], None] | None = None,
    ):
        self.interface = interface
        self.budget = budget
        self.cache_within_round = cache_within_round
        self.queries_used = 0
        self._cache: dict[ConjunctiveQuery, QueryResult] = {}
        # Hook invoked after every charged query; used by the intra-round
        # update driver to interleave database mutations with query traffic.
        self._on_query = on_query

    @property
    def k(self) -> int:
        return self.interface.k

    @property
    def stats(self):
        """The interface's query counters (simulator-side metadata)."""
        return self.interface.stats

    @property
    def remaining(self) -> int | None:
        """Queries left in the budget (None = unlimited)."""
        if self.budget is None:
            return None
        return self.budget - self.queries_used

    def can_afford(self, queries: int = 1) -> bool:
        """True if at least ``queries`` more requests fit in the budget."""
        return self.budget is None or self.queries_used + queries <= self.budget

    @contextmanager
    def reading(self, epoch=None):
        """Pin every query issued inside the scope to a published epoch.

        Session-level sugar over :func:`~repro.hiddendb.database.reading_epoch`
        (which the engine's overlap-mode rounds enter directly):
        everything inside the scope resolves against one immutable
        :class:`~repro.hiddendb.epoch.StoreEpoch` while round-boundary
        churn lands on the live store concurrently.
        ``epoch=None`` is a no-op scope (sequential mode), so call sites
        need no branching.  Context-local: other threads must enter the
        scope themselves (context variables are not inherited).
        """
        if epoch is None:
            yield self
            return
        from .database import reading_epoch

        with reading_epoch(self.interface.db, epoch):
            yield self

    def search(self, query: ConjunctiveQuery) -> QueryResult:
        """Issue one search query, charging the budget.

        Raises
        ------
        QueryBudgetExhausted
            If the budget is already spent.  The offending query is *not*
            executed (the client knows its own budget and does not fire a
            request it cannot pay for).
        """
        if self.cache_within_round:
            cached = self._cache.get(query)
            if cached is not None:
                return cached
        if not self.can_afford():
            raise QueryBudgetExhausted(self.budget or 0)
        self.queries_used += 1
        result = self.interface.search(query)
        if self._on_query is not None:
            # The hook mutates the database (intra-round update model), so
            # pin the deferred page to pre-mutation state before it
            # fires — mirroring the per-tuple reference's eager pages.
            result.freeze()
        if self.cache_within_round:
            self._cache[query] = result
        if self._on_query is not None:
            self._on_query()
        return result

    def reset_round(self, budget: int | None = None) -> None:
        """Start a new round: clear the cache, restart the budget counter."""
        if budget is not None:
            self.budget = budget
        self.queries_used = 0
        self._cache.clear()
