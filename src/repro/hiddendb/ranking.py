"""Proprietary scoring functions for the top-k interface.

The paper treats the ranking function as an opaque, database-controlled
choice (§2.1).  The simulator supports pluggable policies; the estimators
never inspect scores, so the policy only matters for which k tuples a valid
query's caller *sees* — exactly as on a real site.
"""

from __future__ import annotations

import random
from typing import Protocol

import numpy as np

from .schema import Schema
from .tuples import HiddenTuple, TupleBatch


class RankingPolicy(Protocol):
    """Assigns the static ranking score of a tuple at insert time.

    Policies may additionally implement ``score_batch(batch, tids, schema)
    -> np.ndarray`` to score a columnar batch without materializing
    tuples; it must draw from the same stream as per-tuple :meth:`score`
    calls in row order (see :func:`scores_for_batch`).
    """

    def score(self, t: HiddenTuple, schema: Schema) -> float:
        """Higher scores rank earlier in search results."""
        ...


def scores_for_batch(
    policy: "RankingPolicy",
    batch: TupleBatch,
    tids: np.ndarray,
    schema: Schema,
) -> np.ndarray:
    """Score vector of a batch, matching the per-tuple score stream.

    Uses the policy's ``score_batch`` fast path when it has one; otherwise
    materializes each row and calls :meth:`RankingPolicy.score` exactly as
    the scalar insert path would, so third-party policies keep working.
    """
    score_batch = getattr(policy, "score_batch", None)
    if score_batch is not None:
        return np.asarray(score_batch(batch, tids, schema), dtype=np.float64)
    scores = np.empty(len(batch), dtype=np.float64)
    for row in range(len(batch)):
        t = HiddenTuple(
            int(tids[row]), batch.values[row].tobytes(),
            batch.row_measures(row),
        )
        scores[row] = policy.score(t, schema)
    return scores


class RandomScore:
    """I.i.d. random scores — an arbitrary, stable, opaque ranking."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def score(self, t: HiddenTuple, schema: Schema) -> float:
        return self._rng.random()

    def score_batch(
        self, batch: TupleBatch, tids: np.ndarray, schema: Schema
    ) -> np.ndarray:
        # Draw from the same Mersenne stream as per-tuple scoring so the
        # columnar and per-tuple inserts assign identical scores.
        rng_random = self._rng.random
        return np.array(
            [rng_random() for _ in range(len(batch))], dtype=np.float64
        )


class MeasureScore:
    """Rank by a measure (e.g. price-ascending like a shopping site)."""

    def __init__(self, measure: str, descending: bool = True):
        self.measure = measure
        self.descending = descending
        self._measure_index: int | None = None

    def score(self, t: HiddenTuple, schema: Schema) -> float:
        if self._measure_index is None:
            self._measure_index = schema.measure_index(self.measure)
        value = t.measure(self._measure_index)
        return value if self.descending else -value

    def score_batch(
        self, batch: TupleBatch, tids: np.ndarray, schema: Schema
    ) -> np.ndarray:
        if self._measure_index is None:
            self._measure_index = schema.measure_index(self.measure)
        column = batch.measures[:, self._measure_index]
        # Copy: returning the view would make the stored score vector
        # alias the measure column, so later in-place measure updates and
        # score writes would corrupt each other.
        return column.copy() if self.descending else -column


class RecencyScore:
    """Rank newest-first (higher tid = inserted later = ranked earlier)."""

    def score(self, t: HiddenTuple, schema: Schema) -> float:
        return float(t.tid)

    def score_batch(
        self, batch: TupleBatch, tids: np.ndarray, schema: Schema
    ) -> np.ndarray:
        return np.asarray(tids, dtype=np.float64)
