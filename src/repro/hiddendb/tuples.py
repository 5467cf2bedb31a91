"""Tuple representation for the hidden database simulator.

Tuples are immutable once inserted (an *update* is modelled, as on real
websites, by the owner deleting and re-listing — or by
:meth:`repro.hiddendb.database.HiddenDatabase.update_measures`, which swaps
the tuple object).  The categorical part is a compact ``bytes`` vector of
domain-value indices; measures are a parallel ``tuple`` of floats whose layout
is given by :attr:`repro.hiddendb.schema.Schema.measures`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .schema import Schema


class HiddenTuple:
    """One row of the hidden database.

    Attributes
    ----------
    tid:
        Unique, never-reused tuple identifier.
    values:
        Categorical value indices, one byte per schema attribute.
    measures:
        Numeric measure values, aligned with ``schema.measures``.
    score:
        The proprietary ranking score used by the top-k interface.  Higher
        scores rank earlier.  Assigned by the database's ranking policy at
        insert time; opaque to estimators.
    """

    __slots__ = ("tid", "values", "measures", "score")

    def __init__(
        self,
        tid: int,
        values: bytes,
        measures: tuple[float, ...] = (),
        score: float = 0.0,
    ):
        self.tid = tid
        self.values = values
        self.measures = measures
        self.score = score

    def value(self, attr_index: int) -> int:
        """Stored value index of the given attribute."""
        return self.values[attr_index]

    def measure(self, measure_index: int) -> float:
        """Measure value by position (see ``Schema.measure_index``)."""
        return self.measures[measure_index]

    def with_measures(self, measures: tuple[float, ...]) -> "HiddenTuple":
        """A copy of this tuple with replaced measures (same tid/score)."""
        return HiddenTuple(self.tid, self.values, measures, self.score)

    def describe(self, schema: Schema) -> dict[str, object]:
        """Human-readable mapping of this tuple's attributes and measures."""
        description: dict[str, object] = {
            attribute.name: attribute.values[self.values[i]]
            for i, attribute in enumerate(schema.attributes)
        }
        for i, name in enumerate(schema.measures):
            description[name] = self.measures[i]
        return description

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HiddenTuple(tid={self.tid}, values={tuple(self.values)})"


class TupleBatch:
    """A columnar batch of tuples — the payload unit of bulk loads.

    Attributes
    ----------
    values:
        ``(n, m)`` uint8 matrix of categorical value indices; row ``i`` is
        the value vector of tuple ``i`` in schema attribute order.
    measures:
        ``(n, num_measures)`` float64 matrix of measure values.
    tids:
        int64 vector of tuple ids, or ``None`` before the database has
        assigned identity (see :meth:`with_identity`).  When present, must
        be strictly increasing so heap blocks can locate rows by bisect.
    scores:
        float64 vector of ranking scores, or ``None`` before assignment.
    """

    __slots__ = ("values", "measures", "tids", "scores")

    def __init__(
        self,
        values: np.ndarray,
        measures: np.ndarray,
        tids: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ):
        values = np.ascontiguousarray(values, dtype=np.uint8)
        if values.ndim != 2:
            raise ValueError("values must be an (n, m) matrix")
        measures = np.ascontiguousarray(measures, dtype=np.float64)
        if measures.ndim != 2 or len(measures) != len(values):
            raise ValueError("measures must be an (n, num_measures) matrix")
        self.values = values
        self.measures = measures
        self.tids = None if tids is None else np.asarray(tids, dtype=np.int64)
        self.scores = (
            None if scores is None else np.asarray(scores, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def num_attributes(self) -> int:
        return self.values.shape[1]

    def with_identity(
        self, tids: np.ndarray, scores: np.ndarray
    ) -> "TupleBatch":
        """This batch's content with tids and ranking scores attached."""
        return TupleBatch(self.values, self.measures, tids, scores)

    def row_measures(self, row: int) -> tuple[float, ...]:
        """Measure tuple of one row (matches the scalar payload layout)."""
        if self.measures.shape[1] == 0:
            return ()
        return tuple(self.measures[row].tolist())

    def materialize(self, row: int) -> HiddenTuple:
        """Build the :class:`HiddenTuple` for one row (identity required)."""
        if self.tids is None or self.scores is None:
            raise ValueError("batch has no identity; database-assigned "
                             "tids/scores are required to materialize")
        return HiddenTuple(
            int(self.tids[row]),
            self.values[row].tobytes(),
            self.row_measures(row),
            float(self.scores[row]),
        )

    def iter_tuples(self) -> Iterator[HiddenTuple]:
        """Materialize every row in order (scalar-compatibility path)."""
        for row in range(len(self)):
            yield self.materialize(row)

    def payloads(self) -> list[tuple[bytes, tuple[float, ...]]]:
        """The batch as scalar ``(values, measures)`` payloads."""
        return [
            (self.values[row].tobytes(), self.row_measures(row))
            for row in range(len(self))
        ]

    @classmethod
    def from_payloads(
        cls,
        payloads: Iterable[tuple[bytes | Sequence[int], Sequence[float]]],
        num_measures: int,
    ) -> "TupleBatch":
        """Columnar view of scalar payloads (all rows must be uniform)."""
        rows = list(payloads)
        if not rows:
            return cls(
                np.empty((0, 0), dtype=np.uint8),
                np.empty((0, num_measures), dtype=np.float64),
            )
        raw = b"".join(
            v if isinstance(v, bytes) else bytes(v) for v, _ in rows
        )
        values = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), -1)
        measures = np.array(
            [m for _, m in rows], dtype=np.float64
        ).reshape(len(rows), num_measures)
        return cls(values, measures)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TupleBatch(n={len(self)}, m={self.num_attributes}, "
            f"identity={self.tids is not None})"
        )


def make_tuple(
    tid: int,
    values: Sequence[int],
    measures: Sequence[float] = (),
    score: float = 0.0,
) -> HiddenTuple:
    """Build a :class:`HiddenTuple` from any integer sequence of values."""
    return HiddenTuple(tid, bytes(values), tuple(measures), score)
