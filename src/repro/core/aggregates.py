"""Aggregate query specifications (paper §2.2).

*Single-round* aggregates have the form::

    SELECT AGG(f(t)) FROM D_i WHERE <selection condition>

with AGG in {COUNT, SUM, AVG}, ``f`` any per-tuple function and the
selection any per-tuple predicate ``g``.  COUNT and SUM are *linear*: a
drill-down terminating at node ``q`` contributes
``sum(f(t) for returned t with g(t)) / p(q)``, an unbiased estimate
(Theorem 3.1).  AVG and percentage aggregates are ratios of two linear
specs.

*Trans-round* aggregates reference several rounds; the two studied in the
paper's evaluation are the size change ``|D_i| - |D_{i-1}|`` and the
running average of COUNT over a window.

Selection pushdown: when the selection is a conjunction of categorical
equalities, the spec exposes ``interface_predicates`` so estimators can
restrict the query tree to the matching subtree (§3.3) — far fewer wasted
drill-downs.  Non-categorical residual predicates (e.g. on a measure) are
still applied tuple-by-tuple via ``g``.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import SchemaError
from ..hiddendb.schema import Schema
from ..hiddendb.tuples import HiddenTuple, TupleBatch
from .drilldown import DrillOutcome
from .tree import QueryTree

#: Optional per-tuple residual predicate.
TuplePredicate = Callable[[HiddenTuple], bool]

#: Per-tuple value function for SUM aggregates.
TupleFunction = Callable[[HiddenTuple], float]

#: Optional columnar twin of ``f``: per-row values of a whole batch.
ColumnFunction = Callable[[TupleBatch], np.ndarray]


class AggregateSpec:
    """A linear (COUNT or SUM) aggregate over the current round's database.

    Parameters
    ----------
    name:
        Unique identifier, used as the key in every report.
    f:
        Per-tuple value; COUNT uses the constant 1.
    selection:
        Residual per-tuple predicate (after pushdown), or ``None``.
    interface_predicates:
        ``{attr_index: value_index}`` equality predicates that estimators
        may push into the query tree.
    column_f:
        Optional columnar twin of ``f`` (batch -> per-row value vector).
        When present and there is no residual ``selection``, exact ground
        truth over columnar heap segments is computed without
        materializing tuples.
    """

    #: Wire description that rebuilds this spec (set by the factory
    #: helpers below when the spec is expressible as one; ``None`` for
    #: specs carrying custom callables).  See
    #: :func:`repro.service.protocol.spec_to_wire`.
    wire_form: dict | None = None

    def __init__(
        self,
        name: str,
        f: TupleFunction,
        selection: TuplePredicate | None = None,
        interface_predicates: Mapping[int, int] | None = None,
        column_f: ColumnFunction | None = None,
    ):
        self.name = name
        self.f = f
        self.selection = selection
        self.interface_predicates = (
            dict(interface_predicates) if interface_predicates else {}
        )
        self.column_f = column_f

    # -- evaluation over tuples ----------------------------------------
    def tuple_value(self, t: HiddenTuple) -> float:
        """f(t)·g(t): the tuple's contribution to the aggregate."""
        if self.selection is not None and not self.selection(t):
            return 0.0
        return self.f(t)

    def matches_pushdown(self, t: HiddenTuple) -> bool:
        """True if the tuple satisfies the pushdown predicates."""
        values = t.values
        for attr_index, value_index in self.interface_predicates.items():
            if values[attr_index] != value_index:
                return False
        return True

    def full_tuple_value(self, t: HiddenTuple) -> float:
        """Contribution including pushdown predicates (for ground truth)."""
        if not self.matches_pushdown(t):
            return 0.0
        return self.tuple_value(t)

    # -- estimation plumbing --------------------------------------------
    def contribution(self, outcome: DrillOutcome, tree: QueryTree) -> float:
        """Unbiased per-drill-down estimate ``Q(q)/p(q)`` from an outcome.

        When the tree does *not* contain this spec's pushdown predicates
        (shared drill-downs for several aggregates), the predicates are
        applied tuple-wise instead — still unbiased, just higher variance.

        A result carrying a deferred columnar page (the columnar query
        plane) is totalled from its column vectors when this spec has a
        columnar evaluation — COUNT reads just the page size, SUM one
        ordered cumsum — without materialising a single tuple.
        """
        result = outcome.result
        if result.underflow:
            return 0.0
        pushdown_in_tree = all(
            tree.fixed.get(a) == v
            for a, v in self.interface_predicates.items()
        )
        page = getattr(result, "page", None)
        if page is not None:
            total = self._page_total(page, pushdown_in_tree)
            if total is not None:
                return total / tree.selection_probability(outcome.depth)
        if pushdown_in_tree:
            total = sum(self.tuple_value(t) for t in result.tuples)
        else:
            total = sum(
                self.tuple_value(t)
                for t in result.tuples
                if self.matches_pushdown(t)
            )
        return total / tree.selection_probability(outcome.depth)

    def _page_total(self, page, pushdown_in_tree: bool) -> float | None:
        """Columnar twin of the page sum; ``None`` = no columnar path.

        Must match the scalar sum bit for bit: values are accumulated in
        page order with ``np.cumsum`` (sequential adds, the same float
        operations as the per-tuple ``sum``), and the COUNT shortcut is a
        float that is exact for any page size.
        """
        if self.selection is not None or self.column_f is None:
            return None
        if pushdown_in_tree and self.column_f is _ones_column:
            return float(page.page_size)
        batch = page.page_batch()
        values = np.asarray(self.column_f(batch), dtype=np.float64)
        if not pushdown_in_tree and self.interface_predicates:
            mask = np.ones(len(values), dtype=bool)
            for attr_index, value_index in self.interface_predicates.items():
                mask &= batch.values[:, attr_index] == value_index
            values = values[mask]
        if not len(values):
            return 0.0
        return float(np.cumsum(values)[-1])

    def batch_total(self, batch: TupleBatch, start: float = 0.0) -> float:
        """Exact contribution of a columnar batch (columnar specs only).

        ``start`` is folded in as the first accumulation term, and the
        rows are accumulated strictly left to right (cumsum), so chaining
        ``batch_total`` over heap segments reproduces a per-tuple
        sequential Python sum bit for bit (numpy's pairwise
        ``.sum()``, or summing per-segment subtotals, would not).
        """
        if self.column_f is None or self.selection is not None:
            raise SchemaError(
                f"spec {self.name!r} has no columnar evaluation"
            )
        values = np.asarray(self.column_f(batch), dtype=np.float64)
        if self.interface_predicates:
            mask = np.ones(len(batch), dtype=bool)
            for attr_index, value_index in self.interface_predicates.items():
                mask &= batch.values[:, attr_index] == value_index
            values = values[mask]
        if not len(values):
            return start
        return float(np.cumsum(np.concatenate(((start,), values)))[-1])

    def ground_truth(self, db) -> float:
        """Exact value by full scan (simulator-side only).

        Columnar specs sum frozen heap blocks vectorized and only fall
        back to per-tuple evaluation for the scalar remainder; the
        accumulation order matches the per-tuple scan exactly.
        """
        store = getattr(db, "store", None)
        if (
            self.column_f is not None
            and self.selection is None
            and store is not None
            and hasattr(store, "segments")
        ):
            batches, rest = store.segments()
            total = 0.0
            for batch in batches:
                total = self.batch_total(batch, total)
            for t in rest:
                total += self.full_tuple_value(t)
            return total
        return sum(self.full_tuple_value(t) for t in db.tuples())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AggregateSpec({self.name!r})"


class RatioSpec:
    """AGG expressed as numerator/denominator of two linear specs.

    Covers AVG (SUM/COUNT) and percentage aggregates
    (COUNT(condition)/COUNT(*)).  Estimators estimate both components from
    the same drill-downs and report the ratio; per the paper this is only
    asymptotically unbiased.
    """

    #: Wire description that rebuilds this spec (see AggregateSpec).
    wire_form: dict | None = None

    def __init__(self, name: str, numerator: AggregateSpec,
                 denominator: AggregateSpec):
        self.name = name
        self.numerator = numerator
        self.denominator = denominator

    @property
    def interface_predicates(self) -> dict[int, int]:
        """Pushdown predicates shared by both components (tree-safe set)."""
        shared = {}
        for key, value in self.numerator.interface_predicates.items():
            if self.denominator.interface_predicates.get(key) == value:
                shared[key] = value
        return shared

    def ground_truth(self, db) -> float:
        denominator = self.denominator.ground_truth(db)
        if denominator == 0:
            return float("nan")
        return self.numerator.ground_truth(db) / denominator

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RatioSpec({self.name!r})"


class SizeChangeSpec:
    """Trans-round aggregate ``Q(D_i) - Q(D_{i-1})`` for a linear base spec."""

    #: Wire description that rebuilds this spec (see AggregateSpec).
    wire_form: dict | None = None

    def __init__(self, name: str, base: AggregateSpec):
        self.name = name
        self.base = base

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SizeChangeSpec({self.name!r} over {self.base.name!r})"


class RunningAverageSpec:
    """Trans-round aggregate AVG(Q(D_i), ..., Q(D_{i-w+1})) of a base spec."""

    #: Wire description that rebuilds this spec (see AggregateSpec).
    wire_form: dict | None = None

    def __init__(self, name: str, base: AggregateSpec, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.name = name
        self.base = base
        self.window = window

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RunningAverageSpec({self.name!r}, w={self.window})"


#: Anything an estimator can be asked to track.
AnySpec = AggregateSpec | RatioSpec | SizeChangeSpec | RunningAverageSpec


# ----------------------------------------------------------------------
# Factory helpers
# ----------------------------------------------------------------------
def _pushdown_from_labels(
    schema: Schema, where: Mapping[str, str] | None
) -> dict[int, int]:
    predicates: dict[int, int] = {}
    if where:
        for attr_name, label in where.items():
            attr_index = schema.attribute_index(attr_name)
            predicates[attr_index] = schema.attributes[attr_index].index_of(label)
    return predicates


def _ones_column(batch: TupleBatch) -> np.ndarray:
    return np.ones(len(batch), dtype=np.float64)


def count_all(name: str = "count") -> AggregateSpec:
    """COUNT(*) over the whole database."""
    spec = AggregateSpec(name, f=lambda t: 1.0, column_f=_ones_column)
    spec.wire_form = {"kind": "count", "name": name}
    return spec


def count_where(
    schema: Schema,
    where: Mapping[str, str],
    name: str | None = None,
    selection: TuplePredicate | None = None,
) -> AggregateSpec:
    """COUNT with a conjunctive categorical condition (pushdown-capable)."""
    predicates = _pushdown_from_labels(schema, where)
    if name is None:
        name = "count_" + "_".join(f"{k}={v}" for k, v in where.items())
    spec = AggregateSpec(
        name, f=lambda t: 1.0, selection=selection,
        interface_predicates=predicates, column_f=_ones_column,
    )
    if selection is None:
        # A residual callable cannot cross the wire; leave wire_form unset.
        spec.wire_form = {"kind": "count", "where": dict(where), "name": name}
    return spec


def sum_measure(
    schema: Schema,
    measure: str,
    where: Mapping[str, str] | None = None,
    name: str | None = None,
    selection: TuplePredicate | None = None,
) -> AggregateSpec:
    """SUM of a measure, with optional categorical condition."""
    measure_index = schema.measure_index(measure)
    predicates = _pushdown_from_labels(schema, where)
    if name is None:
        name = f"sum_{measure}"
    spec = AggregateSpec(
        name,
        f=lambda t: t.measure(measure_index),
        selection=selection,
        interface_predicates=predicates,
        column_f=lambda batch: batch.measures[:, measure_index],
    )
    if selection is None:
        spec.wire_form = {"kind": "sum", "measure": measure, "name": name}
        if where:
            spec.wire_form["where"] = dict(where)
    return spec


def avg_measure(
    schema: Schema,
    measure: str,
    where: Mapping[str, str] | None = None,
    name: str | None = None,
) -> RatioSpec:
    """AVG of a measure = SUM/COUNT ratio spec."""
    if name is None:
        name = f"avg_{measure}"
    spec = RatioSpec(
        name,
        numerator=sum_measure(schema, measure, where, name=f"{name}__sum"),
        denominator=count_where(schema, where or {}, name=f"{name}__count")
        if where
        else count_all(f"{name}__count"),
    )
    spec.wire_form = {"kind": "avg", "measure": measure, "name": name}
    if where:
        spec.wire_form["where"] = dict(where)
    return spec


def proportion_where(
    schema: Schema, where: Mapping[str, str], name: str | None = None
) -> RatioSpec:
    """Percentage aggregate COUNT(condition)/COUNT(*)."""
    if name is None:
        name = "share_" + "_".join(f"{k}={v}" for k, v in where.items())
    numerator = count_where(schema, where, name=f"{name}__num")
    # The denominator intentionally has no pushdown: it counts everything.
    spec = RatioSpec(name, numerator, count_all(f"{name}__den"))
    spec.wire_form = {
        "kind": "proportion", "where": dict(where), "name": name,
    }
    return spec


def size_change(base: AggregateSpec | None = None,
                name: str = "size_change") -> SizeChangeSpec:
    """|D_i| - |D_{i-1}| (or the change of any linear aggregate)."""
    spec = SizeChangeSpec(name, base if base is not None else count_all())
    if base is None or base.wire_form is not None:
        spec.wire_form = {"kind": "size_change", "name": name}
        if base is not None:
            spec.wire_form["base"] = dict(base.wire_form)
    return spec


def running_average(
    window: int,
    base: AggregateSpec | None = None,
    name: str | None = None,
) -> RunningAverageSpec:
    """Running average of COUNT (or any linear aggregate) over a window."""
    explicit_base = base
    base = base if base is not None else count_all()
    if name is None:
        name = f"running_avg_{window}"
    spec = RunningAverageSpec(name, base, window)
    if explicit_base is None or explicit_base.wire_form is not None:
        spec.wire_form = {
            "kind": "running_average", "window": window, "name": name,
        }
        if explicit_base is not None:
            spec.wire_form["base"] = dict(explicit_base.wire_form)
    return spec


def base_specs_of(specs) -> list[AggregateSpec]:
    """The unique linear specs underlying a mixed spec collection."""
    seen: dict[str, AggregateSpec] = {}
    for spec in specs:
        if isinstance(spec, AggregateSpec):
            components = [spec]
        elif isinstance(spec, RatioSpec):
            components = [spec.numerator, spec.denominator]
        elif isinstance(spec, (SizeChangeSpec, RunningAverageSpec)):
            components = [spec.base]
        else:
            raise SchemaError(f"unsupported spec type: {type(spec).__name__}")
        for component in components:
            existing = seen.get(component.name)
            if existing is not None and existing is not component:
                raise SchemaError(
                    f"two different specs share the name {component.name!r}"
                )
            seen[component.name] = component
    return list(seen.values())
