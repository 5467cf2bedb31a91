"""Shared machinery for the three dynamic-aggregate estimators.

An estimator owns: a query tree (with selection pushdown computed from its
specs), a per-round query budget, a seeded RNG, its drill-down records, and
a per-round report history.  Subclasses implement ``_execute_round``.

Derived aggregates (ratios, running averages, size changes) are computed
from the linear base estimates by the base class; subclasses can override
the size-change path with their estimator-specific delta machinery.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Mapping, Sequence

from ...errors import EstimationError
from ...hiddendb.interface import TopKInterface
from ...hiddendb.session import QuerySession
from ..aggregates import (
    AggregateSpec,
    AnySpec,
    RatioSpec,
    RunningAverageSpec,
    SizeChangeSpec,
    base_specs_of,
)
from ..drilldown import DrillOutcome, drill_from_root
from ..tree import QueryTree, Signature
from ..variance import mean, ratio_variance, variance_of_mean


class DrillDownRecord:
    """Persistent state of one drill-down across rounds."""

    __slots__ = ("signature", "depth", "last_round", "contributions",
                 "leaf_overflow")

    def __init__(
        self,
        signature: Signature,
        depth: int,
        last_round: int,
        contributions: dict[str, float],
        leaf_overflow: bool = False,
    ):
        self.signature = signature
        self.depth = depth
        self.last_round = last_round
        #: base-spec name -> Q(q)/p(q) as of ``last_round``.
        self.contributions = contributions
        self.leaf_overflow = leaf_overflow


class RoundReport:
    """Everything an estimator produced in one round."""

    __slots__ = (
        "round_index", "estimates", "variances", "queries_used",
        "drilldowns_updated", "drilldowns_new", "leaf_overflows",
        "active_drilldowns",
    )

    def __init__(
        self,
        round_index: int,
        estimates: dict[str, float],
        variances: dict[str, float],
        queries_used: int,
        drilldowns_updated: int = 0,
        drilldowns_new: int = 0,
        leaf_overflows: int = 0,
        active_drilldowns: int = 0,
    ):
        self.round_index = round_index
        self.estimates = estimates
        self.variances = variances
        self.queries_used = queries_used
        self.drilldowns_updated = drilldowns_updated
        self.drilldowns_new = drilldowns_new
        self.leaf_overflows = leaf_overflows
        self.active_drilldowns = active_drilldowns

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RoundReport(round={self.round_index}, "
            f"queries={self.queries_used}, "
            f"updated={self.drilldowns_updated}, new={self.drilldowns_new})"
        )

    def to_dict(self) -> dict:
        """A strict-JSON-safe payload (``json.dumps(..., allow_nan=False)``
        works); non-finite estimates/variances are wire-encoded as strings
        and the payload carries ``schema_version`` (see
        :mod:`repro.core.wire`)."""
        from ..wire import encode_float_map, stamp

        return stamp({
            "round_index": self.round_index,
            "estimates": encode_float_map(self.estimates),
            "variances": encode_float_map(self.variances),
            "queries_used": self.queries_used,
            "drilldowns_updated": self.drilldowns_updated,
            "drilldowns_new": self.drilldowns_new,
            "leaf_overflows": self.leaf_overflows,
            "active_drilldowns": self.active_drilldowns,
        })

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RoundReport":
        """Rebuild a report from :meth:`to_dict` output (exact round trip).

        Forward tolerant: unknown keys are ignored and a missing
        ``schema_version`` means the pre-versioning v0 form — both decode
        to the fields this build knows about.
        """
        from ..wire import decode_float_map

        return cls(
            round_index=int(payload["round_index"]),
            estimates=decode_float_map(payload["estimates"]),
            variances=decode_float_map(payload["variances"]),
            queries_used=int(payload["queries_used"]),
            drilldowns_updated=int(payload.get("drilldowns_updated", 0)),
            drilldowns_new=int(payload.get("drilldowns_new", 0)),
            leaf_overflows=int(payload.get("leaf_overflows", 0)),
            active_drilldowns=int(payload.get("active_drilldowns", 0)),
        )


def shared_pushdown(specs: Sequence[AggregateSpec]) -> dict[int, int]:
    """Predicates safe to push into a tree shared by all the given specs.

    Only predicates present (with equal value) in *every* spec can narrow
    the tree: the tree must still cover the support of each aggregate.
    Specs without pushdown predicates (e.g. COUNT(*)) force the full tree.
    """
    if not specs:
        return {}
    common = dict(specs[0].interface_predicates)
    for spec in specs[1:]:
        predicates = spec.interface_predicates
        common = {
            attr: value
            for attr, value in common.items()
            if predicates.get(attr) == value
        }
        if not common:
            break
    return common


class EstimatorBase:
    """Template for RESTART / REISSUE / RS estimators.

    Parameters
    ----------
    interface:
        The hidden database's search endpoint.
    specs:
        Aggregates to track (linear, ratio, or trans-round).
    budget_per_round:
        The database-imposed query limit ``G``.
    seed:
        Seed for every random choice this estimator makes.
    parent_check:
        "strict" (sound, default) or "lazy" (Algorithm 1 verbatim) reissue
        semantics; only used by subclasses that reissue.
    cache_within_round:
        Client-side answer cache ablation (see ``QuerySession``).
    push_selection:
        Restrict the query tree to the subtree implied by predicates shared
        across all tracked aggregates (§3.3).
    free_order:
        Optional explicit drill-down attribute order (ablation).
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "base"

    def __init__(
        self,
        interface: TopKInterface,
        specs: Sequence[AnySpec],
        budget_per_round: int,
        seed: int = 0,
        parent_check: str = "strict",
        cache_within_round: bool = False,
        push_selection: bool = True,
        free_order: Sequence[int] | None = None,
    ):
        if budget_per_round < 1:
            raise EstimationError("budget_per_round must be positive")
        self.interface = interface
        self.specs = list(specs)
        if not self.specs:
            raise EstimationError("at least one aggregate spec is required")
        self.base_specs = base_specs_of(self.specs)
        fixed = shared_pushdown(self.base_specs) if push_selection else {}
        self.tree = QueryTree(interface.schema, fixed=fixed,
                              free_order=free_order)
        self.tree.register(interface)
        self.budget_per_round = budget_per_round
        self.parent_check = parent_check
        self.cache_within_round = cache_within_round
        self.rng = random.Random(seed)
        self.records: list[DrillDownRecord] = []
        self.history: list[RoundReport] = []
        self._reports_by_round: dict[int, RoundReport] = {}
        #: Optional per-query callback (intra-round update driver hook).
        self.on_query: Callable[[], None] | None = None
        #: Optional drill-down archive for ad-hoc (retroactive) queries.
        self.archive = None

    # ------------------------------------------------------------------
    # Persistence (see repro.api.persistence / docs/format.md)
    # ------------------------------------------------------------------
    def state_to_wire(self) -> dict:
        """This estimator's round-crossing state as a strict-JSON payload.

        Captures everything :meth:`restore_state` needs to continue the
        estimation bit-identically on a freshly constructed twin (same
        interface, specs, and options): the RNG stream position, every
        drill-down record, the report history, and the current per-round
        budget.  Derived structures (the query tree, RS's pooled
        variances) are deterministic from the constructor arguments or
        recomputed each round and are deliberately not captured.

        Raises :class:`~repro.errors.EstimationError` when the estimator
        carries live callables/objects that cannot cross a snapshot (an
        ``on_query`` mutation hook or an attached drill-down archive).
        """
        from ..wire import encode_float, encode_float_map, stamp

        if self.on_query is not None:
            raise EstimationError(
                "estimators with an on_query mutation hook cannot be "
                "snapshot (the hook is a live callable)"
            )
        if self.archive is not None:
            raise EstimationError(
                "estimators with an attached drill-down archive cannot be "
                "snapshot; detach the archive first"
            )
        version, internal, gauss = self.rng.getstate()
        return stamp({
            "algorithm": self.name,
            "budget_per_round": self.budget_per_round,
            "rng": [
                int(version),
                [int(word) for word in internal],
                None if gauss is None else encode_float(float(gauss)),
            ],
            "records": [
                {
                    "signature": [int(digit) for digit in record.signature],
                    "depth": int(record.depth),
                    "last_round": int(record.last_round),
                    "contributions": encode_float_map(record.contributions),
                    "leaf_overflow": bool(record.leaf_overflow),
                }
                for record in self.records
            ],
            "history": [report.to_dict() for report in self.history],
            "stats": self.interface.stats.to_dict(),
        })

    def restore_state(self, payload: Mapping) -> None:
        """Adopt a :meth:`state_to_wire` payload (exact round trip).

        The estimator must have been constructed with the same interface,
        specs, seed-independent options, and schema as the one that was
        saved; this method then overwrites the RNG state, records,
        history, budget, and interface counters so the next
        :meth:`run_round` is bit-identical to the uninterrupted run.
        """
        from ..wire import decode_float, decode_float_map

        version, internal, gauss = payload["rng"]
        self.rng.setstate((
            int(version),
            tuple(int(word) for word in internal),
            None if gauss is None else decode_float(gauss),
        ))
        self.budget_per_round = int(payload["budget_per_round"])
        self.records = [
            DrillDownRecord(
                tuple(int(digit) for digit in entry["signature"]),
                int(entry["depth"]),
                int(entry["last_round"]),
                decode_float_map(entry["contributions"]),
                leaf_overflow=bool(entry.get("leaf_overflow", False)),
            )
            for entry in payload["records"]
        ]
        self.history = [
            RoundReport.from_dict(entry) for entry in payload["history"]
        ]
        # Rebuilt in first-seen order, matching the original mapping's
        # insertion order (re-assignment of a round keeps its position,
        # exactly as the live dict behaved).
        self._reports_by_round = {}
        for report in self.history:
            self._reports_by_round[report.round_index] = report
        stats = payload.get("stats")
        if stats is not None:
            counters = self.interface.stats
            counters.queries = int(stats["queries"])
            counters.underflow = int(stats["underflow"])
            counters.valid = int(stats["valid"])
            counters.overflow = int(stats["overflow"])

    def attach_archive(self):
        """Attach (and return) a client-side archive of every drill-down.

        Enables the ad-hoc query model of §5.1: any linear aggregate can be
        estimated retroactively over any round this estimator worked in,
        at zero extra query cost.  See :mod:`repro.core.adhoc`.
        """
        from ..adhoc import DrillDownArchive

        if self.archive is None:
            self.archive = DrillDownArchive(self.tree)
        return self.archive

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run_round(self) -> RoundReport:
        """Run one round's worth of queries and produce estimates."""
        session = QuerySession(
            self.interface,
            budget=self.budget_per_round,
            cache_within_round=self.cache_within_round,
            on_query=self.on_query,
        )
        round_index = self.interface.current_round
        report = self._execute_round(session, round_index)
        self.history.append(report)
        self._reports_by_round[round_index] = report
        return report

    def _execute_round(
        self, session: QuerySession, round_index: int
    ) -> RoundReport:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared building blocks for subclasses
    # ------------------------------------------------------------------
    def _contributions_of(self, outcome: DrillOutcome) -> dict[str, float]:
        """Per-base-spec contribution Q(q)/p(q) of one outcome."""
        return {
            spec.name: spec.contribution(outcome, self.tree)
            for spec in self.base_specs
        }

    def _record_from(
        self, outcome: DrillOutcome, round_index: int
    ) -> DrillDownRecord:
        if self.archive is not None:
            self.archive.record(outcome, round_index)
        return DrillDownRecord(
            outcome.signature,
            outcome.depth,
            round_index,
            self._contributions_of(outcome),
            leaf_overflow=outcome.leaf_overflow,
        )

    def _apply_outcome(
        self,
        record: DrillDownRecord,
        outcome: DrillOutcome,
        round_index: int,
    ) -> None:
        if self.archive is not None:
            self.archive.record(outcome, round_index)
        record.depth = outcome.depth
        record.last_round = round_index
        record.contributions = self._contributions_of(outcome)
        record.leaf_overflow = outcome.leaf_overflow

    def _new_drilldowns_until_exhausted(
        self, session: QuerySession, round_index: int
    ) -> tuple[list[DrillDownRecord], int]:
        """Fresh drill-downs until the budget runs out; returns (records, overflows)."""
        from ...errors import QueryBudgetExhausted

        created: list[DrillDownRecord] = []
        leaf_overflows = 0
        while True:
            signature = self.tree.random_signature(self.rng)
            try:
                outcome = drill_from_root(session, self.tree, signature)
            except QueryBudgetExhausted:
                break
            created.append(self._record_from(outcome, round_index))
            leaf_overflows += outcome.leaf_overflow
        return created, leaf_overflows

    def _previous_report(self, round_index: int) -> RoundReport | None:
        """The most recent report strictly before ``round_index``."""
        best = None
        for past_round, report in self._reports_by_round.items():
            if past_round < round_index and (
                best is None or past_round > best.round_index
            ):
                best = report
        return best

    # ------------------------------------------------------------------
    # Derived aggregates
    # ------------------------------------------------------------------
    def _finalize_estimates(
        self,
        round_index: int,
        estimates: dict[str, float],
        variances: dict[str, float],
        size_change_overrides: Mapping[str, tuple[float, float]] | None = None,
    ) -> None:
        """Fill in ratio / trans-round estimates from the base estimates.

        ``size_change_overrides`` lets reissuing estimators substitute their
        low-variance delta estimates; absent overrides fall back to the
        difference of consecutive round estimates (RESTART semantics).
        """
        overrides = size_change_overrides or {}
        for spec in self.specs:
            if isinstance(spec, AggregateSpec):
                continue  # already present
            if isinstance(spec, RatioSpec):
                numerator = estimates.get(spec.numerator.name, math.nan)
                denominator = estimates.get(spec.denominator.name, math.nan)
                if denominator and not math.isnan(denominator):
                    estimates[spec.name] = numerator / denominator
                else:
                    estimates[spec.name] = math.nan
                variances[spec.name] = ratio_variance(
                    numerator,
                    variances.get(spec.numerator.name, math.inf),
                    denominator,
                    variances.get(spec.denominator.name, math.inf),
                )
            elif isinstance(spec, SizeChangeSpec):
                if spec.name in overrides:
                    estimates[spec.name], variances[spec.name] = overrides[
                        spec.name
                    ]
                else:
                    previous = self._previous_report(round_index)
                    if previous is None:
                        estimates[spec.name] = math.nan
                        variances[spec.name] = math.inf
                    else:
                        estimates[spec.name] = (
                            estimates[spec.base.name]
                            - previous.estimates.get(spec.base.name, math.nan)
                        )
                        variances[spec.name] = variances.get(
                            spec.base.name, math.inf
                        ) + previous.variances.get(spec.base.name, math.inf)
            elif isinstance(spec, RunningAverageSpec):
                window_values = []
                window_variances = []
                for past_round in range(
                    round_index - spec.window + 1, round_index
                ):
                    report = self._reports_by_round.get(past_round)
                    if report is not None:
                        value = report.estimates.get(spec.base.name)
                        if value is not None and not math.isnan(value):
                            window_values.append(value)
                            window_variances.append(
                                report.variances.get(spec.base.name, math.inf)
                            )
                current = estimates.get(spec.base.name, math.nan)
                if not math.isnan(current):
                    window_values.append(current)
                    window_variances.append(
                        variances.get(spec.base.name, math.inf)
                    )
                if window_values:
                    estimates[spec.name] = mean(window_values)
                    variances[spec.name] = sum(window_variances) / (
                        len(window_variances) ** 2
                    )
                else:
                    estimates[spec.name] = math.nan
                    variances[spec.name] = math.inf

    def _estimates_from_values(
        self, values_by_spec: Mapping[str, Sequence[float]]
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Mean/variance-of-mean per base spec from contribution lists."""
        estimates: dict[str, float] = {}
        variances: dict[str, float] = {}
        for spec in self.base_specs:
            values = values_by_spec.get(spec.name, ())
            if values:
                estimates[spec.name] = mean(values)
                variances[spec.name] = variance_of_mean(values)
            else:
                # Nothing completed this round: carry the previous estimate
                # rather than fabricate one (variance marked unknown).
                previous = self.history[-1] if self.history else None
                estimates[spec.name] = (
                    previous.estimates.get(spec.name, math.nan)
                    if previous
                    else math.nan
                )
                variances[spec.name] = math.inf
        return estimates, variances
