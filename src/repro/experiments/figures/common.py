"""Shared infrastructure for the per-figure experiment builders.

Every ``run_figXX`` function returns a :class:`FigureResult` — the series
the paper's figure plots, regenerated at a configurable ``scale`` of the
paper's dataset size (defaults keep the whole suite fast; pass
``scale=1.0`` to run at full published size).  k is scaled together with n
so the overflow/underflow profile — and therefore drill-down behaviour —
is preserved; the query budget G is *not* scaled, matching the paper's
absolute per-round limits.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from ...api.config import EngineConfig
from ...core.aggregates import AnySpec
from ...data.autos import AUTOS_DEFAULT_INITIAL, AUTOS_TOTAL_TUPLES, autos_snapshot
from ...data.schedules import SnapshotPoolSchedule, UpdateSchedule
from ...hiddendb.database import HiddenDatabase
from ...hiddendb.schema import Schema
from ..ascii_chart import render_chart, render_table
from ..metrics import ExperimentResult
from ..runner import EstimatorFactory, Experiment, default_estimators

#: Default fraction of the paper's dataset size used by the benchmarks.
DEFAULT_SCALE = 0.1

#: Default number of independent trials to average relative errors over.
DEFAULT_TRIALS = 3

#: The paper's default top-k page size (Yahoo! Autos interface).
PAPER_K = 1000

#: The paper's per-round insertion count for the default Autos schedule.
PAPER_INSERTS = 300

#: The paper's per-round deletion fraction for the default Autos schedule.
PAPER_DELETE_FRACTION = 0.001


class FigureResult:
    """The regenerated content of one paper figure."""

    def __init__(
        self,
        figure_id: str,
        title: str,
        x_label: str,
        y_label: str,
        xs: Sequence[float],
        series: Mapping[str, Sequence[float]],
        notes: str = "",
        log_y: bool = False,
        meta: Mapping[str, object] | None = None,
    ):
        self.figure_id = figure_id
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.xs = list(xs)
        self.series = {name: list(values) for name, values in series.items()}
        self.notes = notes
        self.log_y = log_y
        # Machine-readable extras (query counts, ...) consumed by
        # the benchmark harness's BENCH_*.json emitter.
        self.meta = dict(meta) if meta else {}

    def table(self) -> str:
        headers = [self.x_label] + list(self.series)
        rows = []
        for position, x in enumerate(self.xs):
            row: list[object] = [x]
            for values in self.series.values():
                row.append(
                    values[position] if position < len(values) else math.nan
                )
            rows.append(row)
        return render_table(headers, rows)

    def chart(self) -> str:
        return render_chart(
            self.series,
            y_label=self.y_label,
            x_label=self.x_label,
            log_y=self.log_y,
        )

    def to_text(self) -> str:
        parts = [f"=== {self.figure_id}: {self.title} ===", self.table(), "",
                 self.chart()]
        if self.notes:
            parts.append("")
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FigureResult({self.figure_id!r}, series={list(self.series)})"


def scaled_k(scale: float, paper_k: int = PAPER_K, floor: int = 5) -> int:
    """Scale the interface page size with the dataset (preserves n/k)."""
    return max(floor, int(round(paper_k * scale)))


def autos_env_factory(
    scale: float = DEFAULT_SCALE,
    inserts_per_round: int = PAPER_INSERTS,
    delete_fraction: float = PAPER_DELETE_FRACTION,
    deletes_per_round: int | None = None,
    initial: int = AUTOS_DEFAULT_INITIAL,
    total: int = AUTOS_TOTAL_TUPLES,
    num_attributes: int | None = None,
) -> Callable[[int], tuple[HiddenDatabase, UpdateSchedule]]:
    """Environment factory for the scaled Yahoo! Autos default workload."""
    n_total = max(20, int(round(total * scale)))
    n_initial = min(n_total - 1, max(10, int(round(initial * scale))))
    n_inserts = max(1, int(round(inserts_per_round * scale)))
    if deletes_per_round is not None:
        deletes_per_round = max(0, int(round(deletes_per_round * scale)))

    def factory(seed: int) -> tuple[HiddenDatabase, UpdateSchedule]:
        schema, payloads = autos_snapshot(n_total, seed)
        if num_attributes is not None:
            schema, payloads = _truncate_attributes(
                schema, payloads, num_attributes
            )
        db = HiddenDatabase(schema)
        db.insert_many(payloads[:n_initial])
        schedule = SnapshotPoolSchedule(
            payloads[n_initial:],
            inserts_per_round=n_inserts,
            delete_fraction=delete_fraction,
            deletes_per_round=deletes_per_round,
        )
        return db, schedule

    return factory


def _truncate_attributes(
    schema: Schema, payloads, num_attributes: int
) -> tuple[Schema, list]:
    """Keep the first ``num_attributes`` attributes (Figure 11's m sweep).

    The retained prefix keeps the top of the query tree identical, so the
    comparison isolates the effect of tree depth — which the paper shows
    (and this reproduction confirms) is negligible because drill-downs
    rarely reach the lowest levels.
    """
    truncated = Schema(schema.attributes[:num_attributes], schema.measures)
    seen: set[bytes] = set()
    converted = []
    for values, measures in payloads:
        head = values[:num_attributes]
        if head in seen:
            continue  # truncation may create duplicates; drop them
        seen.add(head)
        converted.append((head, measures))
    return truncated, converted


def run_three_way(
    name: str,
    env_factory: Callable[[int], tuple[HiddenDatabase, UpdateSchedule]],
    specs_factory: Callable[[Schema], Sequence[AnySpec]],
    k: int,
    budget: int,
    rounds: int,
    trials: int = DEFAULT_TRIALS,
    estimators: Sequence[EstimatorFactory] | None = None,
    seed: int = 0,
    intra_round: bool = False,
) -> ExperimentResult:
    """Run one experiment comparing estimators (default: all three);
    execution goes through the :class:`repro.api.Engine` facade."""
    experiment = Experiment(
        name,
        env_factory,
        specs_factory,
        config=EngineConfig(k=k, budget_per_round=budget, seed=seed),
        rounds=rounds,
        trials=trials,
        estimators=estimators or default_estimators(),
        intra_round=intra_round,
    )
    return experiment.run()


def error_series_figure(
    figure_id: str,
    title: str,
    result: ExperimentResult,
    spec: str,
    notes: str = "",
    log_y: bool = False,
) -> FigureResult:
    """Package a result's per-round relative errors as a figure."""
    series = {
        estimator: result.mean_rel_error_series(estimator, spec)
        for estimator in result.estimator_names
    }
    return FigureResult(
        figure_id,
        title,
        x_label="round",
        y_label="relative error",
        xs=result.rounds,
        series=series,
        notes=notes,
        log_y=log_y,
        meta={
            "mean_queries_per_round": {
                estimator: result.mean_queries_per_round(estimator)
                for estimator in result.estimator_names
            },
        },
    )
