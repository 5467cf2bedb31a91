"""HTAP overlap benchmark: fig12-shaped workload with churn/read overlap.

Runs the same seeded multi-tenant estimation workload (bulk load, heavy
round churn, three estimator tenants — the fig12 shape, scaled up) twice
through the :class:`repro.api.Engine` facade:

* **sequential** — ``overlap=False``: each round applies its churn, flips
  the round barrier, then runs the estimators.  Churn and estimation
  serialize behind the round lock — the PR 7 execution model.
* **overlapped** — ``overlap=True``: estimators read the published
  (immutable) epoch while the *next* round's churn lands on the live
  store from a writer thread; ``advance_round()`` is the atomic publish
  flip.  Round wall approaches ``max(churn, estimation)`` instead of
  their sum.

Both drivers present every round with exactly the same data (round *i*
always reads the store after *i* churn batches), so the estimate traces
must be *bit-identical* — overlap is an operational knob, never a
statistical one.  The figure reports per-round wall times and the
end-to-end round-phase speedup.

Environment knobs::

    REPRO_BENCH_HTAP_N            tuples to load (default 1_000_000)
    REPRO_BENCH_HTAP_ROUNDS       churn/estimation rounds (default 5)
    REPRO_BENCH_HTAP_MIN_SPEEDUP  speedup floor the test asserts
                                  (default 0.6 — a single-core host
                                  *cannot* overlap anything and still
                                  pays the HTAP tax: publish flips plus
                                  copy-on-write privatization of churned
                                  heap blocks, ~0.7x there.  On a
                                  dedicated >=2-core box set it to 1.5
                                  to enforce the overlap goal itself)
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.experiments.figures.common import FigureResult

ALGORITHMS = ("RESTART", "REISSUE", "RS")

HTAP_N = int(os.environ.get("REPRO_BENCH_HTAP_N", "1000000"))
HTAP_ROUNDS = int(os.environ.get("REPRO_BENCH_HTAP_ROUNDS", "5"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_HTAP_MIN_SPEEDUP", "0.6"))


def _build_engine(n: int, budget: int, seed: int, overlap: bool):
    """Load one engine + schedule + tenants for a workload pass."""
    domain_sizes = [2 + (i % 5) for i in range(12)]
    source = skewed_source(domain_sizes, exponent=0.4, seed=seed)
    engine = Engine(
        EngineConfig(
            overlap=overlap,
            k=100,
            budget_per_round=budget,
            seed=seed,
        ),
        schema=source.schema,
    )
    load_started = time.perf_counter()
    engine.load(source.batch_columns(n))
    load_seconds = time.perf_counter() - load_started
    schedule = FreshTupleSchedule(
        source,
        inserts_per_round=max(1, n // 50),
        delete_fraction=0.01,
    )
    for index, algorithm in enumerate(ALGORITHMS):
        engine.submit(EstimationTask(
            algorithm, [count_all()], algorithm, seed=seed + 17 + index,
        ))
    return engine, schedule, load_seconds


def _snapshot(reports) -> dict:
    return {
        name: (report.estimates, report.queries_used)
        for name, report in sorted(reports.items())
    }


def _run_sequential(n: int, rounds: int, budget: int, seed: int):
    """Churn → flip → estimate, all behind the round barrier."""
    engine, schedule, load_seconds = _build_engine(
        n, budget, seed, overlap=False
    )
    rng = random.Random(seed + 5)
    round_walls: list[float] = []
    trace: list[dict] = []
    for position in range(rounds):
        round_started = time.perf_counter()
        if position:
            engine.apply_updates(lambda db: apply_round(db, schedule, rng))
            engine.advance_round()
        trace.append(_snapshot(engine.run_round()))
        round_walls.append(time.perf_counter() - round_started)
    return round_walls, load_seconds, trace


def _run_overlapped(n: int, rounds: int, budget: int, seed: int):
    """Round *i*'s estimators (pinned to the published epoch) overlap
    round *i+1*'s churn on the live store; the advance after the join is
    the publish flip.  Round *i* therefore reads exactly the same store
    state as in the sequential driver."""
    engine, schedule, load_seconds = _build_engine(
        n, budget, seed, overlap=True
    )
    rng = random.Random(seed + 5)
    # Publish the first epoch before any writer thread exists, so churn
    # can never race the lazy first-read publish into round 0's view.
    engine.db.publish_epoch()
    round_walls: list[float] = []
    trace: list[dict] = []
    for position in range(rounds):
        round_started = time.perf_counter()
        writer = None
        if position < rounds - 1:
            writer = threading.Thread(
                target=lambda: engine.apply_updates(
                    lambda db: apply_round(db, schedule, rng)
                ),
                name="repro-churn",
            )
            writer.start()
        trace.append(_snapshot(engine.run_round()))
        if writer is not None:
            writer.join()
            engine.advance_round()
        round_walls.append(time.perf_counter() - round_started)
    return round_walls, load_seconds, trace


def run_htap_fig12(
    n: int = HTAP_N,
    rounds: int = HTAP_ROUNDS,
    budget: int = 2000,
    seed: int = 0,
) -> FigureResult:
    walls: dict[str, list[float]] = {}
    loads: dict[str, float] = {}
    traces: dict[str, list] = {}
    walls["sequential"], loads["sequential"], traces["sequential"] = (
        _run_sequential(n, rounds, budget, seed)
    )
    walls["overlapped"], loads["overlapped"], traces["overlapped"] = (
        _run_overlapped(n, rounds, budget, seed)
    )
    assert traces["sequential"] == traces["overlapped"], (
        "churn/read overlap changed the estimates — overlap is an "
        "operational knob and must be bit-identical"
    )
    totals = {label: sum(series) for label, series in walls.items()}
    speedup = (
        totals["sequential"] / totals["overlapped"]
        if totals["overlapped"] > 0
        else float("inf")
    )
    return FigureResult(
        "htap_fig12",
        f"fig12-shaped workload, n={n}, churn/read overlap",
        x_label="round",
        y_label="wall seconds",
        xs=list(range(1, rounds + 1)),
        series={label: walls[label] for label in walls},
        notes=(
            f"load: sequential={loads['sequential']:.2f}s "
            f"overlapped={loads['overlapped']:.2f}s; "
            f"round-phase speedup x{speedup:.2f}"
        ),
        meta={
            "n": n,
            "rounds": rounds,
            "budget": budget,
            "load_seconds": loads,
            "round_seconds": totals,
            "speedup": speedup,
            "estimates_identical": True,
        },
    )


def test_htap_fig12(figure_bench):
    figure = figure_bench(run_htap_fig12)
    # Estimates already proven identical inside the builder; here gate on
    # the speedup floor.  The default floor only rejects pathological
    # slowdowns — a single-core host cannot overlap anything yet still
    # pays the publish + copy-on-write HTAP tax (~0.7x); raise
    # REPRO_BENCH_HTAP_MIN_SPEEDUP to 1.5 on a dedicated >=2-core
    # machine to enforce the overlap goal itself.
    assert figure.meta["estimates_identical"]
    assert figure.meta["speedup"] > MIN_SPEEDUP, figure.meta
