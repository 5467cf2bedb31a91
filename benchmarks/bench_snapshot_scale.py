"""Snapshot scale benchmark: fig12 shape at n >= 2M, plus durability.

Runs the seeded multi-tenant estimation workload (bulk load, heavy round
churn, three estimator tenants — the fig12 shape, scaled up) on the
default engine config with a durable store directory, takes an atomic
snapshot mid-run, and then proves the durability contract at scale: an
engine restored from that snapshot re-runs the remaining rounds
*bit-identically* to the uninterrupted pass.

The schema is narrow (m=12), so prefix keys pack into int64 and the
columnar query plane stays on its vector paths throughout.

Environment knobs::

    REPRO_BENCH_SNAPSHOT_N       tuples to load (default 2_000_000)
    REPRO_BENCH_SNAPSHOT_ROUNDS  churn/estimation rounds (default 5)
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.data.schedules import FreshTupleSchedule, apply_round
from repro.data.synthetic import skewed_source
from repro.experiments.figures.common import FigureResult

ALGORITHMS = ("RESTART", "REISSUE", "RS")

SNAPSHOT_N = int(os.environ.get("REPRO_BENCH_SNAPSHOT_N", "2000000"))
SNAPSHOT_ROUNDS = int(os.environ.get("REPRO_BENCH_SNAPSHOT_ROUNDS", "5"))


def _submit_tenants(engine: Engine, seed: int) -> None:
    for index, algorithm in enumerate(ALGORITHMS):
        engine.submit(EstimationTask(
            algorithm, [count_all()], algorithm, seed=seed + 17 + index,
        ))


def _churn_rounds(engine, schedule, rng, rounds, *, advance_first):
    """Run churn+estimation rounds; returns (walls, estimate trace)."""
    walls: list[float] = []
    trace: list[dict] = []
    for position in range(rounds):
        started = time.perf_counter()
        if position or advance_first:
            engine.apply_updates(lambda db: apply_round(db, schedule, rng))
            engine.advance_round()
        reports = engine.run_round()
        walls.append(time.perf_counter() - started)
        trace.append({
            name: (report.estimates, report.queries_used)
            for name, report in sorted(reports.items())
        })
    return walls, trace


def run_snapshot_scale(
    n: int = SNAPSHOT_N,
    rounds: int = SNAPSHOT_ROUNDS,
    budget: int = 300,
    seed: int = 0,
) -> FigureResult:
    snapshot_round = max(1, rounds // 2)
    # Sizes 4..8 over 12 attributes: ~9e8 leaf vectors, so 2M *distinct*
    # rows rejection-sample cleanly, while prefix keys still pack into
    # int64.
    domain_sizes = [4 + (i % 5) for i in range(12)]
    source = skewed_source(domain_sizes, exponent=0.4, seed=seed)
    store_dir = tempfile.mkdtemp(prefix="bench-snapshot-")
    try:
        engine = Engine(
            EngineConfig(
                k=100,
                budget_per_round=budget,
                seed=seed,
                store_dir=store_dir,
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
        _submit_tenants(engine, seed)
        rng = random.Random(seed + 5)
        walls, trace = _churn_rounds(
            engine, schedule, rng, snapshot_round, advance_first=False,
        )
        # The recovery point: snapshot, keep churning the live engine to
        # the end, remembering the churn-RNG position at the cut.
        rng_state = rng.getstate()
        snapshot_started = time.perf_counter()
        engine.save()
        snapshot_seconds = time.perf_counter() - snapshot_started
        tail_walls, tail_trace = _churn_rounds(
            engine, schedule, rng, rounds - snapshot_round,
            advance_first=True,
        )
        walls += tail_walls
        # Kill-and-restore: a fresh engine from the snapshot replays the
        # same churn stream and must reproduce the tail bit-identically.
        restore_started = time.perf_counter()
        restored = Engine.load(store_dir)
        restore_seconds = time.perf_counter() - restore_started
        replay_rng = random.Random()
        replay_rng.setstate(rng_state)
        _, restored_trace = _churn_rounds(
            restored, schedule, replay_rng, rounds - snapshot_round,
            advance_first=True,
        )
        assert restored_trace == tail_trace, (
            "restored engine diverged from the uninterrupted run"
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return FigureResult(
        "snapshot_scale",
        f"fig12-shaped workload, n={n}, snapshot + kill/restore",
        x_label="round",
        y_label="wall seconds",
        xs=list(range(1, rounds + 1)),
        series={"rounds": walls},
        notes=(
            f"load {load_seconds:.2f}s, snapshot {snapshot_seconds:.2f}s, "
            f"restore {restore_seconds:.2f}s; restored tail bit-identical"
        ),
        meta={
            "n": n,
            "snapshot_round": snapshot_round,
            "load_seconds": load_seconds,
            "snapshot_seconds": snapshot_seconds,
            "restore_seconds": restore_seconds,
            "resumed_identical": True,
        },
    )


def test_snapshot_scale(figure_bench):
    figure = figure_bench(run_snapshot_scale)
    # The durability assert already ran inside the builder; the perf gate
    # (tools in CI) bounds the recorded wall_seconds against baselines.
    assert figure.meta["resumed_identical"]
    assert (
        figure.meta["n"] >= 2_000_000
        or "REPRO_BENCH_SNAPSHOT_N" in os.environ
    )
