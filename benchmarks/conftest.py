"""Shared helpers for the per-figure benchmarks.

Every benchmark regenerates one figure of the paper at a reduced (but
representative) scale, prints its table and ASCII chart into the captured
output, and asserts the figure's qualitative *shape* — who wins, the
direction of trends — with deliberately loose tolerances (the absolute
numbers depend on the scale and on simulator randomness).

Environment knobs:

* ``REPRO_BENCH_SCALE``   — fraction of the paper's dataset size (default 0.05)
* ``REPRO_BENCH_TRIALS``  — trials to average per experiment (default 2)

Each run additionally drops a machine-readable ``BENCH_<figure>.json``
next to the working directory (wall time, query counts, series) so the
performance trajectory can be compared across commits (the perf gate
reads ``benchmarks/baselines.json``).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.obs import OBS

#: Fraction of the paper's dataset sizes used by default.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))

#: Trials averaged per experiment by default.
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "2"))


def tail_mean(figure, series_name: str, tail: int = 5) -> float:
    """Mean of the last ``tail`` finite values of one series."""
    values = [
        v for v in figure.series[series_name][-tail:]
        if v is not None and math.isfinite(v)
    ]
    if not values:
        return math.nan
    return sum(values) / len(values)


def _json_safe(value):
    """Recursively replace non-finite floats (JSON has no NaN/Infinity)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_bench_json(request, figure, wall_seconds: float) -> None:
    """Persist one benchmark's result as ``BENCH_<figure>.json``."""
    module = request.node.module.__name__
    stem = module[len("bench_"):] if module.startswith("bench_") else module
    payload = {
        "name": stem,
        "test": request.node.name,
        "figure_id": getattr(figure, "figure_id", None),
        "scale": BENCH_SCALE,
        "trials": BENCH_TRIALS,
        "wall_seconds": round(wall_seconds, 3),
        "xs": _json_safe(list(figure.xs)),
        "series": _json_safe(figure.series),
        "meta": _json_safe(getattr(figure, "meta", {})),
        "metrics": _json_safe({
            "summary": OBS.summary(),
            "registry": OBS.snapshot(),
        }),
    }
    path = Path.cwd() / f"BENCH_{stem}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@pytest.fixture
def figure_bench(benchmark, request):
    """Run a figure builder once under pytest-benchmark and record it."""

    def _run(builder, **kwargs):
        # Fresh counters per figure run so each BENCH_*.json's "metrics"
        # block covers exactly that run (estimates are bit-identical with
        # the observability plane on — see bench_obs_overhead.py).
        OBS.reset()
        OBS.enable()
        try:
            started = time.perf_counter()
            figure = benchmark.pedantic(
                lambda: builder(**kwargs), rounds=1, iterations=1
            )
            wall_seconds = time.perf_counter() - started
        finally:
            OBS.disable()
        print("\n" + figure.to_text())
        _write_bench_json(request, figure, wall_seconds)
        return figure

    return _run


@pytest.fixture
def tail():
    return tail_mean
