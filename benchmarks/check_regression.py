"""Perf-regression gate: compare BENCH_*.json wall times to baselines.

Usage::

    python benchmarks/check_regression.py BENCH_fig12_vectorized.json ...

Each ``BENCH_<label>.json`` is matched to the ``<label>`` entry of
``benchmarks/baselines.json`` and fails the run when its wall time exceeds
``baseline * REPRO_BENCH_MAX_REGRESSION`` (default 1.5).  Labels without a
baseline are reported but never fail, so new benchmarks can land before
their baseline does.

Baselines are wall times observed on the CI runner class, with headroom for
runner jitter already included.  To refresh after an intentional change::

    1. take wall_seconds from the bench-results artifact of a green run,
    2. multiply by ~1.3 for runner variance,
    3. commit the new value to benchmarks/baselines.json.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"

MAX_REGRESSION = float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "1.5"))


def _label_of(path: Path) -> str:
    stem = path.stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_regression.py BENCH_<label>.json [...]")
        return 2
    baselines = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    failures: list[str] = []
    print(f"perf gate: wall time must stay within {MAX_REGRESSION:.2f}x "
          f"of benchmarks/baselines.json")
    for name in argv:
        path = Path(name)
        label = _label_of(path)
        measured = json.loads(path.read_text(encoding="utf-8"))
        wall = float(measured["wall_seconds"])
        entry = baselines.get(label)
        if entry is None:
            print(f"  {label:>20}: {wall:7.2f}s (no baseline — skipped; "
                  f"add one to benchmarks/baselines.json)")
            continue
        baseline = float(entry["wall_seconds"])
        ratio = wall / baseline if baseline > 0 else float("inf")
        verdict = "ok" if ratio <= MAX_REGRESSION else "REGRESSION"
        print(f"  {label:>20}: {wall:7.2f}s vs baseline {baseline:.2f}s "
              f"(x{ratio:.2f}) {verdict}")
        if ratio > MAX_REGRESSION:
            failures.append(label)
    if failures:
        print()
        print(f"FAILED: {', '.join(failures)} regressed more than "
              f"{MAX_REGRESSION:.2f}x.")
        print("If the slowdown is intentional (bigger workload, extra "
              "coverage), refresh the baseline:")
        print("  1. take wall_seconds from this run's bench-results "
              "artifact,")
        print("  2. multiply by ~1.3 for runner variance,")
        print("  3. commit the new value to benchmarks/baselines.json.")
        return 1
    print("perf gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
