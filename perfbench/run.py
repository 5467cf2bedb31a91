"""Benchmark entry point for the dynamic hidden-database estimation engine.

Run from the repository root::

    python3 perfbench/run.py --workload estimate_heavy --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures with tracing and ``repro.obs`` off and prints the
end-to-end metrics.  ``--trace 1`` runs one pass untraced and the same
pass again with every layer wrapped in spans (``tracing.py``), checks that
both produced byte-identical estimates, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  ``--workload all``
runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.  Workload inputs come from ``--seed``
alone; ``REPRO_*`` environment variables are dropped before the program
is imported, so an inherited environment cannot change what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Sanity ceiling on the mean |estimate - exact| / exact of a run.  The
#: workloads sit at 0.02-0.2; a broken estimator lands far above.
MAX_REL_ERROR = 0.5


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )
    from repro.obs import OBS

    OBS.disable()


def _percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def end_to_end(results) -> tuple[dict, list]:
    """End-to-end metrics over the passes of an untraced run, plus notes
    stating sample counts."""
    walls = [wall for result in results for wall in result.round_walls]
    polls = sorted(s for result in results for s in result.observer_s)
    values = {
        "setup_s": statistics.median(r.setup_s for r in results),
        "round_p50_s": statistics.median(walls),
        "run_s": sum(walls) / len(results),
        "queries_per_s": statistics.median(
            count / wall for r in results
            for count, wall in zip(r.queries, r.estimate_walls)
        ),
        "mutations_per_s": statistics.median(
            count / wall for r in results
            for count, wall in zip(r.mutations, r.apply_walls)
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "observer_p50_ms": _percentile(polls, 0.50) * 1e3 if polls else 0.0,
        "observer_p99_ms": _percentile(polls, 0.99) * 1e3 if polls else 0.0,
    }
    notes = [
        f"passes={len(results)} (setup_s is their median, run_s their mean)",
        f"round_p50_s over {len(walls)} rounds",
        f"observer_p50_ms / observer_p99_ms over {len(polls)} polls",
    ]
    return values, notes


def per_layer(tracer, traced, reference) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, plus the round-phase table
    whose self times and ``unattributed_s`` add up to the traced run_s."""
    from tracing import ROUND_SPAN, aggregate

    summary = aggregate(tracer.records)
    by_name = summary["by_name"]
    counts = tracer.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values: dict = {}
    for call in catalog.MOVES:
        entry = by_name.get(call, zero)
        values[call + ".calls"] = entry["calls"]
        values[call + ".s"] = entry["s"]
        values[call + ".self_s"] = entry["self_s"]

    def share(part, whole):
        return part / whole if whole else 0.0

    searches = values["hiddendb.search.calls"]
    estimator = by_name.get("core.estimator", zero)
    values.update({
        "data.generate.rows": counts["data.generate.rows"],
        "data.plan.mutations": counts["data.plan.mutations"],
        "hiddendb.delete.skip_share": 1.0 - share(
            values["hiddendb.delete.calls"], counts["hiddendb.delete.planned"]
        ) if counts["hiddendb.delete.planned"] else 0.0,
        "hiddendb.search.overflow_share": share(
            counts["hiddendb.search.overflow"], searches),
        "hiddendb.search.valid_share": share(
            counts["hiddendb.search.valid"], searches),
        "hiddendb.search.underflow_share": share(
            counts["hiddendb.search.underflow"], searches),
        "hiddendb.gather.rows": counts["hiddendb.gather.rows"],
        "core.queries_per_drilldown": share(
            counts["core.walk_queries"], counts["core.walks"]),
        "core.estimator.calls": estimator["calls"],
        "core.estimator.self_s": estimator["self_s"],
        "core.rel_error": statistics.fmean(traced.rel_errors),
        "api.save.bytes": counts["api.save.bytes"],
        "service.transport.self_s": sum(
            entry["self_s"] for name, entry in by_name.items()
            if name.startswith("service.request.")
        ),
        "unattributed_s": summary["round_self_s"].get(ROUND_SPAN, 0.0),
        "trace_overhead": share(
            summary["run_s"], sum(reference.round_walls)),
    })
    run_s = summary["run_s"]
    rows = sorted(
        (
            (value, name)
            for name, value in summary["round_self_s"].items()
            if name != ROUND_SPAN
        ),
        reverse=True,
    )
    table = [f"round phase, traced run_s={run_s:.4f}s over "
             f"{len(traced.round_walls)} rounds: self time by layer"]
    for value, name in rows:
        table.append(f"  {name:<28} {value:10.4f}s {share(value, run_s):7.1%}")
    unattributed = values["unattributed_s"]
    table.append(f"  {'unattributed':<28} {unattributed:10.4f}s "
                 f"{share(unattributed, run_s):7.1%}")
    total = sum(value for value, _name in rows) + unattributed
    table.append(f"  {'sum':<28} {total:10.4f}s (run_s {run_s:.4f}s)")
    return values, table


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> dict:
    """One workload's run; returns the result object."""
    import workloads

    shape = workloads.SHAPES[name].scaled(scale)
    OUT.mkdir(exist_ok=True)
    work_dir = str(OUT)
    problems: list[str] = []
    if not trace:
        passes = max(3, math.ceil(seconds / shape.pass_s))
        results = [
            workloads.run_pass(shape, workloads.pass_seed(seed, index),
                               work_dir=work_dir)
            for index in range(passes)
        ]
        values, notes = end_to_end(results)
        units = {metric: unit for metric, unit, _ in catalog.END_TO_END}
    else:
        from tracing import Tracer, install

        pass_seed = workloads.pass_seed(seed, 0)
        reference = workloads.run_pass(shape, pass_seed, work_dir=work_dir)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = workloads.run_pass(shape, pass_seed, tracer, work_dir)
        finally:
            uninstall()
        if traced.trace != reference.trace:
            problems.append(
                "traced estimates differ from the untraced pass's"
            )
        spans = OUT / f"spans-{name}.jsonl.gz"
        tracer.write(str(spans))
        results = [reference, traced]
        values, notes = per_layer(tracer, traced, reference)
        notes.append(f"{len(tracer.records)} spans written to {spans}")
        units = {metric: unit for metric, unit, _ in catalog.per_layer()}
    for result in results:
        problems.extend(result.problems)
    errors = [e for result in results for e in result.rel_errors]
    rel_error = statistics.fmean(errors) if errors else math.inf
    print(f"[{name}] mean relative error {rel_error:.4g} over "
          f"{len(errors)} estimates")
    if not rel_error <= MAX_REL_ERROR:
        problems.append(
            f"mean relative error {rel_error:.3g} exceeds {MAX_REL_ERROR}"
        )
    if any(not math.isfinite(value) for value in values.values()):
        problems.append("a metric is not finite")
    digest = hashlib.sha256(
        "\n".join(line for r in results for line in r.trace).encode()
    ).hexdigest()
    print(f"[{name}] seed={seed} estimate digest sha256={digest}")
    for note in notes:
        print(f"[{name}] {note}")
    for problem in problems[:20]:
        print(f"[{name}] CHECK FAILED: {problem}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in units.items()
    }
    for metric, entry in metrics.items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("estimate_heavy", "service_observed", "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink n and the round count (smoke tests only)",
    )
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    names = (
        list(workloads.SHAPES) if args.workload == "all"
        else [args.workload]
    )
    outcomes = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.scale)
        for name in names
    }
    if len(outcomes) == 1:
        (result,) = outcomes.values()
    else:
        result = {
            "correct": all(r["correct"] for r in outcomes.values()),
            "attempted": sum(r["attempted"] for r in outcomes.values()),
            "failed": sum(r["failed"] for r in outcomes.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in outcomes.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
