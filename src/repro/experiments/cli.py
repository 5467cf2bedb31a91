"""Command-line entry point: list and run the paper's experiments.

Installed as ``repro-experiments``::

    repro-experiments list
    repro-experiments run fig02 --scale 0.1 --trials 3
    repro-experiments run fig12 --data-plane scalar
    repro-experiments run all --out results.txt

The CLI is a thin client of :mod:`repro.api`: the flags populate one
:class:`~repro.api.EngineConfig` whose scope every figure driver's engine
inherits.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from ..api import EngineConfig
from ..obs import OBS, format_span_tree
from .figures import FIGURES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures of 'Aggregate Estimation Over Dynamic "
            "Hidden Web Databases' (VLDB 2014) on local simulators."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("figure", help="figure id (see 'list') or 'all'")
    run.add_argument("--scale", type=float, default=None,
                     help="fraction of the paper's dataset size")
    run.add_argument("--trials", type=int, default=None,
                     help="independent trials to average over")
    run.add_argument("--rounds", type=int, default=None,
                     help="number of rounds to track")
    run.add_argument("--budget", type=int, default=None,
                     help="per-round query budget G")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--data-plane",
        choices=("vectorized", "scalar"),
        default=None,
        help="data plane for bulk loads and query evaluation (default: "
             "the process default — set_data_plane, then REPRO_DATA_PLANE, "
             "then 'vectorized')",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="enable the repro.obs observability plane and print a "
             "per-phase span tree after each figure (estimates are "
             "bit-identical with or without it)",
    )
    run.add_argument("--out", default=None, help="append output to a file")
    return parser


def _supported_kwargs(function, candidates: dict) -> dict:
    accepted = inspect.signature(function).parameters
    return {
        key: value
        for key, value in candidates.items()
        if value is not None and key in accepted
    }


def _run_one(figure_id: str, args: argparse.Namespace) -> str:
    function = FIGURES[figure_id]
    kwargs = _supported_kwargs(
        function,
        {
            "scale": args.scale,
            "trials": args.trials,
            "rounds": args.rounds,
            "budget": args.budget,
            "seed": args.seed,
        },
    )
    started = time.perf_counter()
    figure = function(**kwargs)
    elapsed = time.perf_counter() - started
    return f"{figure.to_text()}\n(ran in {elapsed:.1f}s)\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for figure_id, function in FIGURES.items():
            summary = (function.__doc__ or "").strip().splitlines()[0]
            print(f"{figure_id:24s} {summary}")
        return 0
    if args.figure != "all" and args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r}; try 'list'", file=sys.stderr)
        return 2
    targets = list(FIGURES) if args.figure == "all" else [args.figure]
    chunks = []
    # One config object carries every knob; applying it scopes the process
    # defaults that the figure drivers' engines then inherit.
    config = EngineConfig(
        data_plane=args.data_plane,
        observability=True if args.profile else None,
    )
    with config.apply():
        for figure_id in targets:
            if args.profile:
                # Fresh counters and span log per figure, so each printed
                # profile covers exactly one figure run.
                OBS.reset()
            text = _run_one(figure_id, args)
            if args.profile:
                text += (
                    f"\n-- profile: {figure_id} "
                    f"(spans dropped: {OBS.spans.dropped}) --\n"
                    f"{format_span_tree(OBS.spans.records())}\n"
                )
            print(text)
            chunks.append(text)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write("\n".join(chunks))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
