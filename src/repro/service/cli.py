"""``repro-serve``: run the estimation engine as an HTTP/JSON service.

Builds a synthetic dynamic hidden database (the same
:func:`repro.data.synthetic.skewed_source` family the experiments use),
wraps it in an :class:`~repro.api.Engine` + governed
:class:`~repro.service.app.ServiceApp`, and serves the versioned wire API
of :mod:`repro.service.http` until SIGINT/SIGTERM or ``POST
/v1/shutdown``.

Example::

    repro-serve --port 8080 --rows 50000 \\
        --budget-per-round 200 --queries-per-window 2000 --window-rounds 8
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from ..api import Engine, EngineConfig, has_snapshot
from ..data.synthetic import skewed_source
from ..obs import OBS
from .app import ServiceApp
from .governor import BudgetGovernor, GovernorConfig
from .http import ServiceServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the aggregate-estimation engine over HTTP/JSON.",
    )
    net = parser.add_argument_group("network")
    net.add_argument("--host", default="127.0.0.1")
    net.add_argument("--port", type=int, default=8080,
                     help="listen port (0 = ephemeral, printed on start)")

    data = parser.add_argument_group("database")
    data.add_argument(
        "--domain-sizes", default="8,10,12,6,4",
        help="comma-separated categorical domain sizes (default %(default)s)",
    )
    data.add_argument("--exponent", type=float, default=0.4,
                      help="zipf skew of the synthetic source")
    data.add_argument(
        "--measures", default="price",
        help="comma-separated measure names ('' for none)",
    )
    data.add_argument("--rows", type=int, default=20_000,
                      help="initial tuple count")
    data.add_argument("--seed", type=int, default=0)

    engine = parser.add_argument_group("engine")
    engine.add_argument(
        "--overlap", action="store_true",
        help="HTAP epoch split: estimators read the published immutable "
             "epoch while round-boundary churn lands concurrently "
             "(bit-identical estimates; mutations become visible at the "
             "next round flip)",
    )
    engine.add_argument("--k", type=int, default=100,
                        help="top-k interface page size")
    engine.add_argument("--budget-per-round", type=int, default=300,
                        help="default per-task round budget G")
    engine.add_argument("--report-log-limit", type=int, default=4096,
                        help="retained reports per task / engine log")
    engine.add_argument(
        "--observability", choices=("on", "off"), default="on",
        help="repro.obs metrics/tracing plane (default %(default)s; "
             "estimates are bit-identical either way) — serves "
             "Prometheus text at GET /v1/metrics",
    )

    durability = parser.add_argument_group("durability")
    durability.add_argument(
        "--store-dir", default=None,
        help="durable store directory: restore the committed snapshot on "
             "start when one exists, and write snapshots there",
    )
    durability.add_argument(
        "--snapshot-every", type=int, default=None,
        help="auto-snapshot after every N completed rounds "
             "(requires --store-dir; default: manual snapshots only)",
    )

    governor = parser.add_argument_group("governor")
    governor.add_argument(
        "--queries-per-window", type=int, default=None,
        help="per-tenant query ceiling per window (default unlimited)",
    )
    governor.add_argument(
        "--total-queries-per-window", type=int, default=None,
        help="service-wide query ceiling per window (default unlimited)",
    )
    governor.add_argument("--window-rounds", type=int, default=16,
                          help="governor window length in rounds")
    governor.add_argument(
        "--shrink-steps", default="0.85,0.7,0.55,0.4",
        help="comma-separated shrink_k fractions tried largest-first",
    )
    governor.add_argument("--max-deferrals", type=int, default=2,
                          help="consecutive widen_rounds deferrals allowed")
    governor.add_argument("--max-tenants", type=int, default=None,
                          help="concurrent tenant cap at submit time")
    return parser


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_app(args: argparse.Namespace) -> ServiceApp:
    """The governed service app ``repro-serve`` exposes (test seam).

    With ``--store-dir`` pointing at a committed snapshot, the service
    *restores* instead of rebuilding: the synthetic-source flags are
    ignored in favor of the saved database, tasks, and RNG streams, so a
    killed ``repro-serve`` restarts bit-identical to its last snapshot
    (governor policy flags still apply — only usage counters restore).
    """
    governor = BudgetGovernor(GovernorConfig(
        queries_per_window=args.queries_per_window,
        window_rounds=args.window_rounds,
        shrink_steps=_csv_floats(args.shrink_steps),
        max_deferrals=args.max_deferrals,
        total_queries_per_window=args.total_queries_per_window,
        max_tenants=args.max_tenants,
    ))
    observability = args.observability == "on"
    if args.store_dir is not None and has_snapshot(args.store_dir):
        if observability:
            # The restored engine's saved config decides nothing here:
            # the flag is this process's explicit choice.
            OBS.enable()
        return ServiceApp.restore(
            args.store_dir,
            governor=governor,
            snapshot_every=args.snapshot_every,
        )
    measures = _csv_names(args.measures)
    source = skewed_source(
        _csv_ints(args.domain_sizes),
        exponent=args.exponent,
        measures=measures,
        measure_sampler=(
            (lambda rng: tuple(
                rng.uniform(1.0, 100.0) for _ in measures
            )) if measures else None
        ),
        seed=args.seed,
    )
    config = EngineConfig(
        k=args.k,
        budget_per_round=args.budget_per_round,
        seed=args.seed,
        overlap=args.overlap,
        report_log_limit=args.report_log_limit,
        store_dir=args.store_dir,
        observability=observability,
    )
    engine = Engine(config, schema=source.schema)
    engine.load(source.batch_columns(args.rows))
    return ServiceApp(engine, governor, snapshot_every=args.snapshot_every)


async def _serve(app: ServiceApp, host: str, port: int) -> None:
    server = ServiceServer(app, host=host, port=port)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, server.request_shutdown)
    print(
        f"repro-serve: listening on http://{server.host}:{server.port} "
        f"(n={len(app.engine.db)}, "
        f"k={app.engine.config.k}, G={app.engine.config.budget_per_round})",
        flush=True,
    )
    await server.serve_forever()
    print("repro-serve: shut down cleanly", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rows < 0:
        parser.error("--rows must be non-negative")
    try:
        app = build_app(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        parser.error(str(exc))
    try:
        asyncio.run(_serve(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
