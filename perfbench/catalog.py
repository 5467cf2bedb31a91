"""Every metric the benchmark prints, with its unit and direction.

``BENCHMARK.json`` lists the same names and units; the smoke test
(``perfbench/test_smoke.py``) checks that the two agree and that a run
emits each of them.  ``MOVES`` records, for each per-layer call, the
end-to-end metric and workload a change to that layer should move; on the
other workloads the prediction is no change.
"""

from __future__ import annotations

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("round_p50_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("mutations_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("observer_p50_ms", "ms", "lower"),
    ("observer_p99_ms", "ms", "lower"),
)

#: Traced layer calls -> what a change there should move.
MOVES = {
    "data.generate": "setup_s and mutations_per_s on every workload",
    "data.plan": "mutations_per_s on every workload; round_p50_s on service_observed",
    "data.apply_round": "mutations_per_s on every workload",
    "hiddendb.load": "setup_s on every workload",
    "hiddendb.insert": "mutations_per_s on every workload",
    "hiddendb.delete": "mutations_per_s on every workload",
    "hiddendb.index_flush": "mutations_per_s on every workload",
    "hiddendb.index_build": "setup_s on every workload",
    "hiddendb.advance": "round_p50_s on every workload (expected tiny)",
    "hiddendb.search": "queries_per_s and round_p50_s on estimate_heavy",
    "hiddendb.probe": "queries_per_s and round_p50_s on estimate_heavy",
    # COUNT totals a page from its size alone, so the COUNT-only
    # estimate_heavy never gathers; the SUM tenants of service_observed do.
    "hiddendb.gather": "queries_per_s and round_p50_s on service_observed",
    "hiddendb.topk": "queries_per_s and round_p50_s on service_observed",
    "hiddendb.materialize": "nothing yet: no workload materializes rows",
    "core.signature": "queries_per_s on estimate_heavy",
    "core.drill_fresh": "queries_per_s on estimate_heavy",
    "core.drill_reissue": "queries_per_s on estimate_heavy",
    "core.contribution": "queries_per_s on estimate_heavy",
    "api.run_round": "round_p50_s on every workload",
    "api.apply_updates": "round_p50_s on every workload",
    "api.advance_round": "round_p50_s on every workload",
    "api.submit": "setup_s on every workload",
    "api.save": "run_s on service_observed, not round_p50_s",
    "service.governor": "round_p50_s and observer_*_ms on service_observed",
}

#: Client request / server handler endpoints of the service layer.
ENDPOINTS = ("tasks", "rounds", "reports", "ledger", "healthz")
for _endpoint in ENDPOINTS:
    MOVES["service.request." + _endpoint] = (
        "round_p50_s and observer_*_ms on service_observed"
    )
    MOVES["service.handler." + _endpoint] = (
        "round_p50_s and observer_*_ms on service_observed"
    )

#: ``(name, unit, better)`` of the extra per-layer figures.
EXTRAS = (
    ("data.generate.rows", "count", "lower"),
    ("data.plan.mutations", "count", "lower"),
    ("hiddendb.delete.skip_share", "ratio", "lower"),
    ("hiddendb.search.overflow_share", "ratio", "lower"),
    ("hiddendb.search.valid_share", "ratio", "higher"),
    ("hiddendb.search.underflow_share", "ratio", "lower"),
    ("hiddendb.gather.rows", "count", "lower"),
    ("core.queries_per_drilldown", "queries/walk", "lower"),
    ("core.estimator.calls", "count", "lower"),
    ("core.estimator.self_s", "s", "lower"),
    ("core.rel_error", "ratio", "lower"),
    ("api.save.bytes", "bytes", "lower"),
    ("service.transport.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer() -> tuple:
    """``(name, unit, better)`` of every per-layer metric (``--trace 1``)."""
    metrics = []
    for call in MOVES:
        metrics.append((call + ".calls", "count", "lower"))
        metrics.append((call + ".s", "s", "lower"))
        metrics.append((call + ".self_s", "s", "lower"))
    return tuple(metrics) + EXTRAS
