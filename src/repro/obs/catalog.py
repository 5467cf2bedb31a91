"""The static metric catalog: every metric name the engine may emit.

One table, checked in two directions:

* :class:`~repro.obs.registry.MetricsRegistry` refuses to create a metric
  whose name (or kind) is not cataloged — instrumentation typos fail fast
  instead of silently splitting a series;
* ``tools/check_docs.py`` cross-checks the catalog against
  ``docs/observability.md``, so the documented metric list cannot drift
  from the code in either direction.
"""

from __future__ import annotations

from ..errors import ExperimentError

#: ``name -> (kind, help text)`` for every engine-emitted metric.
CATALOG: dict[str, tuple[str, str]] = {
    # --- top-k interface -------------------------------------------------
    "repro_queries_total": (
        "counter",
        "Top-k interface queries served, by result status "
        "(underflow/valid/overflow).",
    ),
    # --- epoch lifecycle (HTAP overlap) ----------------------------------
    "repro_epoch_publish_seconds": (
        "histogram", "Publish-flip latency: freezing the live store into "
        "an immutable StoreEpoch.",
    ),
    "repro_epoch_privatized_blocks_total": (
        "counter", "Copy-on-write heap-block privatizations (first "
        "in-place write after a snapshot).",
    ),
    "repro_epoch_pinned_readers": (
        "gauge", "Reader scopes currently pinned to a published epoch.",
    ),
    "repro_epoch_refreeze_reused_total": (
        "counter", "Key-list freeze() calls satisfied by reusing the "
        "previous frozen view unchanged (no content copy), by backend.",
    ),
    # --- engine ----------------------------------------------------------
    "repro_rounds_total": (
        "counter", "Engine rounds executed (run_round calls).",
    ),
    "repro_round_seconds": (
        "histogram", "Wall time of one engine round across all tasks.",
    ),
    "repro_round_task_seconds": (
        "histogram", "Per-task round latency, by task name.",
    ),
    "repro_budget_spent_total": (
        "counter", "Queries charged against the round budget, by task.",
    ),
    # --- service plane ---------------------------------------------------
    "repro_http_request_seconds": (
        "histogram", "Service request latency, by endpoint.",
    ),
    "repro_http_requests_total": (
        "counter", "Service requests served, by endpoint and status code.",
    ),
    "repro_sse_backlog_events": (
        "gauge", "Report events retained in the SSE replay buffer.",
    ),
    "repro_governor_actions_total": (
        "counter", "Budget-governor ladder outcomes, by action "
        "(allow/shrink_k/widen_rounds/refuse).",
    ),
}


def kind_of(name: str) -> str:
    """The cataloged kind of a metric name; raises on unknown names."""
    try:
        return CATALOG[name][0]
    except KeyError:
        raise ExperimentError(
            f"metric {name!r} is not in the observability catalog"
        ) from None
