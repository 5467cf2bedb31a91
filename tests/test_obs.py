"""Unit tests for the ``repro.obs`` observability plane.

Registry semantics (get-or-create handles, catalog enforcement, reset in
place), span tracing (nesting, bounded log, tree formatting), exports
(strict-JSON snapshot, Prometheus text exposition), the configuration
precedence helpers, and the race-safe :class:`InterfaceStats` counters.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.errors import ExperimentError
from repro.hiddendb.interface import InterfaceStats, QueryStatus
from repro.obs import (
    CATALOG,
    OBS,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
    SpanLog,
    format_span_tree,
    get_default_observability,
    kind_of,
    register_metric,
    set_default_observability,
    using_observability,
)


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Leave the global registry disabled and zeroed around every test."""
    OBS.reset()
    OBS.disable()
    previous = set_default_observability(None)
    yield
    OBS.reset()
    OBS.disable()
    set_default_observability(previous)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_kind_of_known_and_unknown():
    assert kind_of("repro_queries_total") == "counter"
    assert kind_of("repro_round_seconds") == "histogram"
    assert kind_of("repro_epoch_pinned_readers") == "gauge"
    with pytest.raises(ExperimentError):
        kind_of("repro_nonexistent_total")


def test_register_metric_idempotent_and_kind_locked():
    register_metric("repro_test_ext_total", "counter", "An extension.")
    assert kind_of("repro_test_ext_total") == "counter"
    # Same kind again: no-op.
    register_metric("repro_test_ext_total", "counter", "Again.")
    with pytest.raises(ExperimentError):
        register_metric("repro_test_ext_total", "gauge", "Flip.")
    with pytest.raises(ExperimentError):
        register_metric("repro_test_bad", "meter", "Unknown kind.")
    CATALOG.pop("repro_test_ext_total")


def test_registry_rejects_uncataloged_and_wrong_kind():
    registry = MetricsRegistry()
    with pytest.raises(ExperimentError):
        registry.counter("repro_not_cataloged_total")
    with pytest.raises(ExperimentError):
        registry.gauge("repro_queries_total")  # cataloged as a counter


# ----------------------------------------------------------------------
# Handles
# ----------------------------------------------------------------------
def test_get_or_create_returns_same_handle():
    registry = MetricsRegistry()
    a = registry.counter("repro_queries_total", {"status": "valid"})
    b = registry.counter("repro_queries_total", {"status": "valid"})
    assert a is b
    other = registry.counter("repro_queries_total", {"status": "overflow"})
    assert other is not a
    a.inc()
    a.inc(4)
    assert a.value == 5
    assert other.value == 0


def test_histogram_bucket_defaults_by_suffix():
    register_metric("repro_test_ext_rows", "histogram", "Rows per batch.")
    try:
        registry = MetricsRegistry()
        seconds = registry.histogram("repro_round_seconds")
        rows = registry.histogram("repro_test_ext_rows", {"op": "add"})
        assert seconds.bounds == TIME_BUCKETS
        assert rows.bounds == SIZE_BUCKETS
        rows.observe(3.0)
        rows.observe(1000.0)
        # bisect places 3.0 above le=1, 1000 above le=256.
        assert rows.count == 2
        assert rows.total == 1003.0
        assert rows.counts[1] == 1  # (1, 4]
        assert sum(rows.counts) == 2
        assert rows.mean == 501.5
    finally:
        CATALOG.pop("repro_test_ext_rows")


def test_reset_zeroes_in_place_and_handles_stay_valid():
    registry = MetricsRegistry()
    counter = registry.counter("repro_rounds_total")
    counter.inc(7)
    registry.reset()
    assert counter.value == 0
    counter.inc()
    assert registry.counter("repro_rounds_total") is counter
    assert counter.value == 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_spans_nest_and_record_parent_ids():
    registry = MetricsRegistry()
    registry.enable()
    with registry.span("engine.run_round"):
        with registry.span("round.task"):
            pass
        with registry.span("round.task"):
            pass
    records = registry.spans.records()
    assert [r["name"] for r in records] == [
        "round.task", "round.task", "engine.run_round",
    ]
    root = records[-1]
    assert root["parent"] is None
    assert all(r["parent"] == root["id"] for r in records[:2])
    assert all(r["seconds"] >= 0.0 for r in records)
    tree = format_span_tree(records)
    assert "engine.run_round" in tree
    assert "  round.task" in tree  # child line indents under its root
    assert "x2" in tree  # the two task spans collapse into one line


def test_disabled_span_is_shared_noop():
    registry = MetricsRegistry()
    a = registry.span("x")
    b = registry.span("y")
    assert a is b
    with a:
        pass
    assert len(registry.spans) == 0


def test_span_log_bounded_with_drop_count():
    log = SpanLog(limit=4)
    for _ in range(6):
        with log.span("s"):
            pass
    assert len(log) == 4
    assert log.dropped == 2
    log.clear()
    assert len(log) == 0
    assert log.dropped == 0


def test_span_log_jsonl_round_trips():
    log = SpanLog()
    with log.span("outer"):
        pass
    lines = log.to_jsonl().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["name"] == "outer"


def test_format_span_tree_empty():
    assert format_span_tree([]) == "(no spans recorded)"


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def test_snapshot_is_strict_json_and_sorted():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", {"status": "valid"}).inc(3)
    registry.gauge("repro_epoch_pinned_readers").set(2)
    registry.histogram("repro_round_seconds").observe(0.02)
    snap = registry.snapshot()
    json.dumps(snap, allow_nan=False)  # must not raise
    assert snap["enabled"] is False
    assert snap["counters"][0]["labels"] == {"status": "valid"}
    assert snap["counters"][0]["value"] == 3
    [histogram] = snap["histograms"]
    assert histogram["count"] == 1
    # Cumulative buckets end at the total count with the +Inf edge
    # wire-encoded as a string (repro.core.wire.encode_float).
    assert histogram["buckets"][-1][1] == 1
    assert histogram["buckets"][-1][0] == "inf"
    assert snap["spans"] == {"recorded": 0, "dropped": 0}


def test_summary_headlines():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", {"status": "valid"}).inc(6)
    registry.counter("repro_queries_total", {"status": "overflow"}).inc(2)
    registry.histogram("repro_epoch_publish_seconds").observe(0.25)
    summary = registry.summary()
    assert summary["queries"] == {"overflow": 2, "valid": 6, "total": 8}
    assert summary["publish_flip"]["count"] == 1
    assert summary["publish_flip"]["mean_seconds"] == 0.25


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", {"status": "valid"}).inc(3)
    registry.histogram("repro_round_seconds").observe(0.02)
    text = registry.to_prometheus()
    assert text.endswith("\n")
    assert "# HELP repro_queries_total " in text
    assert "# TYPE repro_queries_total counter" in text
    assert '# TYPE repro_round_seconds histogram' in text
    assert 'repro_queries_total{status="valid"} 3' in text
    assert 'repro_round_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_round_seconds_count 1" in text
    sample = re.compile(
        r"^repro_[a-z0-9_]+(_bucket|_sum|_count)?"
        r"(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
        r" [0-9eE.+-]+$"
    )
    comment = re.compile(r"^# (HELP|TYPE) repro_[a-z0-9_]+ .+$")
    for line in text.splitlines():
        assert sample.match(line) or comment.match(line), line
    # Bucket counts are cumulative and non-decreasing.
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_round_seconds_bucket")
    ]
    assert counts == sorted(counts)


def test_label_escaping():
    registry = MetricsRegistry()
    registry.counter(
        "repro_queries_total", {"status": 'we"ird\\nl\n'}
    ).inc()
    line = [
        ln for ln in registry.to_prometheus().splitlines()
        if ln.startswith("repro_queries_total{")
    ][0]
    assert '\\"' in line and "\\\\" in line and "\\n" in line
    assert "\n" not in line


# ----------------------------------------------------------------------
# Precedence helpers
# ----------------------------------------------------------------------
def test_default_observability_env_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert get_default_observability() is False
    monkeypatch.setenv("REPRO_OBS", "1")
    assert get_default_observability() is True
    monkeypatch.setenv("REPRO_OBS", "off")
    assert get_default_observability() is False
    # Programmatic default beats the env var in both directions.
    set_default_observability(True)
    assert get_default_observability() is True
    monkeypatch.setenv("REPRO_OBS", "on")
    set_default_observability(False)
    assert get_default_observability() is False


def test_using_observability_scopes_default_and_enabled():
    assert OBS.enabled is False
    with using_observability(True) as active:
        assert active is True
        assert OBS.enabled is True
        assert get_default_observability() is True
    assert OBS.enabled is False
    assert get_default_observability() is False
    with using_observability(None) as active:  # None = no-op
        assert active is False
        assert OBS.enabled is False


# ----------------------------------------------------------------------
# InterfaceStats (satellite: race-safe counters)
# ----------------------------------------------------------------------
def test_interface_stats_record_and_to_dict():
    stats = InterfaceStats()
    stats.record(QueryStatus.VALID)
    stats.record(QueryStatus.OVERFLOW)
    stats.record(QueryStatus.UNDERFLOW)
    assert stats.to_dict() == {
        "queries": 3, "underflow": 1, "valid": 1, "overflow": 1,
    }


def test_interface_stats_merge():
    a, b = InterfaceStats(), InterfaceStats()
    a.record(QueryStatus.VALID)
    b.record(QueryStatus.OVERFLOW)
    b.record(QueryStatus.OVERFLOW)
    a.merge(b)
    assert a.to_dict() == {
        "queries": 3, "underflow": 0, "valid": 1, "overflow": 2,
    }
    # The source is untouched and still usable.
    assert b.to_dict()["queries"] == 2


def test_interface_stats_concurrent_records_and_merges():
    stats = InterfaceStats()
    per_thread, threads = 500, 8

    def pound():
        local = InterfaceStats()
        for i in range(per_thread):
            local.record(
                QueryStatus.VALID if i % 2 else QueryStatus.OVERFLOW
            )
            stats.record(QueryStatus.UNDERFLOW)
        stats.merge(local)

    workers = [threading.Thread(target=pound) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    total = stats.to_dict()
    assert total["queries"] == 2 * per_thread * threads
    assert total["underflow"] == per_thread * threads
    assert total["valid"] + total["overflow"] == per_thread * threads
    # Snapshot invariant: parts always sum to the whole.
    assert (
        total["underflow"] + total["valid"] + total["overflow"]
        == total["queries"]
    )
