"""Unit tests for the ``repro.obs`` observability plane.

Registry semantics (get-or-create handles, catalog enforcement, reset in
place, series removal), exports (strict-JSON snapshot, Prometheus text
exposition), and the race-safe :class:`InterfaceStats` counters.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.errors import ExperimentError
from repro.hiddendb.interface import InterfaceStats, QueryStatus
from repro.obs import CATALOG, OBS, TIME_BUCKETS, MetricsRegistry, kind_of


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Leave the global registry disabled and zeroed around every test."""
    OBS.reset()
    OBS.disable()
    yield
    OBS.reset()
    OBS.disable()


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_kind_of_known_and_unknown():
    assert kind_of("repro_queries_total") == "counter"
    assert kind_of("repro_round_seconds") == "histogram"
    assert kind_of("repro_epoch_pinned_readers") == "gauge"
    with pytest.raises(ExperimentError):
        kind_of("repro_nonexistent_total")


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
    # Every cataloged histogram is a ``*_seconds`` latency metric, so one
    # bucket set (latency) serves them all.
    assert all(
        name.endswith("_seconds")
        for name, (kind, _help) in CATALOG.items()
        if kind == "histogram"
    )
    registry = MetricsRegistry()
    seconds = registry.histogram("repro_round_task_seconds", {"task": "t"})
    assert seconds.bounds == TIME_BUCKETS
    seconds.observe(0.0625)
    seconds.observe(0.375)
    assert seconds.count == 2
    assert seconds.total == 0.4375
    # bisect places 0.0625 in (0.05, 0.1] and 0.375 in (0.25, 0.5].
    assert seconds.counts[TIME_BUCKETS.index(0.1)] == 1
    assert seconds.counts[TIME_BUCKETS.index(0.5)] == 1
    assert sum(seconds.counts) == 2
    assert seconds.mean == 0.21875


def test_reset_zeroes_in_place_and_handles_stay_valid():
    registry = MetricsRegistry()
    counter = registry.counter("repro_rounds_total")
    counter.inc(7)
    registry.reset()
    assert counter.value == 0
    counter.inc()
    assert registry.counter("repro_rounds_total") is counter
    assert counter.value == 1


def test_remove_retires_one_series():
    registry = MetricsRegistry()
    kept = registry.counter("repro_budget_spent_total", {"task": "a"})
    gone = registry.counter("repro_budget_spent_total", {"task": "b"})
    gone.inc(3)
    registry.remove("repro_budget_spent_total", {"task": "b"})
    registry.remove("repro_budget_spent_total", {"task": "never"})  # no-op
    [entry] = registry.snapshot()["counters"]
    assert entry["labels"] == {"task": "a"}
    # The cached handle stays usable; get-or-create starts a new series.
    gone.inc()
    fresh = registry.counter("repro_budget_spent_total", {"task": "b"})
    assert fresh is not gone and fresh.value == 0
    assert registry.counter("repro_budget_spent_total", {"task": "a"}) is kept


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


def test_interface_stats_concurrent_records_and_merges():
    stats = InterfaceStats()
    per_thread, threads = 500, 8

    def pound():
        for i in range(per_thread):
            stats.record(
                QueryStatus.VALID if i % 2 else QueryStatus.OVERFLOW
            )
            stats.record(QueryStatus.UNDERFLOW)

    workers = [threading.Thread(target=pound) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    total = stats.to_dict()
    assert total["queries"] == 2 * per_thread * threads
    assert total["underflow"] == per_thread * threads
    assert total["valid"] == total["overflow"] == per_thread * threads // 2
    # Snapshot invariant: parts always sum to the whole.
    assert (
        total["underflow"] + total["valid"] + total["overflow"]
        == total["queries"]
    )
