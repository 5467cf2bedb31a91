"""``Engine.stream_reports`` gap accounting under report-log eviction.

The contract (see :meth:`repro.api.engine.Engine.stream_reports`): the
bounded report log never replays as if it were contiguous — wherever
eviction opened a hole, the stream yields a ``(GAP_TASK,
ReportGap(dropped))`` marker whose ``dropped`` count is **exact**, even
when a fast producer races a slow consumer mid-iteration.  The invariant
throughout: reports yielded + gap ``dropped`` totals == reports produced.
"""

from __future__ import annotations

import threading
import time

from repro import HiddenDatabase
from repro.api import Engine, EngineConfig, EstimationTask
from repro.api.engine import GAP_TASK, ReportGap
from repro.core.aggregates import count_all
from repro.data.synthetic import skewed_source


def _engine(report_log_limit: int) -> Engine:
    source = skewed_source([8, 10, 6, 4], exponent=0.4, seed=3)
    config = EngineConfig(
        k=8,
        budget_per_round=10,
        seed=3,
        report_log_limit=report_log_limit,
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(400))
    engine = Engine(config, db=db)
    engine.submit(EstimationTask("t", [count_all()], "RS"))
    return engine


def _run_rounds(engine: Engine, rounds: int) -> None:
    for _ in range(rounds):
        engine.run_round()
        engine.advance_round()


def _drain(stream):
    reports, dropped = [], 0
    for name, entry in stream:
        if name == GAP_TASK:
            assert isinstance(entry, ReportGap)
            assert entry.dropped > 0
            dropped += entry.dropped
        else:
            reports.append((name, entry))
    return reports, dropped


def test_gap_marker_counts_pre_stream_evictions_exactly():
    engine = _engine(report_log_limit=5)
    _run_rounds(engine, 12)
    entries = list(engine.stream_reports())
    assert entries[0][0] == GAP_TASK
    assert entries[0][1] == ReportGap(dropped=7)
    assert [name for name, _ in entries[1:]] == ["t"] * 5
    # Accounting is exact: yielded + dropped == produced.
    assert len(entries) - 1 + entries[0][1].dropped == 12


def test_no_gap_when_log_never_overflowed():
    engine = _engine(report_log_limit=8)
    _run_rounds(engine, 8)
    reports, dropped = _drain(engine.stream_reports())
    assert dropped == 0
    assert len(reports) == 8


def test_task_filter_still_yields_gap_markers():
    engine = _engine(report_log_limit=3)
    _run_rounds(engine, 9)
    entries = list(engine.stream_reports(task="t"))
    assert entries[0] == (GAP_TASK, ReportGap(dropped=6))
    assert len(entries) == 4


def test_restarted_stream_reports_the_gap_again():
    engine = _engine(report_log_limit=4)
    _run_rounds(engine, 6)
    first_reports, first_dropped = _drain(engine.stream_reports())
    again_reports, again_dropped = _drain(engine.stream_reports())
    # Streams are independent cursors over the same retained window.
    assert first_dropped == again_dropped == 2
    assert len(first_reports) == len(again_reports) == 4


def test_mid_iteration_eviction_yields_exact_dropped_count():
    """Eviction racing a paused consumer: the marker counts exactly the
    entries that slid out from under the cursor."""
    engine = _engine(report_log_limit=4)
    _run_rounds(engine, 4)
    stream = engine.stream_reports()
    head = [next(stream), next(stream)]  # cursor at absolute index 2
    assert all(name == "t" for name, _ in head)
    # 6 more rounds: log now holds [6..10); indexes 2..6 are gone.
    _run_rounds(engine, 6)
    name, gap = next(stream)
    assert name == GAP_TASK
    assert gap == ReportGap(dropped=4)
    tail = list(stream)
    assert len(head) + gap.dropped + len(tail) == 10


def test_slow_consumer_racing_live_producer_accounts_every_report():
    """A producer thread churning rounds while a slow consumer drains one
    live stream: however the race interleaves, every yielded gap carries
    an exact positive count, the running ``seen + dropped`` total never
    exceeds production, and a full drain afterwards accounts for every
    one of the produced reports."""
    rounds_total = 40
    engine = _engine(report_log_limit=3)

    producer = threading.Thread(
        target=_run_rounds, args=(engine, rounds_total)
    )
    producer.start()

    seen, dropped = 0, 0
    for name, entry in engine.stream_reports():
        if name == GAP_TASK:
            assert entry.dropped > 0
            dropped += entry.dropped
        else:
            seen += 1
        # seen + dropped tracks a prefix of the execution log: it can
        # trail production but never overshoot it.
        assert seen + dropped <= rounds_total
        time.sleep(0.002)  # slow consumer: let eviction race the cursor
    producer.join(timeout=60)
    assert not producer.is_alive()

    # The raced stream must have hit at least one eviction gap (the log
    # holds 3 entries; the producer outran a 2ms/entry consumer).
    assert dropped > 0

    # A fresh full drain is exact over the whole history: the leading
    # gap counts everything evicted since the first report, and the
    # retained window supplies the rest.
    reports, total_dropped = _drain(engine.stream_reports())
    assert total_dropped + len(reports) == rounds_total
    assert len(reports) == 3
