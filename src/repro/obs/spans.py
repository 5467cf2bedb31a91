"""Span-style tracing: parent/child timing records over a ContextVar stack.

A span is a timed scope::

    with OBS.span("round.publish_flip"):
        ...

Nesting is tracked per *context* (thread / asyncio task) through a
:class:`~contextvars.ContextVar`, so concurrent threads each build their
own parent chain without locking on the hot path.  Records land in a
bounded :class:`SpanLog` at scope exit (one dict per span — JSONL-ready),
and :func:`format_span_tree` aggregates them into the per-phase profile
tree ``repro-experiments run --profile`` prints.

When the registry is disabled, ``OBS.span(...)`` hands back a shared no-op
context manager — entering it costs two empty method calls and allocates
nothing.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter
from typing import Iterable, Mapping

#: The innermost open span's id in this context (None at top level).
_ACTIVE: ContextVar[int | None] = ContextVar(
    "repro_obs_active_span", default=None
)

#: Retained span records before the oldest drop (bounds memory in
#: long-running services; drops are counted, never silent).
DEFAULT_SPAN_LIMIT = 20_000


class _NullSpan:
    """The shared no-op span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One live span scope; appends its record to the log on exit."""

    __slots__ = ("_log", "name", "span_id", "parent_id", "_start", "_token")

    def __init__(self, log: "SpanLog", name: str):
        self._log = log
        self.name = name

    def __enter__(self) -> "_Span":
        self.span_id = self._log._allocate_id()
        self.parent_id = _ACTIVE.get()
        self._token = _ACTIVE.set(self.span_id)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = perf_counter() - self._start
        _ACTIVE.reset(self._token)
        self._log._append({
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self._start,
            "seconds": seconds,
            "thread": threading.current_thread().name,
            "error": exc_type.__name__ if exc_type is not None else None,
        })
        return False


class SpanLog:
    """Bounded, thread-safe store of completed span records."""

    def __init__(self, limit: int = DEFAULT_SPAN_LIMIT):
        self._lock = threading.Lock()
        self._records: deque[dict] = deque(maxlen=limit)
        self._next_id = 0
        self.dropped = 0

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _append(self, record: dict) -> None:
        with self._lock:
            if (
                self._records.maxlen is not None
                and len(self._records) == self._records.maxlen
            ):
                self.dropped += 1
            self._records.append(record)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> list[dict]:
        """A stable snapshot of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def to_jsonl(self) -> str:
        """The retained records as JSON Lines (one span per line)."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self.records()
        )


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000.0:.1f}ms"
    return f"{seconds * 1_000_000.0:.0f}us"


def format_span_tree(records: Iterable[Mapping]) -> str:
    """Aggregate span records into an indented per-phase profile tree.

    Spans sharing the same root-to-self name path collapse into one line
    (count, total, mean); lines order by each path's earliest start, so
    the tree reads in execution order.  Orphans (parent evicted from the
    bounded log, or still open) render as roots.
    """
    records = list(records)
    if not records:
        return "(no spans recorded)"
    by_id = {record["id"]: record for record in records}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(record: Mapping) -> tuple[str, ...]:
        span_id = record["id"]
        known = paths.get(span_id)
        if known is not None:
            return known
        parent = record["parent"]
        if parent is None or parent not in by_id:
            path: tuple[str, ...] = (record["name"],)
        else:
            path = path_of(by_id[parent]) + (record["name"],)
        paths[span_id] = path
        return path

    # path -> [count, total seconds, earliest start]
    aggregate: dict[tuple[str, ...], list[float]] = {}
    for record in records:
        path = path_of(record)
        entry = aggregate.get(path)
        if entry is None:
            aggregate[path] = [1, record["seconds"], record["start"]]
        else:
            entry[0] += 1
            entry[1] += record["seconds"]
            entry[2] = min(entry[2], record["start"])
    lines = []
    for path, (count, total, _start) in sorted(
        aggregate.items(), key=lambda item: item[1][2]
    ):
        indent = "  " * (len(path) - 1)
        label = f"{indent}{path[-1]}"
        mean = total / count
        lines.append(
            f"{label:<44s} x{count:<5d} total {_format_seconds(total):>9s}"
            f"  mean {_format_seconds(mean):>9s}"
        )
    return "\n".join(lines)
