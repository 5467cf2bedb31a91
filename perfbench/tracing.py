"""Span tracing from outside the program.

:class:`Tracer` records spans in memory: an id, a name, start and end
(``perf_counter_ns``), the parent span, the round id and the thread.
:func:`install` wraps the public functions of each layer of ``repro`` in
place (class attributes and module globals) and returns a function that
puts the originals back.  Nothing under ``src/`` is changed; the wrappers
exist only while a traced pass runs.

A span's parent is the innermost open span on its own thread.  A service
handler runs on a server thread, so its parent is the client request span
for the same endpoint that is in flight at the time: the benchmark issues
at most one request per endpoint at a time, so the link is unambiguous.

:func:`aggregate` turns the records into ``<layer>.<call>.{calls,s,self_s}``
figures.  Self time is a span's duration minus the part of it covered by
its children, so over the spans under the ``bench.round`` roots the self
times plus the roots' own self time (``unattributed_s``) add up exactly to
the traced round-phase wall time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time

from catalog import ENDPOINTS

#: Root span names the harness opens around set-up and each timed round.
SETUP_SPAN = "bench.setup"
ROUND_SPAN = "bench.round"

#: ``ServiceApp`` handlers by the endpoint name the per-layer metrics use.
_HANDLERS = {
    "submit": "tasks",
    "run_rounds": "rounds",
    "reports": "reports",
    "ledger": "ledger",
    "health": "healthz",
}


def endpoint_of(path: str) -> str:
    """The endpoint name of a request path (``/v1/tasks/x/reports`` ->
    ``reports``)."""
    tail = path.rstrip("/").rsplit("/", 1)[-1]
    return tail if tail in ENDPOINTS else "other"


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self) -> None:
        #: ``(id, name, start_ns, end_ns, parent_id, round_id, thread)``
        self.records: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        #: Round id stamped on every span that closes; ``None`` outside
        #: the timed rounds.
        self.round_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._inflight: dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, after=None, link=None, publish=None):
        """``fn`` inside a span called ``name``.

        ``after(args, result)`` runs once the span has closed, to update
        counters.  ``link`` names the endpoint whose in-flight client span
        becomes the parent when this thread has no open span; ``publish``
        names the endpoint this span is the in-flight client span of.
        """
        clock = time.perf_counter_ns
        ids = self._ids
        records = self.records
        inflight = self._inflight
        stack_of = self._stack
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = inflight.get(link) if link is not None else None
            stack.append(sid)
            if publish is not None:
                inflight[publish] = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if publish is not None:
                    inflight.pop(publish, None)
                stack.pop()
                records.append(
                    (sid, name, start, end, parent, tracer.round_id,
                     get_ident())
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name):
        """A context manager opening one span (used for the roots)."""
        return _Span(self, name)

    @contextlib.contextmanager
    def round(self, round_id: int):
        """The root span of one timed round; stamps ``round_id`` on every
        span that closes inside it, on any thread."""
        self.round_id = round_id
        try:
            with self.span(ROUND_SPAN):
                yield
        finally:
            self.round_id = None

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip) to ``path``."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fields = ("id", "name", "start_ns", "end_ns", "parent", "round",
                  "thread")
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for record in self.records:
                out.write(json.dumps(record) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.records.append(
            (self.sid, self.name, self.start, end, self.parent,
             tracer.round_id, threading.get_ident())
        )
        return False


class _TimedExit:
    """A context manager whose ``__exit__`` runs inside a span."""

    def __init__(self, inner, exit_traced):
        self._inner = inner
        self._exit_traced = exit_traced

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._exit_traced(*exc)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch_attr(owner, attr, value, undo):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _patch_function(original, replacement, undo):
    """Replace ``original`` in every loaded module that binds it."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                _patch_attr(module, attr, replacement, undo)


def install(tracer: Tracer):
    """Wrap every traced layer call; returns the function that undoes it."""
    from repro.api import engine
    from repro.core import aggregates, drilldown, tree
    from repro.core.estimators import base
    from repro.data import schedules, synthetic
    from repro.hiddendb import database, interface, result, store
    from repro.service import app, client, governor

    undo: list = []
    counts = tracer.counts

    def method(cls, attr, name, after=None, link=None):
        original = cls.__dict__[attr]
        _patch_attr(cls, attr, tracer.wrap(original, name, after, link), undo)

    def function(original, name, after=None):
        _patch_function(original, tracer.wrap(original, name, after), undo)

    def count_len(key):
        def after(_args, result):
            counts[key] += len(result)
        return after

    def count_status(_args, result):
        counts["hiddendb.search." + result.status.name.lower()] += 1

    def count_walk(_args, outcome):
        counts["core.walks"] += 1
        counts["core.walk_queries"] += outcome.queries_spent

    def count_saved_bytes(args, manifest):
        engine_self, path = args[0], args[1] if len(args) > 1 else None
        root = path if path is not None else engine_self.config.store_dir
        epoch_dir = os.path.join(root, manifest["directory"])
        for folder, _dirs, files in os.walk(epoch_dir):
            for file in files:
                counts["api.save.bytes"] += os.path.getsize(
                    os.path.join(folder, file)
                )

    # repro.data
    method(synthetic.SyntheticSource, "batch_columns", "data.generate",
           count_len("data.generate.rows"))
    method(schedules.FreshTupleSchedule, "plan", "data.plan",
           count_len("data.plan.mutations"))
    function(schedules.apply_round, "data.apply_round")
    # Planned deletes are the tids a schedule samples; no span of its own.
    random_tids = store.TupleStore.__dict__["random_tids"]

    @functools.wraps(random_tids)
    def counted_random_tids(self, rng, count):
        sampled = random_tids(self, rng, count)
        counts["hiddendb.delete.planned"] += len(sampled)
        return sampled

    _patch_attr(store.TupleStore, "random_tids", counted_random_tids, undo)

    # repro.hiddendb: ingest
    method(database.HiddenDatabase, "insert_many", "hiddendb.load")
    method(database.HiddenDatabase, "insert", "hiddendb.insert")
    method(database.HiddenDatabase, "delete", "hiddendb.delete")
    bulk = store.TupleStore.__dict__["bulk"]

    @functools.wraps(bulk)
    def timed_bulk(self, *args, **kwargs):
        inner = bulk(self, *args, **kwargs)
        return _TimedExit(
            inner, tracer.wrap(inner.__exit__, "hiddendb.index_flush")
        )

    _patch_attr(store.TupleStore, "bulk", timed_bulk, undo)
    # repro.hiddendb: index and round
    method(interface.TopKInterface, "register_attr_order",
           "hiddendb.index_build")
    method(database.HiddenDatabase, "advance_round", "hiddendb.advance")
    method(database.HiddenDatabase, "publish_epoch", "hiddendb.advance")
    # repro.hiddendb: query plane
    method(interface.TopKInterface, "search", "hiddendb.search",
           count_status)
    method(store.PrefixIndex, "count_prefix", "hiddendb.probe")
    method(store.PrefixIndex, "range_tids", "hiddendb.gather")
    method(store.TupleStore, "gather", "hiddendb.gather",
           count_len("hiddendb.gather.rows"))
    function(result.top_k_select, "hiddendb.topk")
    method(store.GatheredRows, "materialize_row", "hiddendb.materialize")

    # repro.core
    method(tree.QueryTree, "random_signature", "core.signature")
    function(drilldown.drill_from_root, "core.drill_fresh", count_walk)
    function(drilldown.reissue_update, "core.drill_reissue", count_walk)
    method(aggregates.AggregateSpec, "contribution", "core.contribution")
    method(base.EstimatorBase, "run_round", "core.estimator")

    # repro.api
    method(engine.Engine, "run_round", "api.run_round")
    method(engine.Engine, "apply_updates", "api.apply_updates")
    method(engine.Engine, "advance_round", "api.advance_round")
    method(engine.Engine, "submit", "api.submit")
    method(engine.Engine, "save", "api.save", count_saved_bytes)

    # repro.service
    request = client.ServiceClient.__dict__["request"]
    by_endpoint = {
        endpoint: tracer.wrap(
            request, "service.request." + endpoint, publish=endpoint
        )
        for endpoint in ENDPOINTS + ("other",)
    }

    @functools.wraps(request)
    def traced_request(self, method_name, path, payload=None):
        return by_endpoint[endpoint_of(path)](self, method_name, path, payload)

    _patch_attr(client.ServiceClient, "request", traced_request, undo)
    for handler, endpoint in _HANDLERS.items():
        method(app.ServiceApp, handler, "service.handler." + endpoint,
               link=endpoint)
    method(governor.BudgetGovernor, "admit", "service.governor")
    method(governor.BudgetGovernor, "commit", "service.governor")

    def uninstall() -> None:
        while undo:
            owner, attr, value = undo.pop()
            setattr(owner, attr, value)

    return uninstall


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _covered(intervals, start, end) -> int:
    """Nanoseconds of ``[start, end]`` covered by the union of intervals."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(records) -> dict[int, int]:
    """Span id -> self time in nanoseconds."""
    children: dict[int, list] = collections.defaultdict(list)
    for sid, _name, start, end, parent, _round, _thread in records:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _round, _thread in records
    }


def aggregate(records) -> dict:
    """Per span name: calls, total seconds, self seconds; plus the
    round-phase table (self seconds of every span under a round root)."""
    own = self_times(records)
    by_name: dict[str, list] = collections.defaultdict(lambda: [0, 0, 0])
    for sid, name, start, end, *_rest in records:
        entry = by_name[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own[sid]
    # Spans under a round root (following parents, across threads).
    parent_of = {record[0]: record[4] for record in records}
    name_of = {record[0]: record[1] for record in records}
    root_of: dict[int, int | None] = {}

    def round_root(sid):
        path = []
        found = None
        while sid is not None:
            if sid in root_of:
                found = root_of[sid]
                break
            path.append(sid)
            if name_of.get(sid) == ROUND_SPAN:
                found = sid
                break
            sid = parent_of.get(sid)
        for visited in path:
            root_of[visited] = found
        return found

    round_self: dict[str, int] = collections.Counter()
    run_ns = 0
    for sid, name, start, end, *_rest in records:
        if round_root(sid) is None:
            continue
        round_self[name] += own[sid]
        if name == ROUND_SPAN:
            run_ns += end - start
    return {
        "by_name": {
            name: {"calls": calls, "s": total / 1e9, "self_s": self_ / 1e9}
            for name, (calls, total, self_) in by_name.items()
        },
        "round_self_s": {
            name: value / 1e9 for name, value in round_self.items()
        },
        "run_s": run_ns / 1e9,
    }
