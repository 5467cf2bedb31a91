"""The process-global metrics registry: counters, gauges, histograms.

Design constraints (the tentpole contract):

* **Disabled must be ~free.**  Instrumented hot paths follow one pattern::

      if OBS.enabled:
          _HITS.inc()

  — a single attribute check when observability is off.  Handles are
  created once (module import / component construction) via get-or-create
  and cached, so the enabled path is one bound-method call on a plain
  Python object.
* **Thread-safe by GIL-atomicity.**  ``Counter.inc`` / ``Gauge.set`` are
  single ``+=`` / ``=`` operations on instance attributes — coalesced
  under the GIL.  Histograms tolerate the same benign interleavings; the
  registry lock only guards handle creation and snapshot assembly.
* **One registry forever.**  :data:`OBS` is created at import and never
  replaced — ``enable()`` / ``disable()`` / ``reset()`` mutate it in
  place, so cached handles can never go stale.  Observability therefore
  never touches estimator RNG or results: estimates are bit-identical
  with the registry on or off.

Metric names must be cataloged (:mod:`repro.obs.catalog`); labels are
low-cardinality dicts (``{"status": "overflow"}``) keyed Prometheus-style.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from contextlib import contextmanager
from typing import Iterator, Mapping

from ..errors import ExperimentError
from .catalog import kind_of
from .spans import NULL_SPAN, SpanLog, _Span, _NullSpan

#: Latency histogram bounds, seconds (upper edges; +Inf is implicit).
TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size histogram bounds (rows per merge etc.), powers of four.
SIZE_BUCKETS = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
    65536.0, 262144.0, 1048576.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted(
        (str(key), str(value)) for key, value in labels.items()
    ))


class Counter:
    """A monotonically increasing count (GIL-coalesced ``+=``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time level (set / inc / dec)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bound bucketed distribution (Prometheus-style cumulative)."""

    __slots__ = ("name", "labels", "bounds", "counts", "total", "count")

    def __init__(self, name: str, labels: LabelKey, bounds: tuple):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: LabelKey, extra: str = "") -> str:
    parts = [
        f'{key}="{_escape_label(value)}"' for key, value in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _json_float(value: float) -> float | str:
    """Strict-JSON float (mirrors :func:`repro.core.wire.encode_float`)."""
    from ..core.wire import encode_float

    return encode_float(value)


class MetricsRegistry:
    """Get-or-create metric handles plus snapshot/export assembly."""

    def __init__(self):
        #: THE hot-path switch — instrumented code checks this attribute
        #: and nothing else when observability is off.
        self.enabled = False
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], object] = {}
        self.spans = SpanLog()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric in place (handles stay valid) + clear spans."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()
        self.spans.clear()

    # ------------------------------------------------------------------
    # Handles (get-or-create; call once and cache on hot paths)
    # ------------------------------------------------------------------
    def _get(self, cls, kind: str, name: str, labels: Mapping | None, *args):
        if kind_of(name) != kind:
            raise ExperimentError(
                f"metric {name!r} is cataloged as a {kind_of(name)}, "
                f"not a {kind}"
            )
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], *args)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ExperimentError(
                    f"metric {name!r} already exists as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, labels: Mapping | None = None) -> Counter:
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name: str, labels: Mapping | None = None) -> Gauge:
        return self._get(Gauge, "gauge", name, labels)

    def histogram(
        self,
        name: str,
        labels: Mapping | None = None,
        buckets: tuple | None = None,
    ) -> Histogram:
        if buckets is None:
            buckets = (
                TIME_BUCKETS if name.endswith("_seconds") else SIZE_BUCKETS
            )
        return self._get(Histogram, "histogram", name, labels, buckets)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str) -> "_Span | _NullSpan":
        """A timed scope (no-op shared instance while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.spans.span(name)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def _sorted_metrics(self) -> list:
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics)
            ]

    def snapshot(self) -> dict:
        """A stamped, strict-JSON metric snapshot (
        ``json.dumps(..., allow_nan=False)``-safe)."""
        from ..core.wire import stamp

        counters, gauges, histograms = [], [], []
        for metric in self._sorted_metrics():
            entry = {"name": metric.name, "labels": dict(metric.labels)}
            if isinstance(metric, Counter):
                entry["value"] = metric.value
                counters.append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = _json_float(float(metric.value))
                gauges.append(entry)
            else:
                cumulative, buckets = 0, []
                for bound, count in zip(
                    (*metric.bounds, float("inf")), metric.counts
                ):
                    cumulative += count
                    buckets.append([_json_float(bound), cumulative])
                entry.update({
                    "count": metric.count,
                    "sum": _json_float(metric.total),
                    "buckets": buckets,
                })
                histograms.append(entry)
        return stamp({
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": {
                "recorded": len(self.spans),
                "dropped": self.spans.dropped,
            },
        })

    def summary(self) -> dict:
        """Derived headline numbers (query mix, flip latency) for bench
        drops and quick health checks."""
        queries: dict[str, int] = {}
        publish_count, publish_total = 0, 0.0
        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                if metric.name == "repro_queries_total":
                    status = dict(metric.labels).get("status", "unknown")
                    queries[status] = queries.get(status, 0) + metric.value
            elif (
                isinstance(metric, Histogram)
                and metric.name == "repro_epoch_publish_seconds"
            ):
                publish_count += metric.count
                publish_total += metric.total
        return {
            "queries": {**queries, "total": sum(queries.values())},
            "publish_flip": {
                "count": publish_count,
                "total_seconds": round(publish_total, 6),
                "mean_seconds": (
                    round(publish_total / publish_count, 6)
                    if publish_count else None
                ),
            },
        }

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        from .catalog import CATALOG

        families: dict[str, list] = {}
        for metric in self._sorted_metrics():
            families.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name, metrics in families.items():
            kind, help_text = CATALOG[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for metric in metrics:
                if isinstance(metric, (Counter, Gauge)):
                    value = (
                        metric.value if isinstance(metric, Counter)
                        else float(metric.value)
                    )
                    lines.append(
                        f"{name}{_render_labels(metric.labels)} {value}"
                    )
                    continue
                cumulative = 0
                for bound, count in zip(
                    (*metric.bounds, float("inf")), metric.counts
                ):
                    cumulative += count
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    labels = _render_labels(
                        metric.labels, f'le="{_escape_label(le)}"'
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                rendered = _render_labels(metric.labels)
                lines.append(f"{name}_sum{rendered} {metric.total}")
                lines.append(f"{name}_count{rendered} {metric.count}")
        lines.append("")
        return "\n".join(lines)


#: The process-global registry.  Never replaced — only enabled, disabled,
#: or reset in place — so handles cached at import time stay valid.
OBS = MetricsRegistry()


# ----------------------------------------------------------------------
# Config precedence (level 2/3 of the EngineConfig knob order)
# ----------------------------------------------------------------------
#: Process-wide programmatic default for ``EngineConfig(observability=None)``
#: (level 2); ``None`` falls through to the ``REPRO_OBS`` env var.
_default_observability: bool | None = None


def get_default_observability() -> bool:
    """The observability default engines resolve against:
    ``set_default_observability`` > ``REPRO_OBS`` env var > off."""
    if _default_observability is not None:
        return _default_observability
    env = os.environ.get("REPRO_OBS")
    if env is not None:
        return env.strip().lower() in ("1", "true", "on", "yes")
    return False


def set_default_observability(value: bool | None) -> bool | None:
    """Set the process-wide default (``None`` = defer to the env var);
    returns the previous programmatic default."""
    global _default_observability
    previous = _default_observability
    _default_observability = value
    return previous


@contextmanager
def using_observability(value: bool | None) -> Iterator[bool]:
    """Scope the observability default — and, for an explicit ``True`` /
    ``False``, the registry's enabled state (``None`` leaves both
    untouched).  Restores both on exit."""
    if value is None:
        yield get_default_observability()
        return
    previous_default = set_default_observability(value)
    previous_enabled = OBS.enabled
    OBS.enabled = bool(value)
    try:
        yield bool(value)
    finally:
        set_default_observability(previous_default)
        OBS.enabled = previous_enabled
