"""``repro.obs`` — the engine-wide observability plane.

A zero-dependency metrics substrate shared by every layer:

* :data:`OBS` — the process-global :class:`MetricsRegistry` of counters,
  gauges and histograms.  ``OBS.enable()`` / ``OBS.disable()`` is the one
  on/off switch.  Handles are cheap, thread-safe (GIL-coalesced
  increments), and a *disabled* registry costs one attribute check on hot
  paths (``if OBS.enabled: ...``).
* Exports — strict-JSON :meth:`MetricsRegistry.snapshot` (stamped via
  ``repro.core.wire``), Prometheus text via
  :meth:`MetricsRegistry.to_prometheus` (served at ``/v1/metrics``), and
  derived headline numbers via :meth:`MetricsRegistry.summary`.

Metric names live in a static :data:`CATALOG` (typo-proof, doc-synced).
Instrumentation never touches estimator randomness, so results are
bit-identical with observability on or off.
"""

from .catalog import CATALOG, kind_of
from .registry import (
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TIME_BUCKETS,
)

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "TIME_BUCKETS",
    "kind_of",
]
