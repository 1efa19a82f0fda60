"""Observability: metrics registry, latency histograms, sweep progress.

A dependency-free instrumentation layer every hot subsystem reports into:

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe counters,
  gauges, and fixed-bucket latency histograms,
  rendered in Prometheus text exposition format by :meth:`render`.
* ``registry.timer("name")`` — a timing span that lands in a histogram
  (and, when tracing is enabled, in the JSONL trace log).
* :class:`~repro.obs.progress.SweepProgress` — per-sweep candidates
  done/total per depth, the live ``progress`` field of the service's
  ``GET /status/{id}``.

Instrumentation is opt-in at every seam: each layer takes an optional
``metrics=`` registry and does nothing measurable without one, so the
library paths (and the bench trend gate) are unaffected unless a caller
— typically the search service — wires a registry through. The full
metric catalog lives in ``docs/observability.md``.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.progress import SweepProgress

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SweepProgress",
]
