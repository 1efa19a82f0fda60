"""The metrics registry: counters, gauges, histograms, timers, tracing.

Everything is stdlib + threading — no client library, nothing to install,
which is the same bargain the HTTP layer struck. The model follows the
Prometheus one closely enough that :meth:`MetricsRegistry.render` emits
valid text exposition format a stock Prometheus server scrapes as-is:

* a **metric family** has a name, a help string, and a fixed tuple of
  label *names*; each distinct tuple of label *values* owns an
  independent child (``family.labels(tenant="a").inc()``);
* families with no label names double as their own single child, so the
  common case stays one call: ``registry.counter("x_total").inc()``;
* **histograms** use fixed upper-bound buckets chosen at creation.
  Observations are O(log buckets) (one bisect + two adds under the
  family lock); quantiles are the scraper's to estimate from the
  cumulative buckets (Prometheus ``histogram_quantile``).

Timing spans come from :meth:`MetricsRegistry.timer`::

    with registry.timer("repro_job_run_seconds", job="evaluate"):
        ...                      # observed into the histogram on exit

When **tracing** is enabled (:meth:`MetricsRegistry.enable_trace` — off
by default; ``repro serve --trace-log PATH``), every finished span —
from :meth:`~MetricsRegistry.timer` blocks and from hot paths that
report elapsed time via :meth:`~MetricsRegistry.trace_event` — appends
one JSON line ``{"ts": end, "span": name, "seconds": dur, "labels":
{...}}`` to the trace file. Disabled tracing costs one ``is None`` check
per span, so instrumented code never pays for a feature nobody turned
on. The format spec and the metric catalog live in
``docs/observability.md``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from pathlib import Path

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: latency bucket upper bounds (seconds): sub-millisecond cache lookups
#: through minutes-long candidate trainings; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_string(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Family:
    """Shared machinery: one lock, label-keyed children, rendering."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        """The child for one tuple of label values (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def remove(self, **labels: str) -> None:
        """Drop one child (e.g. a finished sweep's progress gauges), so
        short-lived label values don't grow the exposition forever."""
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            self._children.pop(key, None)

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"{self.name} declares labels {self.label_names}; "
                "address a child via .labels(...)"
            )
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._children[()] = self._new_child()
            return child

    def _new_child(self):  # pragma: no cover - subclasses implement
        raise NotImplementedError

    def _snapshot(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {self.help}" if self.help else (
            f"# HELP {self.name} {self.name}"
        )
        yield f"# TYPE {self.name} {self.kind}"
        for key, child in self._snapshot():
            yield from self._render_child(key, child)

    def _render_child(self, key, child):  # pragma: no cover - subclasses
        raise NotImplementedError


class _Value:
    """One child's thread-safe float cell."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def get(self) -> float:
        with self._lock:
            return self.value


class Counter(_Family):
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def _new_child(self) -> _Value:
        return _Value()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._default_child().add(amount)

    def labels(self, **labels: str) -> _CounterChild:
        return _CounterChild(super().labels(**labels))

    @property
    def value(self) -> float:
        return self._default_child().get()

    def value_for(self, **labels: str) -> float:
        return _Family.labels(self, **labels).get()  # type: ignore[union-attr]

    def _render_child(self, key, child):
        yield (
            f"{self.name}{_label_string(self.label_names, key)} "
            f"{_format_value(child.get())}"
        )


class _CounterChild:
    __slots__ = ("_cell",)

    def __init__(self, cell: _Value) -> None:
        self._cell = cell

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._cell.add(amount)


class Gauge(_Family):
    """A value that goes up and down (depths, in-flight work, progress)."""

    kind = "gauge"

    def _new_child(self) -> _Value:
        return _Value()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().add(amount)

    def dec(self) -> None:
        self._default_child().add(-1.0)

    def labels(self, **labels: str) -> _Value:
        return super().labels(**labels)  # type: ignore[return-value]

    @property
    def value(self) -> float:
        return self._default_child().get()

    def value_for(self, **labels: str) -> float:
        return _Family.labels(self, **labels).get()  # type: ignore[union-attr]

    def _render_child(self, key, child):
        yield (
            f"{self.name}{_label_string(self.label_names, key)} "
            f"{_format_value(child.get())}"
        )


class _HistogramChild:
    """Fixed buckets + sum + count; observe is a bisect and two adds."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds  # finite upper bounds, ascending; +Inf implicit
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class Histogram(_Family):
    """Latency distribution in fixed buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {buckets!r}")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds
        super().__init__(name, help, label_names)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def labels(self, **labels: str) -> _HistogramChild:
        return super().labels(**labels)  # type: ignore[return-value]

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def sum(self) -> float:
        return self._default_child().sum

    def _render_child(self, key, child):
        with child._lock:
            counts = list(child.counts)
            total, amount = child.count, child.sum
        cumulative = 0
        bounds = [*self.bounds, math.inf]
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            labels = _label_string(
                (*self.label_names, "le"), (*key, _format_value(bound))
            )
            yield f"{self.name}_bucket{labels} {cumulative}"
        suffix = _label_string(self.label_names, key)
        yield f"{self.name}_sum{suffix} {_format_value(amount)}"
        yield f"{self.name}_count{suffix} {total}"


class _Timer:
    """Context manager: observe elapsed seconds on exit (+ trace event)."""

    __slots__ = ("_registry", "_child", "_name", "_labels", "_start")

    def __init__(self, registry: MetricsRegistry, child, name: str, labels) -> None:
        self._registry = registry
        self._child = child
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> _Timer:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        self._child.observe(elapsed)
        trace = self._registry._trace
        if trace is not None:
            trace.emit(self._name, elapsed, self._labels)


class _TraceLog:
    """Append-only JSONL span log (one file handle, one lock)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = self.path.open("a", encoding="utf-8")

    def emit(self, span: str, seconds: float, labels: dict[str, str]) -> None:
        record = {"ts": time.time(), "span": span, "seconds": seconds}
        if labels:
            record["labels"] = labels
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


class MetricsRegistry:
    """All of one process's metric families, plus rendering and tracing.

    Get-or-create accessors (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram`) are idempotent for matching declarations and raise
    on conflicting ones, so independent layers can declare the same
    family without coordinating — the service passes **one** registry
    through the queue, cache, fleet, and every sweep, and ``/metrics``
    renders the union.

    Collector callbacks (:meth:`add_collector`) run at the top of every
    :meth:`render`, which is how point-in-time gauges (queue depth,
    uptime) stay fresh per scrape without a background thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list = []
        self._trace: _TraceLog | None = None

    # -- family accessors ---------------------------------------------------

    def _get_or_create(self, cls, name, help, label_names, **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.label_names != tuple(
                    label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(family).__name__} with labels "
                        f"{family.label_names}"
                    )
                return family
            family = cls(name, help, tuple(label_names), **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    def timer(self, name: str, help: str = "", **labels: str) -> _Timer:
        """A span: time a ``with`` block into histogram ``name``."""
        family = self.histogram(name, help, labels=tuple(sorted(labels)))
        child = family.labels(**labels) if labels else family._default_child()
        return _Timer(self, child, name, labels)

    # -- scrape-time collectors ---------------------------------------------

    def add_collector(self, collect) -> None:
        """Register ``collect()`` to run before each render (point-in-time
        gauges: queue depth, uptime, slot liveness)."""
        with self._lock:
            self._collectors.append(collect)

    # -- tracing ------------------------------------------------------------

    def enable_trace(self, path: str | Path) -> None:
        """Start appending span events to ``path`` (JSONL)."""
        self.disable_trace()
        self._trace = _TraceLog(path)

    def trace_event(self, span: str, seconds: float, **labels) -> None:
        """Append one span event to the trace log directly — for hot paths
        that measure elapsed time themselves instead of wrapping a ``with``
        block. A no-op (one ``is None`` check) when tracing is off."""
        trace = self._trace
        if trace is not None:
            trace.emit(span, seconds, labels)

    def disable_trace(self) -> None:
        trace, self._trace = self._trace, None
        if trace is not None:
            trace.close()

    @property
    def trace_path(self) -> Path | None:
        return self._trace.path if self._trace is not None else None

    # -- output -------------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect()
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""
