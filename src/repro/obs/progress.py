"""Per-sweep progress: candidates done/total per depth, live throughput.

A sweep used to be observable only at the ends — submitted, then done.
:class:`SweepProgress` is the in-between: the runtime stamps it as each
depth opens and as each candidate evaluation lands (cache hit, freshly
trained, or collected from another sweep's in-flight claim), and anyone
holding the object reads a consistent snapshot via :meth:`to_dict` — the
``progress`` field of the service's ``GET /status/{id}``.

``candidates_done`` is **monotonically non-decreasing** for the life of
a sweep (tested as such): depth totals only grow the denominator, and
every recorded completion only grows the numerator. Restored depths
count all their candidates at once.

Given a registry (and identifying labels, e.g. the service job id), the
tracker also mirrors itself into two gauges —
``repro_sweep_candidates_done`` / ``repro_sweep_candidates_total`` — so
``GET /metrics`` shows every live sweep's position; :meth:`unregister`
drops those label children when the sweep leaves the system.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry

__all__ = ["SweepProgress"]


class SweepProgress:
    """Thread-safe progress tracker for one sweep.

    Parameters
    ----------
    metrics:
        Optional registry to mirror done/total gauges into.
    labels:
        Label values identifying this sweep in those gauges (label
        *names* are the dict keys; the service uses ``{"job": id}``).
    """

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self._t0 = time.monotonic()
        self.depths_total = 0
        self.current_depth: int | None = None
        self.candidates_total = 0
        self.candidates_done = 0
        #: p -> {"total", "done", "cached", "seconds" (None while open)}
        self.depths: dict[int, dict] = {}
        #: shard index -> candidates evaluated there (sharded runs only)
        self.shard_counts: dict[int, int] = {}
        self.finished_at: float | None = None
        self._metrics = metrics
        self._labels = dict(labels or {})
        self._gauges = None
        if metrics is not None:
            names = tuple(sorted(self._labels))
            done = metrics.gauge(
                "repro_sweep_candidates_done",
                "Candidate evaluations finished in this sweep",
                labels=names,
            )
            total = metrics.gauge(
                "repro_sweep_candidates_total",
                "Candidate evaluations this sweep will run in depths seen so far",
                labels=names,
            )
            self._gauges = (done, total)
            self._mirror()

    # -- runtime-side recording ---------------------------------------------

    def begin_sweep(self, depths_total: int) -> None:
        with self._lock:
            self.depths_total = int(depths_total)

    def begin_depth(self, p: int, total: int, cached: int = 0) -> None:
        """Open depth ``p``: ``total`` candidates, ``cached`` of them
        already served by lookups before any job was submitted."""
        with self._lock:
            if p not in self.depths:
                self.depths[p] = {
                    "total": 0, "done": 0, "cached": 0, "seconds": None,
                    "_opened": time.monotonic(),
                }
            entry = self.depths[p]
            entry["total"] += int(total)
            entry["done"] += int(cached)
            entry["cached"] += int(cached)
            self.current_depth = p
            self.candidates_total += int(total)
            self.candidates_done += int(cached)
        self._mirror()

    def record(self, p: int, n: int = 1) -> None:
        """``n`` more candidate evaluations of depth ``p`` finished."""
        with self._lock:
            entry = self.depths.get(p)
            if entry is not None:
                entry["done"] += int(n)
            self.candidates_done += int(n)
        self._mirror()

    def record_shard(self, shard: int) -> None:
        """Attribute one trained candidate to ``shard``, the scheduler lane
        that completed it (:meth:`record` counts a depth's positions,
        repeats and claims collected from other sweeps included)."""
        with self._lock:
            self.shard_counts[shard] = self.shard_counts.get(shard, 0) + 1

    def finish_depth(self, p: int) -> None:
        with self._lock:
            entry = self.depths.get(p)
            if entry is not None and entry["seconds"] is None:
                entry["seconds"] = time.monotonic() - entry.pop("_opened")

    def finish_sweep(self) -> None:
        """Stamp the sweep's end (idempotent: the first stamp wins, so a
        supervisor's cleanup cannot overwrite the runtime's)."""
        with self._lock:
            if self.finished_at is None:
                self.finished_at = time.time()

    # -- consumers ----------------------------------------------------------

    def to_dict(self) -> dict:
        """A consistent JSON-safe snapshot (the ``/status`` payload)."""
        with self._lock:
            elapsed = time.monotonic() - self._t0
            per_depth = []
            for p in sorted(self.depths):
                entry = self.depths[p]
                seconds = entry["seconds"]
                if seconds is None:
                    seconds = time.monotonic() - entry["_opened"]
                per_depth.append(
                    {
                        "p": p,
                        "total": entry["total"],
                        "done": entry["done"],
                        "cached": entry["cached"],
                        "seconds": round(seconds, 6),
                    }
                )
            done, total = self.candidates_done, self.candidates_total
            snapshot = {
                "depths_total": self.depths_total,
                "current_depth": self.current_depth,
                "candidates_total": total,
                "candidates_done": done,
                "percent": round(100.0 * done / total, 2) if total else 0.0,
                "elapsed_seconds": round(elapsed, 6),
                "throughput_per_second": (
                    round(done / elapsed, 6) if elapsed > 0 else 0.0
                ),
                "per_depth": per_depth,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            if self.shard_counts:
                snapshot["per_shard"] = {
                    str(index): {
                        "done": count,
                        "throughput_per_second": (
                            round(count / elapsed, 6) if elapsed > 0 else 0.0
                        ),
                    }
                    for index, count in sorted(self.shard_counts.items())
                }
            return snapshot

    # -- gauge mirroring ----------------------------------------------------

    def _mirror(self) -> None:
        if self._gauges is None:
            return
        done, total = self._gauges
        if self._labels:
            done.labels(**self._labels).set(self.candidates_done)
            total.labels(**self._labels).set(self.candidates_total)
        else:
            done.set(self.candidates_done)
            total.set(self.candidates_total)

    def unregister(self) -> None:
        """Remove this sweep's gauge children (label hygiene: finished
        jobs must not grow ``/metrics`` forever)."""
        if self._gauges is None or not self._labels:
            return
        done, total = self._gauges
        done.remove(**self._labels)
        total.remove(**self._labels)
