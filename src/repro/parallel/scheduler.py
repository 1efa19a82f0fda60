"""Task-bag scheduling simulation — the Fig. 5 substrate.

Where this sits in the two-level parallelization scheme (Fig. 2/Fig. 3):

* **Level 1 — candidates across cores.** Within one node, the candidate
  gate combinations of a depth fan out over a process pool. The real
  implementation is :mod:`repro.parallel.executor` (``starmap_async``
  batches and per-job ``submit`` futures) driven fault-tolerantly by
  :class:`repro.parallel.jobs.JobScheduler`, which the search runtime
  (:mod:`repro.core.runtime`) uses for retry/timeout/streaming.
* **Level 2 — graphs across nodes.** The outer workload distributes
  whole graphs to cluster nodes; :class:`repro.parallel.cluster.ClusterModel`
  models that hierarchy (including GPU offload) on top of this module.

This module is the *simulation* half of level 1: the paper sweeps 8–64
cores on a Polaris node; this box has two. So task *durations are
measured* by really running the candidate evaluations, and only their
*placement* onto W workers is simulated. The
simulator is a faithful model of what ``Pool.starmap_async`` does with an
embarrassingly-parallel task bag — greedy dispatch of the next task to the
earliest-free worker, plus explicit overhead knobs — so the
makespan-vs-cores curve keeps the real shape (near-linear scaling, then a
plateau governed by task-count granularity and the longest task).

The model is validated where it can be: on this machine the W=1 and W=2
predictions are checked against real executor timings in the test suite.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "OverheadModel",
    "ScheduleResult",
    "simulate_makespan",
    "simulate_core_sweep",
]


@dataclass(frozen=True)
class OverheadModel:
    """Fixed costs of process-pool execution.

    * ``worker_startup`` — fork/import cost per worker, paid once (seconds);
    * ``dispatch_per_task`` — pickling + queue round-trip per task;
    * ``serial_fraction`` — part of the total work that never parallelizes
      (result collection, bookkeeping in the parent), as a fraction of the
      sum of task durations.
    """

    worker_startup: float = 0.0
    dispatch_per_task: float = 0.0
    serial_fraction: float = 0.0


@dataclass
class ScheduleResult:
    """A simulated schedule of a task bag on ``num_workers`` workers."""

    num_workers: int
    makespan: float
    worker_finish_times: list[float]
    assignments: list[int]  # task index -> worker index

    @property
    def utilization(self) -> float:
        """Mean busy fraction across workers."""
        if self.makespan == 0.0:
            return 1.0
        return float(np.mean(self.worker_finish_times) / self.makespan)


def simulate_makespan(
    durations: Sequence[float],
    num_workers: int,
    *,
    overhead: OverheadModel = OverheadModel(),
) -> ScheduleResult:
    """Greedy list scheduling of ``durations`` onto ``num_workers`` workers,
    dispatched in submission order (what a process pool does)."""
    check_positive(num_workers, "num_workers")

    # (finish_time, worker_index) min-heap
    heap: list[tuple[float, int]] = [
        (overhead.worker_startup, w) for w in range(num_workers)
    ]
    heapq.heapify(heap)
    assignments = [0] * len(durations)
    finish = [overhead.worker_startup] * num_workers
    for task in range(len(durations)):
        available_at, worker = heapq.heappop(heap)
        done = available_at + overhead.dispatch_per_task + float(durations[task])
        assignments[task] = worker
        finish[worker] = done
        heapq.heappush(heap, (done, worker))
    serial_tail = overhead.serial_fraction * float(np.sum(durations))
    makespan = (max(finish) if durations else overhead.worker_startup) + serial_tail
    return ScheduleResult(num_workers, makespan, finish, assignments)


def simulate_core_sweep(
    durations: Sequence[float],
    worker_counts: Sequence[int],
    *,
    overhead: OverheadModel = OverheadModel(),
) -> list[ScheduleResult]:
    """Fig. 5's x-axis: the same measured task bag on each core count."""
    return [simulate_makespan(durations, w, overhead=overhead) for w in worker_counts]
