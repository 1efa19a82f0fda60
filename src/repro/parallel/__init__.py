"""Parallel execution layer: real executors, the fault-tolerant job
scheduler, and the least-loaded placement rule its lanes share (the Fig. 2 /
Fig. 3 substrate). An executor's one contract is ``submit`` (one job, one
future); :class:`JobScheduler` drives it, with retries, deadlines and
lanes, and returns results streamed or in input order.

:mod:`repro.parallel.faults` (the deterministic chaos harness) is *not*
re-exported here: it subclasses the service-layer job queue, and eagerly
importing it would cycle this package through :mod:`repro.service`.
Import it directly: ``from repro.parallel.faults import FaultPlan``.
Nor is :mod:`repro.parallel.async_executor`, which only the e2e tracer
still imports: re-exporting it would load :mod:`asyncio` at ``import repro``.
"""

from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerLostError,
    available_cores,
)
from repro.parallel.jobs import JobFailedError, JobScheduler, JobStats, ShardFailedError

__all__ = [
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "ThreadExecutor",
    "WorkerLostError",
    "available_cores",
    "JobScheduler",
    "JobStats",
    "JobFailedError",
    "ShardFailedError",
    "least_loaded_partition",
]
