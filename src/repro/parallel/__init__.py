"""Parallel execution layer: real executors, measured-replay schedulers,
and the two-level cluster model (Fig. 2 / Fig. 3 / Fig. 5 substrate).

:mod:`repro.parallel.faults` (the deterministic chaos harness) is *not*
re-exported here: it subclasses the service-layer job queue, and eagerly
importing it would cycle this package through :mod:`repro.service`.
Import it directly: ``from repro.parallel.faults import FaultPlan``.
Nor is :mod:`repro.parallel.async_executor`, which only the e2e tracer
still imports: re-exporting it would load :mod:`asyncio` at ``import repro``.
"""

from repro.parallel.cluster import (
    ClusterModel,
    NodeSpec,
    TwoLevelResult,
    least_loaded_partition,
)
from repro.parallel.executor import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerLostError,
    available_cores,
)
from repro.parallel.jobs import JobFailedError, JobScheduler, JobStats, ShardFailedError
from repro.parallel.scheduler import (
    OverheadModel,
    ScheduleResult,
    simulate_core_sweep,
    simulate_makespan,
)

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
    "OverheadModel",
    "ScheduleResult",
    "simulate_makespan",
    "simulate_core_sweep",
    "ClusterModel",
    "NodeSpec",
    "TwoLevelResult",
    "least_loaded_partition",
]
