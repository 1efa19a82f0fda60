"""Fault-tolerant job scheduling: submit / as-completed with retry + timeout.

An executor's one contract is ``submit`` (one job, one future), and
:class:`JobScheduler` is what drives it for the search runtime — never an
ordered barrier over the whole bag, where one lost worker or one
pathological candidate would stall the depth. Results stream back in
completion order (``as_completed``; ``run`` restores input order), and
each job carries its own retry budget and wall-clock deadline. A job
whose worker raises is resubmitted; a job whose future never completes
(worker killed — ``multiprocessing.Pool`` repopulates the process but
silently drops the task) is abandoned at its deadline and resubmitted the
same way. Only when a job exhausts ``max_retries`` does the scheduler
raise :class:`JobFailedError` — and even then every other finished job in
the same completion batch is yielded (and so reaches the caller's cache)
before the raise, so one poisoned candidate costs its own work, not its
neighbours'.

Submission is **bounded**: at most ``INFLIGHT_PER_WORKER x
executor.num_workers`` attempts are outstanding at once and further jobs are
submitted as results drain. Wide depths (625+ candidates) therefore start
their per-attempt deadline clock when work can actually run, not when the
whole bag is enqueued — and with inline executors, results stream back
(and get persisted by the caller) between submissions instead of only
after the last job ran.

Both of the paper's parallel levels are this one loop. Given a *sequence*
of executors the scheduler runs one **lane** per executor — one shard of
Fig. 2's outer level, one failure domain: jobs are placed on lanes by
:func:`~repro.parallel.cluster.least_loaded_partition` over their costs,
the in-flight bound holds per lane, and ``concurrent.futures.wait`` does
not care which pool a future came from. A lane dies of a *node-level*
fault — its executor refuses a submission, or a job exhausts its retries
purely on timeouts (workers unreachable or hanging); its unfinished jobs
are re-placed on the surviving lanes with a fresh retry budget, and only
the last lane's death ends the pass (:class:`ShardFailedError`). A job
whose own exception exhausts its retries is not blamed on the node: it
raises :class:`JobFailedError` on any number of lanes, instead of
cascading a poisoned candidate through every lane's retry budget. Nothing
here runs on a thread of its own, so a pass that ends — exhausted, raised
or closed by its consumer — submits nothing more.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import Executor, SerialExecutor

__all__ = ["JobFailedError", "JobStats", "JobScheduler", "ShardFailedError"]

#: a lane's outstanding attempts, per worker of its executor
INFLIGHT_PER_WORKER = 4


class JobFailedError(RuntimeError):
    """A job failed (or timed out) on every allowed attempt."""

    def __init__(self, job_index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"job {job_index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.job_index = job_index
        self.attempts = attempts
        self.cause = cause


class ShardFailedError(RuntimeError):
    """Every shard died with candidates still unfinished."""

    def __init__(self, num_shards: int, cause: BaseException | None) -> None:
        super().__init__(
            f"all {num_shards} shard(s) died with work unfinished"
            + (f"; last cause: {cause!r}" if cause is not None else "")
        )
        self.num_shards = num_shards
        self.cause = cause


@dataclass
class JobStats:
    """Scheduler counters, accumulated over the scheduler's lifetime (the
    numbers a search reports at the end) and summed over its lanes."""

    submitted: int = 0
    completed: int = 0
    retried: int = 0
    timed_out: int = 0
    failed: int = 0


@dataclass
class _Pending:
    """Book-keeping for one in-flight attempt."""

    index: int
    attempt: int
    deadline: float | None
    submitted_at: float


@dataclass
class _Lane:
    """One failure domain: an executor and what the current pass put on it."""

    index: int
    executor: Executor
    #: cap on this lane's outstanding attempts
    limit: int
    #: what doomed the lane (None = alive); outlives the pass
    cause: BaseException | None = None
    #: unfinished jobs placed here: waiting in ``backlog``, or in flight
    jobs: set[int] = field(default_factory=set)
    backlog: deque[int] = field(default_factory=deque)
    pending: dict[Future, _Pending] = field(default_factory=dict)

    def clear(self) -> None:
        self.jobs.clear()
        self.backlog.clear()
        self.pending.clear()


class JobScheduler:
    """Streams ``fn(*job)`` results as they complete, tolerating faults.

    Parameters
    ----------
    executor:
        Any :class:`~repro.parallel.executor.Executor`; its ``submit``
        method provides the futures. Defaults to serial execution. A
        sequence makes one lane (failure domain) per executor; the same
        executor may back several lanes.
    max_retries:
        Extra attempts per job after the first (0 = fail fast).
    timeout:
        Per-attempt wall-clock deadline in seconds; ``None`` disables.
        On expiry the attempt is abandoned (its late result, if any, is
        discarded) and the job is resubmitted.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When given,
        the scheduler mirrors its counters into ``repro_jobs_*_total``
        and observes per-attempt run latency (``repro_job_run_seconds``)
        and backlog wait before a job's first attempt
        (``repro_job_queue_wait_seconds``).

    A lane holds at most ``INFLIGHT_PER_WORKER x`` its executor's
    ``num_workers`` outstanding attempts. Bounding keeps deadlines honest
    (an attempt's clock starts when it is submitted) and lets inline
    executors stream results between submissions.
    """

    def __init__(
        self,
        executor: Executor | Sequence[Executor] | None = None,
        *,
        max_retries: int = 2,
        timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if executor is None or isinstance(executor, Executor):
            executor = [executor or SerialExecutor()]
        self.executors = list(executor)
        #: the first lane's — *the* executor of a single-lane scheduler
        self.executor = self.executors[0]
        self.lanes = [
            _Lane(index, lane, INFLIGHT_PER_WORKER * max(1, lane.num_workers))
            for index, lane in enumerate(self.executors)
        ]
        #: lanes that died, in order of death, and the jobs re-placed off them
        self.dead_lanes: list[int] = []
        self.migrated = 0
        #: job index -> the lane the current pass (last) placed it on
        self.lane_of: dict[int, int] = {}
        self.max_retries = int(max_retries)
        self.timeout = timeout
        self.stats = JobStats()
        self.metrics = metrics
        self._m: dict[str, Any] | None = None
        if metrics is not None:
            self._m = {
                "submitted": metrics.counter(
                    "repro_jobs_submitted_total",
                    "Job attempts handed to the executor",
                ),
                "completed": metrics.counter(
                    "repro_jobs_completed_total",
                    "Job attempts that returned a result",
                ),
                "retried": metrics.counter(
                    "repro_jobs_retried_total",
                    "Failed or expired attempts that were resubmitted",
                ),
                "timed_out": metrics.counter(
                    "repro_jobs_timed_out_total",
                    "Attempts abandoned at their per-attempt deadline",
                ),
                "failed": metrics.counter(
                    "repro_jobs_failed_total",
                    "Jobs that exhausted their retry budget",
                ),
                "run": metrics.histogram(
                    "repro_job_run_seconds",
                    "Submit-to-completion latency of one job attempt",
                ),
                "wait": metrics.histogram(
                    "repro_job_queue_wait_seconds",
                    "Backlog wait before a job's first attempt is submitted",
                ),
            }

    # -- public API --------------------------------------------------------

    def as_completed(
        self,
        fn: Callable,
        jobs: Sequence[tuple],
        costs: Sequence[float] | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(job_index, result)`` pairs in completion order.

        ``costs`` (one per job; default: all equal) place the jobs on the
        lanes; ``lane_of[job_index]`` says where a yielded job ran."""
        jobs = list(jobs)
        costs = [1.0] * len(jobs) if costs is None else costs
        self._pass_t0 = time.monotonic()
        self.lane_of = {}
        for lane in self.lanes:
            lane.clear()  # of whatever a pass closed early left behind
        if jobs:
            self._place(range(len(jobs)), costs)

        while any(lane.jobs for lane in self.lanes):
            for lane in self.lanes:
                while lane.cause is None and lane.backlog and len(lane.pending) < lane.limit:
                    self._submit(lane, fn, jobs, lane.backlog.popleft(), attempt=1)
            doomed = [lane for lane in self.lanes if lane.cause is not None and lane.jobs]
            if doomed:
                self._bury(doomed, costs)
                continue
            owner = {future: lane for lane in self.lanes for future in lane.pending}
            done, _ = wait(owner, timeout=self._next_wait(), return_when=FIRST_COMPLETED)
            # Drain the whole completion batch before surfacing any
            # failure: the other finished futures carry real work that
            # must reach the caller, not be dropped with the generator.
            failure: JobFailedError | None = None
            for future in done:
                lane = owner[future]
                entry = lane.pending.pop(future)
                error = future.exception()
                if error is None:
                    lane.jobs.discard(entry.index)
                    self.stats.completed += 1
                    if self._m is not None:
                        elapsed = time.monotonic() - entry.submitted_at
                        self._m["completed"].inc()
                        self._m["run"].observe(elapsed)
                        self.metrics.trace_event(
                            "job_run",
                            elapsed,
                            index=entry.index,
                            attempt=entry.attempt,
                        )
                    yield entry.index, future.result()
                else:
                    failure = failure or self._retry_or_fail(lane, fn, jobs, entry, error)
            failure = failure or self._expire(fn, jobs)
            if failure is not None:
                raise failure

    def run(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        """Ordered results: ``fn(*job)`` for every job, in input order."""
        results: list[Any] = [None] * len(jobs)
        for index, result in self.as_completed(fn, jobs):
            results[index] = result
        return results

    # -- internals ---------------------------------------------------------

    def _place(self, indices: Sequence[int], costs: Sequence[float]) -> None:
        """Queue ``indices`` on the living lanes, balanced by cost."""
        live = [lane for lane in self.lanes if lane.cause is None]
        if not live:
            cause = self.lanes[self.dead_lanes[-1]].cause
            raise ShardFailedError(len(self.lanes), cause) from cause
        bins = least_loaded_partition([costs[i] for i in indices], len(live))
        for lane, positions in zip(live, bins):
            for position in positions:
                self.lane_of[indices[position]] = lane.index
                lane.jobs.add(indices[position])
                lane.backlog.append(indices[position])

    def _bury(self, doomed: Sequence[_Lane], costs: Sequence[float]) -> None:
        """Doomed lanes leave the sweep: what they had in flight is
        abandoned and their unfinished jobs start over on the survivors
        (:class:`ShardFailedError` when there is none)."""
        orphans: list[int] = []
        for lane in doomed:
            self.dead_lanes.append(lane.index)
            for future in lane.pending:
                self._abandon(lane, future)
            orphans += lane.jobs
            lane.clear()
        self._place(sorted(orphans), costs)
        self.migrated += len(orphans)

    @staticmethod
    def _abandon(lane: _Lane, future: Future) -> None:
        if not future.cancel() and not future.done():
            # The attempt is genuinely running on a worker we can no
            # longer reach — the pool can't be joined gracefully. A
            # successful cancel means the attempt never started and
            # the pool is still clean.
            lane.executor.tainted = True

    def _submit(
        self, lane: _Lane, fn: Callable, jobs: Sequence[tuple], index: int, attempt: int
    ) -> None:
        now = time.monotonic()
        deadline = None if self.timeout is None else now + self.timeout
        try:
            future = lane.executor.submit(fn, *jobs[index])
        except Exception as error:
            if len(self.lanes) == 1:
                raise
            lane.cause = error  # the node is gone; the job leaves with the lane
            return
        lane.pending[future] = _Pending(index, attempt, deadline, now)
        self.stats.submitted += 1
        if self._m is not None:
            self._m["submitted"].inc()
            if attempt == 1:
                self._m["wait"].observe(now - self._pass_t0)

    def _retry_or_fail(
        self,
        lane: _Lane,
        fn: Callable,
        jobs: Sequence[tuple],
        entry: _Pending,
        cause: BaseException,
    ) -> JobFailedError | None:
        """Resubmit a failed attempt, or return (not raise) the terminal
        error so the caller can finish draining its completion batch. With
        other lanes to fall back on, retries exhausted purely on timeouts
        doom the lane instead: the job is not to blame."""
        if lane.cause is not None:
            return None
        if entry.attempt <= self.max_retries:
            self.stats.retried += 1
            if self._m is not None:
                self._m["retried"].inc()
            self._submit(lane, fn, jobs, entry.index, attempt=entry.attempt + 1)
            return None
        self.stats.failed += 1
        if self._m is not None:
            self._m["failed"].inc()
        error = JobFailedError(entry.index, entry.attempt, cause)
        error.__cause__ = cause
        if len(self.lanes) > 1 and isinstance(cause, TimeoutError):
            lane.cause = error
            return None
        return error

    def _expire(self, fn: Callable, jobs: Sequence[tuple]) -> JobFailedError | None:
        now = time.monotonic()
        failure: JobFailedError | None = None
        for lane in self.lanes:
            expired = [
                future
                for future, entry in lane.pending.items()
                if entry.deadline is not None and now >= entry.deadline and not future.done()
            ]
            for future in expired:
                entry = lane.pending.pop(future)
                self._abandon(lane, future)
                self.stats.timed_out += 1
                if self._m is not None:
                    self._m["timed_out"].inc()
                failure = failure or self._retry_or_fail(
                    lane,
                    fn,
                    jobs,
                    entry,
                    TimeoutError(
                        f"job {entry.index} attempt {entry.attempt} exceeded "
                        f"{self.timeout}s"
                    ),
                )
        return failure

    def _next_wait(self) -> float | None:
        """Seconds until the earliest deadline (None = wait indefinitely)."""
        if self.timeout is None:
            return None
        deadlines = [e.deadline for lane in self.lanes for e in lane.pending.values()]
        return max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
