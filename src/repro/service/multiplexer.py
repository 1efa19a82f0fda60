"""Sweep multiplexer: N concurrent sweeps, one fleet, one cache.

A sweep used to own the whole process; here each is just a job. The
multiplexer runs ``max_concurrent`` sweep slots (threads), each draining
the persistent :class:`~repro.service.jobs.JobQueue`. Every slot drives
the *same* :class:`~repro.parallel.executor.MultiprocessingExecutor` — a
slot thread only looks candidates up, submits the misses and stores the
results; the training itself runs on the fleet's worker processes, which
take jobs from all sweeps in arrival order, so a wide sweep cannot
starve the service and an idle one costs nothing.

All slots also share one multi-tenant :class:`~repro.core.cache.
ResultCache` in ``shared`` mode: when two live sweeps propose the same
(workload, tokens, p, config) candidate, the first to claim it trains it
and the second collects the cached result (or blocks briefly on the
in-flight claim) — cross-sweep deduplication measured by the cache-hit
accounting each ``SearchResult.config`` carries.

Hardened claiming and execution (PR 7):

* **Per-tenant fairness** — instead of strict oldest-first, each claim
  picks a tenant by weighted stride scheduling (tenants with claimable
  work are served proportionally to ``tenant_weights``, default weight
  1), then claims that tenant's best job. One tenant flooding the queue
  delays only itself. ``max_running_per_tenant`` additionally caps how
  many slots one tenant may occupy at once; the quota check and the
  claim happen under one lock, so two slots cannot both pass it.
* **Leases + heartbeats** — every running job's lease is renewed from a
  per-job heartbeat thread; the heartbeat is also the cancellation
  channel (a ``cancel`` request flips the job's
  :class:`~repro.core.runtime.CancellationToken`, and a ``lost`` lease —
  this slot wedged long enough to be reclaimed — aborts the local run
  without recording an outcome).
* **Bounded retry / dead-letter** — a sweep that raises goes back
  through :meth:`JobQueue.record_failure` (requeue with exponential
  backoff until the attempt budget dead-letters it), so a poison spec
  fails permanently instead of crash-looping a slot.
* **Transient queue faults** — every queue operation in the slot loop is
  retried with short backoff on ``sqlite3.OperationalError`` (a busy
  shared store), so a lock storm costs latency, not a dead slot.
* **Graceful drain** — :meth:`stop` stops claiming, then waits up to
  ``drain_timeout`` for running sweeps to finish; past the deadline they
  are cancelled cooperatively and their jobs requeued (attempt refunded)
  for the next process to resume from cache.
* **Slot liveness** — a slot thread that somehow dies records itself in
  :meth:`slot_health`, which ``/healthz`` surfaces instead of silently
  shrinking capacity.
"""

from __future__ import annotations

import sqlite3
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.api import Config, reconcile_workload, resolve_workload_spec
from repro.core.cache import ResultCache
from repro.core.runtime import CancellationToken, SweepCancelled
from repro.core.search import search_mixer
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.parallel.executor import Executor, MultiprocessingExecutor
from repro.service.jobs import JobQueue, JobRecord

__all__ = ["SweepMultiplexer"]

#: transient-queue-error retry schedule (seconds between attempts)
_QUEUE_RETRY_DELAYS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass
class _Slot:
    """One sweep slot's live bookkeeping."""

    name: str
    thread: threading.Thread | None = None
    #: job currently running here (None = idle)
    job_id: str | None = None
    token: CancellationToken | None = None
    #: the traceback that killed the slot thread, if it died
    died: str | None = None

    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


@dataclass
class _TenantStride:
    """Weighted stride scheduling state: pick the eligible tenant with the
    lowest virtual finishing time ``(served + 1) / weight``."""

    weights: dict[str, float] = field(default_factory=dict)
    served: dict[str, int] = field(default_factory=dict)

    def weight(self, tenant: str) -> float:
        return max(float(self.weights.get(tenant, 1.0)), 1e-9)

    def pick(self, eligible: list[str]) -> str:
        choice = min(
            eligible,
            key=lambda t: ((self.served.get(t, 0) + 1) / self.weight(t), t),
        )
        self.served[choice] = self.served.get(choice, 0) + 1
        return choice


class SweepMultiplexer:
    """Drains the job queue with ``max_concurrent`` sweeps at a time.

    Parameters
    ----------
    queue:
        The persistent job queue to drain (its ``lease_seconds`` also
        sets the heartbeat cadence: one renewal per third of a lease).
    executor:
        Shared worker fleet; defaults to a fresh
        :class:`~repro.parallel.executor.MultiprocessingExecutor` (owned,
        closed on :meth:`stop`), the fleet the service runs. A passed-in
        executor is borrowed — and, built before ``queue`` and ``cache``
        as :class:`~repro.service.server.SearchService` does, its workers
        inherit neither's sqlite handle.
    cache:
        Shared result store, normally constructed with ``shared=True``;
        optional — without it sweeps just lose cross-sweep reuse.
    max_concurrent:
        Sweep slots (worker threads draining the queue).
    poll_interval:
        Longest an idle slot sleeps. The queue wakes it sooner for whatever
        this process does (:meth:`JobQueue.announce`: a submit, a job leaving
        ``running``); the interval bounds only what nobody announces — a
        sibling process's submit, a retry's ``not_before``, an expired lease.
    tenant_weights:
        Fairness weights per tenant (missing tenants weigh 1.0); a tenant
        with weight 2 gets twice the claim share of a weight-1 tenant
        while both have work queued.
    max_running_per_tenant:
        Cap on jobs of one tenant running at once across the whole queue
        (None = no cap).
    drain_timeout:
        Default grace period :meth:`stop` gives running sweeps before
        cancelling them and requeueing their jobs (None = wait forever).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`, threaded
        into every sweep it runs (scheduler/cache/progress
        instrumentation) and fed outcome counters
        (``repro_sweeps_total{outcome=...}``).
    """

    #: finished-sweep progress snapshots kept for late ``/status`` polls
    PROGRESS_KEEP = 256

    def __init__(
        self,
        queue: JobQueue,
        *,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        max_concurrent: int = 2,
        poll_interval: float = 0.05,
        tenant_weights: dict[str, float] | None = None,
        max_running_per_tenant: int | None = None,
        drain_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if max_running_per_tenant is not None and max_running_per_tenant < 1:
            raise ValueError(
                f"max_running_per_tenant must be >= 1, got {max_running_per_tenant}"
            )
        self.queue = queue
        self._owns_executor = executor is None
        self.executor = executor or MultiprocessingExecutor()
        self.cache = cache
        self.max_concurrent = int(max_concurrent)
        self.poll_interval = float(poll_interval)
        self.max_running_per_tenant = max_running_per_tenant
        self.drain_timeout = drain_timeout
        self.sweeps_completed = 0
        self.sweeps_failed = 0
        self.sweeps_cancelled = 0
        self.sweeps_requeued = 0
        self.queue_retries = 0
        self.metrics = metrics
        self._m_sweeps = None
        self._m_queue_retries = None
        if metrics is not None:
            self._m_sweeps = metrics.counter(
                "repro_sweeps_total",
                "Sweeps that reached a local outcome, by outcome",
                labels=("outcome",),
            )
            self._m_queue_retries = metrics.counter(
                "repro_queue_retries_total",
                "Queue operations retried on transient sqlite contention",
            )
        self._stride = _TenantStride(dict(tenant_weights or {}))
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        #: serializes ``_claim`` across the slots (and guards ``_stride``)
        self._claim_lock = threading.Lock()
        self._slots: list[_Slot] = []
        #: job id -> its sweep's progress tracker (kept after the job
        #: leaves this process, bounded by PROGRESS_KEEP)
        self._progress: dict[str, SweepProgress] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if any(slot.alive for slot in self._slots):
            raise RuntimeError("multiplexer already started")
        self._stop.clear()
        self._slots = [
            _Slot(name=f"sweep-slot-{i}") for i in range(self.max_concurrent)
        ]
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._slot_loop, args=(slot,), name=slot.name, daemon=True
            )
            slot.thread.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Stop claiming, drain running sweeps, then release the fleet.

        Waits up to ``drain_timeout`` (default: the constructor's) for
        in-flight sweeps to finish; past the deadline they are cancelled
        at their next checkpoint and their jobs requeued with the attempt
        refunded, so a restart resumes them from cache.
        """
        self._stop.set()
        self.queue.announce()  # idle slots see the flag now, not a poll later
        deadline = drain_timeout if drain_timeout is not None else self.drain_timeout
        expires = None if deadline is None else time.monotonic() + deadline
        for slot in self._slots:
            if slot.thread is None:
                continue
            remaining = None if expires is None else max(0.0, expires - time.monotonic())
            slot.thread.join(timeout=remaining)
        # Past the drain deadline: abort the stragglers cooperatively.
        aborted = False
        with self._state_lock:
            for slot in self._slots:
                if slot.alive and slot.token is not None:
                    slot.token.cancel("service shutdown (drain deadline)")
                    aborted = True
        if aborted:
            for slot in self._slots:
                if slot.thread is not None:
                    slot.thread.join()
        self._slots = []
        if self._owns_executor:
            self.executor.close()
        if self.cache is not None:
            self.cache.flush()

    def __enter__(self) -> SweepMultiplexer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- health ------------------------------------------------------------

    def slot_health(self) -> dict:
        """Liveness of every slot thread — a crashed slot must be visible
        in ``/healthz``, not a silent capacity shrink."""
        with self._state_lock:
            dead = [
                {"slot": slot.name, "error": slot.died or "thread died"}
                for slot in self._slots
                if slot.died is not None or (slot.thread is not None and not slot.alive)
            ] if not self._stop.is_set() else [
                {"slot": slot.name, "error": slot.died}
                for slot in self._slots
                if slot.died is not None
            ]
            return {
                "configured": self.max_concurrent,
                "alive": sum(1 for slot in self._slots if slot.alive),
                "dead": dead,
            }

    def progress_for(self, job_id: str) -> dict | None:
        """Live (or recently finished) progress snapshot of a job that ran
        in this process; None for jobs this process never executed."""
        with self._state_lock:
            progress = self._progress.get(job_id)
        return None if progress is None else progress.to_dict()

    # -- transient queue faults --------------------------------------------

    def _queue_op(self, fn, *args, **kwargs):
        """Run one queue operation, absorbing transient sqlite contention.

        A shared WAL store under load surfaces as ``OperationalError:
        database is locked``; bounded backoff-retry turns that into
        latency. The last attempt re-raises — a persistently broken store
        is a real outage the slot's catch-all then records.
        """
        for delay in _QUEUE_RETRY_DELAYS:
            try:
                return fn(*args, **kwargs)
            except sqlite3.OperationalError:
                self.queue_retries += 1
                if self._m_queue_retries is not None:
                    self._m_queue_retries.inc()
                time.sleep(delay)
        return fn(*args, **kwargs)

    def _count_sweep(self, outcome: str) -> None:
        setattr(self, f"sweeps_{outcome}", getattr(self, f"sweeps_{outcome}") + 1)
        if self._m_sweeps is not None:
            self._m_sweeps.labels(outcome=outcome).inc()

    # -- the sweep slots ---------------------------------------------------

    def _slot_loop(self, slot: _Slot) -> None:
        try:
            while True:
                # Read before the stop check and the claim: an announcement
                # after either makes the wait below return at once.
                seen = self.queue.generation
                if self._stop.is_set():
                    return
                job = self._claim(slot)
                if job is None:
                    self.queue.wait_for_announcement(seen, self.poll_interval)
                else:
                    self._run_job(slot, job)
        except BaseException:  # noqa: BLE001 - a dying slot must leave a trace
            # Recorded, not re-raised: there is nobody above a slot thread
            # to catch it, and /healthz (via slot_health) is the channel
            # that surfaces the death.
            with self._state_lock:
                slot.died = traceback.format_exc()

    def _claim(self, slot: _Slot) -> JobRecord | None:
        """One fair claim attempt: pick a tenant by weighted stride over
        those with claimable work (quota-eligible), then claim its best
        job."""
        # One lock around the quota check and the claim: otherwise two
        # slots both read ``running == 0`` and both claim for a tenant
        # capped at one.
        with self._claim_lock:
            tenants = self._queue_op(self.queue.claimable_tenants)
            if not tenants:
                return None
            if self.max_running_per_tenant is not None:
                by_tenant = self._queue_op(self.queue.counts_by_tenant)
                tenants = [
                    t
                    for t in tenants
                    if by_tenant.get(t, {}).get("running", 0) < self.max_running_per_tenant
                ]
                if not tenants:
                    return None
            tenant = self._stride.pick(tenants)
            # The claim can still miss (the tenant's only job was backing
            # off, or another process took it); the slot just waits again.
            return self._queue_op(self.queue.claim_next, owner=slot.name, tenant=tenant)

    def _run_job(self, slot: _Slot, job: JobRecord) -> None:
        token = CancellationToken()
        lost = threading.Event()
        progress = SweepProgress(metrics=self.metrics, labels={"job": job.id})
        with self._state_lock:
            slot.job_id, slot.token = job.id, token
            self._progress[job.id] = progress
            while len(self._progress) > self.PROGRESS_KEEP:
                # dicts iterate in insertion order: drop the oldest entry
                self._progress.pop(next(iter(self._progress)))
        beat_stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(job.id, slot.name, token, lost, beat_stop),
            name=f"{slot.name}-heartbeat",
            daemon=True,
        )
        beat.start()
        try:
            try:
                result = self.run_spec(job.spec, cancel=token, progress=progress)
            finally:
                beat_stop.set()
                beat.join()
            if lost.is_set():
                return  # reclaimed elsewhere; the new owner records the outcome
            if self._queue_op(
                self.queue.mark_done, job.id, result.to_dict(), owner=slot.name
            ):
                self._count_sweep("completed")
        except SweepCancelled:
            if lost.is_set():
                return
            if self._stop.is_set() and not job.cancel_requested and not self._queue_op(
                self.queue.get, job.id
            ).cancel_requested:
                # Shutdown abort, not a user cancel: hand the job back for
                # the next process, attempt refunded.
                if self._queue_op(self.queue.requeue, job.id, owner=slot.name):
                    self._count_sweep("requeued")
            elif self._queue_op(self.queue.mark_cancelled, job.id, owner=slot.name):
                self._count_sweep("cancelled")
        except Exception as error:  # noqa: BLE001 - a bad sweep must not kill the slot
            if lost.is_set():
                return
            outcome = self._queue_op(
                self.queue.record_failure,
                job.id,
                f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
                owner=slot.name,
            )
            if outcome == "failed":
                self._count_sweep("failed")
        finally:
            # Label hygiene: a job leaving this process must not leave its
            # gauge children in /metrics forever (the snapshot stays
            # readable via progress_for for late /status polls).
            progress.finish_sweep()
            progress.unregister()
            with self._state_lock:
                slot.job_id, slot.token = None, None

    def _heartbeat_loop(
        self,
        job_id: str,
        owner: str,
        token: CancellationToken,
        lost: threading.Event,
        stop: threading.Event,
    ) -> None:
        """Renew the job's lease until the run ends; doubles as the
        cancellation channel and the lost-lease detector."""
        interval = max(self.queue.lease_seconds / 3.0, 0.01)
        while not stop.wait(interval):
            try:
                status = self._queue_op(self.queue.heartbeat, job_id, owner)
            except sqlite3.OperationalError:
                continue  # exhausted retries; the lease survives one miss
            if status == "cancel":
                token.cancel("cancellation requested")
            elif status == "lost":
                lost.set()
                token.cancel("lease lost (job reclaimed)")
                return

    def run_spec(
        self,
        spec: dict,
        *,
        cancel: CancellationToken | None = None,
        progress: SweepProgress | None = None,
    ):
        """Execute one submit payload on the shared fleet + cache.

        Exposed for the smoke path (run a spec without queue round-trip);
        the result's ``config`` carries per-sweep cache-hit accounting.
        """
        implied, graphs = resolve_workload_spec(spec["workload"])
        config = reconcile_workload(Config.from_dict(spec.get("config", {})), implied)
        depths = int(spec.get("depths", 1))
        search_cfg = config.search_config(depths)
        # The service owns fleet and persistence: sweeps get the shared
        # executor and cache objects, never a private pool or cache_dir
        # (and checkpoints stay per-service too).
        runtime_cfg = config.for_service().runtime_config()
        return search_mixer(
            graphs,
            search_cfg,
            executor=self.executor,
            runtime=runtime_cfg,
            cache=self.cache,
            cancel=cancel,
            metrics=self.metrics,
            progress=progress,
        )
