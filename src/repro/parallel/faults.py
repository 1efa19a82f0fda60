"""Deterministic, seed-driven fault injection for the service plane.

Hardening claims are only worth what their tests can prove, and real
faults (wedged workers, killed processes, sqlite lock storms) are neither
repeatable nor cheap to stage. This module makes them both: a
:class:`FaultPlan` derives, from one seed, an independent deterministic
decision stream per fault kind, and two injectors consume it at the two
seams the service runs through —

* :class:`FaultInjectingExecutor` wraps any
  :class:`~repro.parallel.executor.Executor` — the service's process
  fleet included — and makes scheduled worker attempts **raise**
  (:class:`InjectedFault`), **hang** (sleep, then raise — the attempt
  burns wall-clock and produces nothing, like a worker that wedged and
  was abandoned) or **kill** their worker process (``SIGKILL`` from
  inside the job, what the OOM killer does; process-backed executors
  only). All three are *attempt* faults: the retrying
  :class:`~repro.parallel.jobs.JobScheduler` above is what must absorb
  them.
* :class:`FaultInjectingJobQueue` overrides the
  :class:`~repro.service.jobs.JobQueue` sqlite seam and makes scheduled
  statements raise ``sqlite3.OperationalError("database is locked")`` —
  the contention error a busy shared WAL store really produces — which
  the multiplexer's bounded queue-op retry must absorb.

Determinism: each stream is a seeded ``random.Random`` consumed one draw
per call under a lock, so a given (seed, rate) pair always faults the
same *call indices* of each kind. Worker faults are drawn in the parent,
at ``submit`` — the n-th submitted attempt gets the n-th decision, on
whichever worker it lands — so with one submitting thread the schedule
is exact. With several (sweep slots, queue statements) which logical
operation lands on a faulting index still depends on their interleaving
— the invariants the chaos suite asserts (every job terminal, no
candidate trained twice, results identical to a fault-free run) are
exactly the ones that must hold for **every** interleaving.

The executor wrapper also counts ``completed`` — attempts whose future
settled with a result, i.e. real, non-faulted executions of the wrapped
function — which is the ground truth behind "no candidate was trained
twice": under a correct cache/claim plane, ``completed`` equals the
number of unique candidates no matter how many faults were absorbed
along the way.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import sqlite3
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from pathlib import Path
from typing import Any

from repro.parallel.executor import Executor
from repro.service.jobs import JobQueue

__all__ = [
    "FaultInjectingExecutor",
    "FaultInjectingJobQueue",
    "FaultPlan",
    "InjectedFault",
]


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never raised by real code paths)."""


class _Stream:
    """One fault kind's deterministic decision stream."""

    def __init__(self, seed: int, rate: float, max_faults: int | None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self._rng = random.Random(seed)
        self._rate = rate
        self._max = max_faults
        self.calls = 0
        self.fired = 0

    def next(self) -> bool:
        # caller holds the plan lock
        self.calls += 1
        if self._rate == 0.0 or (self._max is not None and self.fired >= self._max):
            return False
        if self._rng.random() < self._rate:
            self.fired += 1
            return True
        return False


class FaultPlan:
    """Seeded schedule of faults, one independent stream per kind.

    Parameters
    ----------
    seed:
        Master seed; each kind derives its own ``random.Random`` from it,
        so raising one rate never shifts another kind's schedule.
    worker_raises / worker_hangs / worker_kills / queue_locks:
        Per-call fault probabilities for the four kinds.
    hang_seconds:
        How long a hanging attempt occupies its worker before it gives
        up (it then raises, producing nothing).
    max_faults_per_kind:
        Optional cap per stream — lets a chaos run guarantee forward
        progress under aggressive rates.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        worker_raises: float = 0.0,
        worker_hangs: float = 0.0,
        worker_kills: float = 0.0,
        queue_locks: float = 0.0,
        hang_seconds: float = 0.2,
        max_faults_per_kind: int | None = None,
    ) -> None:
        if hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {hang_seconds}")
        self.seed = int(seed)
        self.hang_seconds = float(hang_seconds)
        self._lock = threading.Lock()
        self._streams = {
            "raise": _Stream(self.seed * 7919 + 1, worker_raises, max_faults_per_kind),
            "hang": _Stream(self.seed * 7919 + 2, worker_hangs, max_faults_per_kind),
            "lock": _Stream(self.seed * 7919 + 3, queue_locks, max_faults_per_kind),
            "kill": _Stream(self.seed * 7919 + 4, worker_kills, max_faults_per_kind),
        }

    def _draw(self, kind: str) -> bool:
        with self._lock:
            return self._streams[kind].next()

    def should_raise(self) -> bool:
        return self._draw("raise")

    def should_lock(self) -> bool:
        return self._draw("lock")

    def worker_fault(self) -> str | None:
        """The fault, if any, of the next worker attempt. A stream is only
        consulted when every kind before it let the attempt through."""
        for kind in ("raise", "hang", "kill"):
            if self._draw(kind):
                return kind
        return None

    @property
    def injected(self) -> dict[str, int]:
        """Faults fired so far, per kind — the chaos run's evidence that
        it actually exercised something."""
        with self._lock:
            return {kind: stream.fired for kind, stream in self._streams.items()}

    @property
    def calls(self) -> dict[str, int]:
        with self._lock:
            return {kind: stream.calls for kind, stream in self._streams.items()}


def _attempt(fault: str | None, hang_seconds: float, fn: Callable, *args) -> Any:
    """What the inner executor runs: ``fn(*args)``, or the fault decided
    for this attempt at submit. Module-level, so a process pool can ship
    it."""
    if fault == "raise":
        raise InjectedFault("injected worker raise")
    if fault == "hang":
        time.sleep(hang_seconds)
        raise InjectedFault(f"injected worker hang ({hang_seconds}s, then gave up)")
    if fault == "kill":
        if multiprocessing.parent_process() is None:
            raise InjectedFault("a kill fault needs a process-backed inner executor")
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(*args)


class FaultInjectingExecutor(Executor):
    """Wraps an executor so scheduled worker attempts raise, hang or die.

    The decision is drawn here, in the parent, and shipped with the job
    as plain data, so the inner executor may be thread- or process-backed
    (the service fleet, the injection target). The wrapper borrows the
    inner executor: closing it propagates ``tainted`` and closes the
    inner pool.
    """

    name = "fault-injecting"

    def __init__(self, inner: Executor, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.num_workers = inner.num_workers
        self._lock = threading.Lock()
        #: real (non-faulted) completed executions of the wrapped function
        self.completed = 0

    def _count(self, future: Future) -> None:
        if not future.cancelled() and future.exception() is None:
            with self._lock:
                self.completed += 1

    def submit(self, fn: Callable, *args) -> Future:
        future = self.inner.submit(
            _attempt, self.plan.worker_fault(), self.plan.hang_seconds, fn, *args
        )
        future.add_done_callback(self._count)
        return future

    def close(self) -> None:
        self.inner.tainted = self.inner.tainted or self.tainted
        self.inner.close()


class FaultInjectingJobQueue(JobQueue):
    """A :class:`JobQueue` whose sqlite statements fail on schedule.

    Scheduled calls raise ``sqlite3.OperationalError: database is
    locked`` *before* touching the database (the statement genuinely does
    not run — exactly the all-or-nothing failure a busy_timeout expiry
    produces), so a retry by the caller observes consistent state.
    Statements issued during ``__init__`` (schema creation, migration,
    crash recovery) are never faulted.
    """

    def __init__(self, service_dir: str | Path, plan: FaultPlan, **kwargs) -> None:
        super().__init__(service_dir, **kwargs)
        self._plan = plan  # set last: init-time statements run clean

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        plan: FaultPlan | None = getattr(self, "_plan", None)
        if plan is not None and plan.should_lock():
            raise sqlite3.OperationalError("database is locked")
        return super()._execute(sql, params)
