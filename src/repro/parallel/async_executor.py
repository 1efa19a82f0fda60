"""Async executor: an asyncio/thread hybrid behind the ``Executor`` seam.

No production path uses it any more (the service's fleet is
:class:`~repro.parallel.executor.MultiprocessingExecutor`); it is kept
because the benchmark harness's traced pass imports and patches it.

The pool executors in :mod:`repro.parallel.executor` tie admission to OS
resources: every in-flight job owns a process or rides a bounded thread
queue, and the *caller* must meter submission (``JobScheduler`` caps
in-flight attempts at ``4 x num_workers`` for exactly this reason). A
long-running search service has the opposite shape — many concurrent
sweeps, each streaming jobs at its own pace, multiplexed over one shared
worker fleet — so admission must be cheap and unbounded while execution
stays bounded.

:class:`AsyncExecutor` splits the two: an asyncio event loop on a
dedicated thread is the dispatch plane (accepting a job = creating a
task, so thousands of logical jobs queue for free), and an
``asyncio.Semaphore`` admits at most ``num_workers`` of them into a
thread pool at a time. ``submit`` is thread-safe and non-blocking, which
is what lets N sweeps drive one fleet concurrently.

The contract ``JobScheduler`` relies on is preserved exactly:

* ``submit(fn, *args) -> concurrent.futures.Future`` with *honest*
  cancellation — ``cancel()`` succeeds while the job is still queued
  behind the semaphore (nothing ran, the fleet stays clean) and fails
  once the job occupies a worker thread, which tells the scheduler an
  abandoned attempt may still be running and the pool must not be
  joined gracefully (``tainted``).
* exceptions are routed into the future, never raised at the caller;
* ``starmap`` preserves input order;
* ``close()`` (and context-manager exit) drains or abandons cleanly.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import Executor, available_cores

__all__ = ["AsyncExecutor"]


class AsyncExecutor(Executor):
    """Unbounded async admission over a bounded worker-thread fleet.

    Parameters
    ----------
    num_workers:
        OS threads that actually run jobs (and the semaphore width);
        defaults to the usable core count. Like :class:`ThreadExecutor`,
        suited to jobs that wait, not to candidate training, which holds
        the interpreter lock (measured in ``docs/service.md``) — the
        search service runs on
        :class:`~repro.parallel.executor.MultiprocessingExecutor`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When given,
        the executor tracks admission depth (``repro_executor_admitted``,
        jobs accepted but not yet settled), occupancy
        (``repro_executor_running``), and how long admitted jobs queued
        behind the semaphore (``repro_executor_semaphore_wait_seconds``).
    """

    name = "async"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.num_workers = num_workers or available_cores()
        self.metrics = metrics
        self._m: dict[str, Any] | None = None
        if metrics is not None:
            self._m = {
                "admitted": metrics.gauge(
                    "repro_executor_admitted",
                    "Jobs accepted by the dispatch plane and not yet settled",
                ),
                "running": metrics.gauge(
                    "repro_executor_running",
                    "Jobs currently occupying a worker thread",
                ),
                "wait": metrics.histogram(
                    "repro_executor_semaphore_wait_seconds",
                    "Time an admitted job queued behind the worker semaphore",
                ),
            }
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="async-exec"
        )
        self._loop = asyncio.new_event_loop()
        self._semaphore: asyncio.Semaphore | None = None  # created on the loop
        self._thread = threading.Thread(
            target=self._run_loop, name="async-exec-loop", daemon=True
        )
        self._closed = False
        self._thread.start()
        # The semaphore must be created on the loop thread (it binds to the
        # running loop); block until the loop is up so submit() never races.
        ready = threading.Event()

        def _init() -> None:
            self._semaphore = asyncio.Semaphore(self.num_workers)
            ready.set()

        self._loop.call_soon_threadsafe(_init)
        ready.wait()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # -- the Executor contract ---------------------------------------------

    def submit(self, fn: Callable, *args) -> Future:
        """Admit one job; returns immediately with a standard future.

        The future's lifecycle mirrors where the job really is: PENDING
        while queued behind the semaphore (cancellable — the fleet never
        saw it), RUNNING once a worker thread picked it up (``cancel()``
        returns False, so the job scheduler knows an abandoned attempt
        still occupies a worker).
        """
        if self._closed:
            raise RuntimeError("AsyncExecutor is closed")
        future: Future = Future()
        if self._m is not None:
            self._m["admitted"].inc()
        asyncio.run_coroutine_threadsafe(self._dispatch(future, fn, args), self._loop)
        return future

    async def _dispatch(self, future: Future, fn: Callable, args: tuple) -> None:
        assert self._semaphore is not None
        t0 = time.perf_counter() if self._m is not None else 0.0
        try:
            async with self._semaphore:
                if self._m is not None:
                    elapsed = time.perf_counter() - t0
                    self._m["wait"].observe(elapsed)
                    self.metrics.trace_event("executor_semaphore_wait", elapsed)
                # Claim the future for execution; a False return means the
                # caller cancelled it while it was queued — nothing to run.
                if not future.set_running_or_notify_cancel():
                    return
                if self._m is not None:
                    self._m["running"].inc()
                try:
                    result = await self._loop.run_in_executor(
                        self._pool, fn, *args
                    )
                except BaseException as exc:  # noqa: BLE001 - routed into the future
                    self._settle(future.set_exception, exc)
                else:
                    self._settle(future.set_result, result)
                finally:
                    if self._m is not None:
                        self._m["running"].dec()
        finally:
            if self._m is not None:
                self._m["admitted"].dec()

    @staticmethod
    def _settle(setter: Callable, value: Any) -> None:
        # An abandoned (timed-out) attempt may have been failed externally
        # before its worker finished; a late settle must not crash the loop.
        try:
            setter(value)
        except InvalidStateError:
            pass

    def starmap(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        futures = [self.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Stop the dispatch plane and the worker fleet.

        A clean close waits for running jobs; a tainted one (the job
        scheduler abandoned an attempt that may still hold a thread)
        abandons them, matching ``ThreadExecutor`` semantics.
        """
        if self._closed:
            return
        self._closed = True
        abandon = self.tainted

        async def _drain() -> None:
            tasks = [
                task
                for task in asyncio.all_tasks(self._loop)
                if task is not asyncio.current_task()
            ]
            if abandon:
                for task in tasks:
                    task.cancel()
            # Let every dispatch settle its future and return (a cancelled
            # one settles with CancelledError) before the loop stops, so no
            # task is destroyed while still pending.
            await asyncio.gather(*tasks, return_exceptions=True)
            self._loop.stop()

        asyncio.run_coroutine_threadsafe(_drain(), self._loop)
        self._thread.join(timeout=5.0 if abandon else None)
        self._pool.shutdown(wait=not abandon)
        self._loop.close()
