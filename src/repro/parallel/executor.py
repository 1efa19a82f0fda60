"""Task executors: the first level of the two-level parallelization scheme.

The paper parallelizes the *architecture search* across candidate gate
combinations using "Python's multiprocessing library's ``starmap_async``
method" (§3.1, Fig. 3); :class:`MultiprocessingExecutor` reproduces that
fan-out over a persistent pool of worker processes — the pool behind both
``repro search --workers`` and ``repro serve``. :class:`SerialExecutor` is
the baseline the speedup figures compare against, and
:class:`ThreadExecutor` exists for tests and for work that waits (I/O,
sleeps) rather than computes.

All executors expose the same ``starmap`` contract (ordered results) plus a
``submit`` contract (one job, one :class:`concurrent.futures.Future`) used
by the fault-tolerant job scheduler in :mod:`repro.parallel.jobs`, and are
context managers; worker functions must be module-level for pickling.
"""

from __future__ import annotations

import abc
import atexit
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "ThreadExecutor",
    "WorkerLostError",
    "available_cores",
    "leased_fleet",
]


def available_cores() -> int:
    """CPUs usable by this process (respects affinity masks on HPC nodes)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Executor(abc.ABC):
    """Common interface: ordered ``starmap`` over argument tuples."""

    name: str = "abstract"
    num_workers: int = 1
    #: set by the job scheduler when an in-flight task was abandoned (timed
    #: out or its worker died); a tainted pool must not be joined gracefully
    tainted: bool = False

    @abc.abstractmethod
    def starmap(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        """Apply ``fn(*job)`` to every job, preserving input order."""

    def submit(self, fn: Callable, *args) -> Future:
        """Run one job, returning a future.

        The default executes inline (correct for serial execution and any
        executor without native async dispatch); pool executors override
        this with real asynchronous submission.
        """
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - routed into the future
            future.set_exception(exc)
        return future

    def map(self, fn: Callable, items: Iterable) -> list[Any]:
        return self.starmap(_apply_single, [(fn, item) for item in items])

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _apply_single(fn: Callable, item) -> Any:
    return fn(item)


class SerialExecutor(Executor):
    """Sequential execution — the paper's serial search baseline."""

    name = "serial"
    num_workers = 1

    def starmap(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        return [fn(*job) for job in jobs]


class WorkerLostError(RuntimeError):
    """The worker process running a job died before returning its result."""


#: seconds an idle worker waits for a job between checks that its parent is
#: still alive (a SIGKILLed server cannot tell its workers to stop)
_ORPHAN_POLL_SECONDS = 1.0
#: seconds a worker gets to exit after its stop message before it is killed
_STOP_GRACE_SECONDS = 5.0


def _worker_main(conn, parent_pid: int, initializer, initargs) -> None:
    """A worker's whole life: jobs in, ``(ok, value)`` replies out."""
    # The parent decides when a worker stops: Ctrl-C reaches the whole
    # foreground process group, and a replacement worker is forked from a
    # parent that may by then have a SIGTERM handler of its own.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if initializer is not None:
        initializer(*initargs)
    while True:
        while not conn.poll(_ORPHAN_POLL_SECONDS):
            if os.getppid() != parent_pid:
                return
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        fn, args = message
        try:
            reply = (True, fn(*args))
        except Exception as error:  # noqa: BLE001 - routed into the future
            error.add_note(f"worker {os.getpid()} traceback:\n{traceback.format_exc()}")
            reply = (False, error)
        try:
            payload = ForkingPickler.dumps(reply)
        except Exception as error:  # noqa: BLE001 - the caller must still hear back
            payload = ForkingPickler.dumps(
                (False, RuntimeError(f"result of {fn!r} could not be pickled: {error!r}"))
            )
        try:
            conn.send_bytes(payload)
        except OSError:
            return  # the parent is gone


def _run_chunk(fn: Callable, chunk: Sequence[tuple]) -> list[Any]:
    return [fn(*job) for job in chunk]


@dataclass
class _Task:
    future: Future
    #: the pickled ``(fn, args)``
    payload: memoryview
    submitted_at: float


@dataclass(eq=False)
class _Worker:
    process: Any
    conn: Any
    #: the job this worker is running (None = idle)
    task: _Task | None = None


class MultiprocessingExecutor(Executor):
    """A persistent pool of worker processes (the paper's outer level).

    The paper fans candidates out with ``multiprocessing.Pool.
    starmap_async``; :meth:`starmap` keeps that contract (ordered results,
    ``chunksize`` trading dispatch overhead against load balance — the
    knob ``bench_ablation_chunksize`` sweeps) and the persistent pool
    amortizes fork cost across search depths (and, under :func:`leased_fleet`,
    across sweeps). The pool itself is this class's own, because
    ``multiprocessing.Pool`` cannot say which task a dead worker held — it
    repopulates the process and silently drops the task — and a long-running
    service cannot wait on a deadline that may not be set. Here every worker
    has a pipe of its own and holds at most one job, so the parent always
    knows what a worker's death cost:

    * a worker that dies (OOM-killed, segfault) fails *its* job with
      :class:`WorkerLostError` — one attempt, which the job scheduler's
      retry budget re-runs — and is replaced, so the pool is back to
      ``num_workers``; no other worker shares a lock with it;
    * futures are honest: PENDING (cancellable) while queued in the
      parent, RUNNING (``cancel()`` fails) once a worker holds the job,
      which tells the job scheduler an abandoned attempt may still occupy
      a worker and sets ``tainted``;
    * ``submit`` is thread-safe and never blocks on execution, so N
      sweeps can drive one pool; the job is pickled on the submitting
      thread and a pickling error lands in the future.

    All workers are started in the constructor, **before** this class
    starts its one collector thread: under the ``fork`` start method
    (the Linux default, and the reason start-up costs no re-import) a
    caller that builds the pool before its own threads, locks and
    database handles exist hands none of them to a child. Only a
    *replacement* worker is forked later, from the collector thread; it
    runs :func:`_worker_main` and nothing else, which takes none of the
    parent's locks and exits through ``os._exit``.

    ``initializer``/``initargs`` run once per worker at start, the hook
    for shipping per-search state or synchronization primitives to
    workers. ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    adds admission depth (``repro_executor_admitted``, accepted and not
    yet settled), occupancy (``repro_executor_running``, holding a
    worker) and the wait between the two
    (``repro_executor_semaphore_wait_seconds``, submit to start on a
    worker).
    """

    name = "multiprocessing"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        chunksize: int = 1,
        initializer: Callable | None = None,
        initargs: tuple = (),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.num_workers = num_workers or available_cores()
        self.chunksize = max(1, int(chunksize))
        self.metrics = metrics
        self._m: dict[str, Any] | None = None
        if metrics is not None:
            self._m = {
                "admitted": metrics.gauge(
                    "repro_executor_admitted",
                    "Jobs accepted by the fleet and not yet settled",
                ),
                "running": metrics.gauge(
                    "repro_executor_running",
                    "Jobs currently occupying a worker process",
                ),
                "wait": metrics.histogram(
                    "repro_executor_semaphore_wait_seconds",
                    "Time an admitted job queued before a worker started it",
                ),
            }
        self._context = mp.get_context()
        self._worker_args = (initializer, initargs)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._backlog: deque[_Task] = deque()
        #: jobs admitted and not yet settled (queued + running)
        self._outstanding = 0
        self._closed = False
        self._workers = [self._start_worker() for _ in range(self.num_workers)]
        self._wake_r, self._wake_w = self._context.Pipe(duplex=False)
        self._collector = threading.Thread(
            target=self._collect, name="mp-exec-collector", daemon=True
        )
        self._collector.start()

    def worker_pids(self) -> list[int]:
        """PIDs of the current workers (a replacement has a new one)."""
        with self._lock:
            return [worker.process.pid for worker in self._workers]

    # -- the Executor contract ---------------------------------------------

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            payload = ForkingPickler.dumps((fn, args))
        except Exception as error:  # noqa: BLE001 - routed into the future
            future.set_exception(error)
            return future
        with self._lock:
            if self._closed or not self._workers:
                raise RuntimeError("MultiprocessingExecutor is closed")
            self._outstanding += 1
            if self._m is not None:
                self._m["admitted"].inc()
            self._backlog.append(_Task(future, payload, time.perf_counter()))
            self._feed_locked()
        return future

    def starmap(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        jobs = list(jobs)
        futures = [
            self.submit(_run_chunk, fn, jobs[start : start + self.chunksize])
            for start in range(0, len(jobs), self.chunksize)
        ]
        return [result for future in futures for result in future.result()]

    def close(self) -> None:
        """Stop the workers and the collector thread.

        A clean close runs every admitted job first. A tainted one (the
        job scheduler abandoned an attempt that may never finish) kills
        the workers instead and fails whatever was still outstanding, so
        closing never waits on a hung job. Either way no worker is left.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._outstanding and not self.tainted:
                self._settled.wait()
            abandon = self.tainted
            lost = self._abandon_locked() if abandon else []
        self._wake_w.send_bytes(b"")
        self._collector.join()
        for worker in self._workers:
            if abandon:
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already dead; joined below
        for worker in self._workers:
            worker.process.join(_STOP_GRACE_SECONDS)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self._wake_r.close()
        self._wake_w.close()
        self._fail(lost, "the executor was closed while the job was outstanding")

    def __exit__(self, *exc) -> None:
        # Leaving the block on an exception (Ctrl-C included): the caller
        # is not going to read the remaining results, so don't run them.
        if exc[0] is not None:
            self.tainted = True
        self.close()

    # -- internals ---------------------------------------------------------

    def _start_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, os.getpid(), *self._worker_args),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _feed_locked(self) -> None:
        """Hand queued jobs to idle workers."""
        for worker in self._workers:
            if worker.task is not None:
                continue
            task = self._next_task_locked()
            if task is None:
                return
            worker.task = task
            if self._m is not None:
                elapsed = time.perf_counter() - task.submitted_at
                self._m["wait"].observe(elapsed)
                self._m["running"].inc()
                self.metrics.trace_event("executor_semaphore_wait", elapsed)
            try:
                worker.conn.send_bytes(task.payload)
            except OSError:
                # The worker died idle and the collector has not replaced
                # it yet; it will find the job on it and fail it as lost.
                pass

    def _next_task_locked(self) -> _Task | None:
        while self._backlog:
            task = self._backlog.popleft()
            if task.future.set_running_or_notify_cancel():
                return task
            self._finish_locked(ran=False)  # cancelled while queued
        return None

    def _finish_locked(self, *, ran: bool) -> None:
        self._outstanding -= 1
        if self._m is not None:
            self._m["admitted"].dec()
            if ran:
                self._m["running"].dec()
        if not self._outstanding:
            self._settled.notify_all()

    def _abandon_locked(self) -> list[_Task]:
        """Take every outstanding job off the books; the caller fails them."""
        lost = [worker.task for worker in self._workers if worker.task is not None]
        for worker in self._workers:
            worker.task = None
        for _ in lost:
            self._finish_locked(ran=True)
        while (task := self._next_task_locked()) is not None:
            lost.append(task)
            self._finish_locked(ran=False)
        return lost

    @staticmethod
    def _fail(tasks: list[_Task], reason: str) -> None:
        for task in tasks:
            _settle(task.future.set_exception, WorkerLostError(reason))

    def _collect(self) -> None:
        """The collector thread: results in, dead workers replaced."""
        while True:
            with self._lock:
                watched = {}
                for worker in self._workers:
                    watched[worker.conn] = worker
                    watched[worker.process.sentinel] = worker
            ready = mp_connection.wait([*watched, self._wake_r])
            if self._wake_r in ready:
                return
            replies: list[tuple[_Task, bytes]] = []
            lost: list[_Task] = []
            with self._lock:
                for worker in {watched[handle] for handle in ready}:
                    reply, dead = None, not worker.process.is_alive()
                    try:
                        if worker.conn.poll():
                            reply = worker.conn.recv_bytes()
                    except (EOFError, OSError):
                        dead = True
                    task = worker.task
                    if task is not None and (reply is not None or dead):
                        worker.task = None
                        self._finish_locked(ran=True)
                        if reply is not None:
                            replies.append((task, reply))
                        else:
                            lost.append(task)
                    if dead:
                        self._replace_locked(worker)
                self._feed_locked()
                broken = not self._workers
                if broken:
                    # Nothing left to run on: fail what is queued rather
                    # than hold it forever; submit() refuses from here on.
                    lost.extend(self._abandon_locked())
            for task, reply in replies:
                try:
                    ok, value = pickle.loads(reply)
                except Exception as error:  # noqa: BLE001 - routed into the future
                    ok, value = False, error
                _settle(task.future.set_result if ok else task.future.set_exception, value)
            self._fail(lost, "its worker process died (killed, or crashed) mid-job")
            if broken:
                return

    def _replace_locked(self, worker: _Worker) -> None:
        """Swap a dead worker for a new one. When the system will not give
        us another process the pool shrinks, and ``num_workers`` says so."""
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        index = self._workers.index(worker)
        try:
            self._workers[index] = self._start_worker()
        except OSError:
            del self._workers[index]
            self.num_workers = len(self._workers)


def _settle(setter: Callable, value: Any) -> None:
    # The job scheduler may already have failed an abandoned (timed-out)
    # future; a late reply must not crash the collector thread.
    try:
        setter(value)
    except InvalidStateError:
        pass


#: at most one fleet, parked between sweeps by :func:`leased_fleet`; emptied in
#: a forked child, where a submit to the collector-less inherited pools hangs
_parked: list[list[MultiprocessingExecutor]] = []
_parked_lock = threading.Lock()
os.register_at_fork(after_in_child=_parked.clear)


@atexit.register
def close_parked_fleet() -> None:
    """Stop the parked workers, if any (also runs at interpreter exit)."""
    with _parked_lock:
        pools = _parked.pop() if _parked else []
    for pool in pools:
        pool.close()


@contextmanager
def leased_fleet(shape: Sequence[int]) -> Iterator[list[MultiprocessingExecutor]]:
    """One sweep's worker processes: a pool of ``n`` for each ``n`` in ``shape``.

    A sweep that returns cleanly *parks* its pools in the process-wide slot
    and the next lease of that shape runs on them: only a process's first
    sweep forks, and workers keep their compiled tables. A lease *removes*
    the fleet from the slot, so concurrent callers never share workers (the
    second builds its own and, the slot being full afterwards, closes it).
    A parked fleet is taken only if every pool has the workers ``shape`` asks
    for (the collector replaces one killed while parked) and is neither
    closed nor ``tainted``; otherwise it is closed *before* the new one is
    forked. An exception out of the block (Ctrl-C, a cancelled sweep) or a
    scheduler-set ``tainted`` closes the fleet as ``__exit__`` would. Workers
    do not inherit what the parent imports after the fork: each loads scipy
    itself on its first COBYLA job, once per fleet.
    """
    with _parked_lock:
        pools = _parked.pop() if _parked else []
    if [pool.num_workers for pool in pools] != list(shape) or any(
        pool.tainted or pool._closed for pool in pools
    ):
        for pool in pools:
            pool.close()
        pools = []
    try:
        for size in shape[len(pools):]:  # all of them, or none
            pools.append(MultiprocessingExecutor(size))
        yield pools
    except BaseException:
        for pool in pools:
            pool.tainted = True
        raise
    finally:
        with _parked_lock:
            if not _parked and not any(pool.tainted for pool in pools):
                _parked.append(pools)
                pools = []
        for pool in pools:
            pool.close()


class ThreadExecutor(Executor):
    """Thread pool, for jobs that wait rather than compute.

    Candidate training does not scale on threads: at this problem size
    (1024-amplitude states) an evaluation is hundreds of microsecond-scale
    NumPy calls, and the interpreter lock is held between them — two
    concurrent sweeps on a two-thread fleet each took about twice as long
    as one alone (table in ``docs/service.md``). Use
    :class:`MultiprocessingExecutor` for that.
    """

    name = "threads"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = num_workers or available_cores()
        self._pool = ThreadPoolExecutor(max_workers=self.num_workers)

    def starmap(self, fn: Callable, jobs: Sequence[tuple]) -> list[Any]:
        futures = [self._pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]

    def submit(self, fn: Callable, *args) -> Future:
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        # Same contract as the process pool: an abandoned job may still be
        # running on a thread that will never finish — don't wait on it.
        self._pool.shutdown(wait=not self.tainted)
