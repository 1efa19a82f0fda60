"""Executor equivalence and lifecycle."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from tests.conftest import parked_pids

from repro.obs.metrics import MetricsRegistry
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    MultiprocessingExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerLostError,
    available_cores,
    close_parked_fleet,
    leased_fleet,
)
from repro.parallel.jobs import JobFailedError, JobScheduler

SRC = Path(__file__).resolve().parents[2] / "src"


def square_sum(a, b):
    return a * a + b


def get_pid(_):
    return os.getpid()


_WORKER_BARRIER = None


def _install_barrier(barrier):
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier


def rendezvous_pid(_):
    """Block until another worker reaches the barrier, then report the PID.

    With a two-party barrier and a blocked first worker, the second job can
    only be executed by the *other* worker — so distinct PIDs are
    guaranteed, not just likely.
    """
    _WORKER_BARRIER.wait(timeout=30)
    return os.getpid()


def slow_square(x, delay):
    time.sleep(delay)
    return x * x


def announce_then_sleep(path, delay):
    """Tell the test which worker holds this job, then occupy it."""
    Path(path).write_text(str(os.getpid()))
    time.sleep(delay)
    return os.getpid()


def wait_for_pid(path, timeout=10.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = Path(path).read_text() if Path(path).exists() else ""
        if text:
            return int(text)
        time.sleep(0.01)
    raise TimeoutError(f"no worker announced itself in {path}")


def divide(a, b):
    return a / b


JOBS = [(i, i + 1) for i in range(10)]
EXPECTED = [i * i + i + 1 for i in range(10)]


class TestSerial:
    def test_starmap(self):
        assert SerialExecutor().starmap(square_sum, JOBS) == EXPECTED

    def test_map(self):
        assert SerialExecutor().map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.starmap(square_sum, JOBS) == EXPECTED


class TestMultiprocessing:
    def test_results_ordered(self):
        with MultiprocessingExecutor(2) as ex:
            assert ex.starmap(square_sum, JOBS) == EXPECTED

    def test_work_spread_across_processes(self):
        # Trivial jobs can all land on whichever worker wakes first, so the
        # old 20-jobs-of-nothing version was flaky. The barrier makes the
        # spread deterministic: neither rendezvous job can finish until both
        # workers hold one.
        barrier = mp.get_context().Barrier(2)
        with MultiprocessingExecutor(
            2, initializer=_install_barrier, initargs=(barrier,)
        ) as ex:
            pids = set(ex.starmap(rendezvous_pid, [(i,) for i in range(2)]))
        assert len(pids) == 2

    def test_chunksize_does_not_change_results(self):
        with MultiprocessingExecutor(2, chunksize=4) as ex:
            assert ex.starmap(square_sum, JOBS) == EXPECTED

    def test_default_workers_from_affinity(self):
        with MultiprocessingExecutor() as ex:
            assert ex.num_workers == available_cores()

    def test_actual_speedup_on_sleep_tasks(self):
        """Real parallelism: 8 x 0.1s sleeps on 2 workers beat serial."""
        jobs = [(i, 0.1) for i in range(8)]
        start = time.perf_counter()
        SerialExecutor().starmap(slow_square, jobs)
        serial_time = time.perf_counter() - start
        with MultiprocessingExecutor(2) as ex:
            start = time.perf_counter()
            ex.starmap(slow_square, jobs)
            parallel_time = time.perf_counter() - start
        assert parallel_time < serial_time * 0.8

    def test_empty_jobs(self):
        with MultiprocessingExecutor(2) as ex:
            assert ex.starmap(square_sum, []) == []

    def test_pool_futures_refuse_cancellation(self):
        """A task handed to ``apply_async`` cannot be withdrawn, so the
        future must report running (cancel fails) — the signal the job
        scheduler uses to decide a timed-out pool must be terminated."""
        with MultiprocessingExecutor(1) as ex:
            future = ex.submit(square_sum, 2, 1)
            assert future.cancel() is False
            assert future.result(timeout=10) == 5


class TestServiceGrade:
    """What the search service needs of its fleet beyond ``starmap``."""

    def test_queued_job_is_cancellable_running_job_is_not(self, tmp_path):
        with MultiprocessingExecutor(1) as ex:
            running = ex.submit(announce_then_sleep, str(tmp_path / "pid"), 0.3)
            queued = ex.submit(square_sum, 2, 1)
            assert queued.cancel() is True  # never reached a worker
            assert running.cancel() is False
            assert running.result(timeout=10) == wait_for_pid(tmp_path / "pid")
            assert ex.submit(square_sum, 2, 1).result(timeout=10) == 5

    def test_killed_worker_costs_its_job_only_and_is_replaced(
        self, tmp_path, still_running
    ):
        """SIGKILL mid-job (what the OOM killer does), no deadline set:
        that job fails at once with WorkerLostError, the sibling's job is
        untouched, and the pool is back to two workers."""
        with MultiprocessingExecutor(2) as ex:
            before = ex.worker_pids()
            doomed = ex.submit(announce_then_sleep, str(tmp_path / "a"), 60)
            victim = wait_for_pid(tmp_path / "a")
            sibling = ex.submit(announce_then_sleep, str(tmp_path / "b"), 0.3)
            survivor = wait_for_pid(tmp_path / "b")
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                doomed.result(timeout=10)
            assert sibling.result(timeout=10) == survivor
            after = ex.worker_pids()
            assert len(after) == 2 and victim not in after and survivor in after
            assert set(before) - set(after) == {victim}
            # the replacement takes work
            pids = {ex.submit(get_pid, None).result(timeout=10) for _ in range(8)}
            assert pids <= set(after)
        assert still_running(before + after) == []

    def test_worker_killed_while_idle_is_replaced(self, still_running):
        with MultiprocessingExecutor(1) as ex:
            (victim,) = ex.worker_pids()
            os.kill(victim, signal.SIGKILL)
            assert still_running([victim]) == []
            # whether or not the collector has noticed yet, the job either
            # lands on the replacement or fails as lost — it never hangs
            try:
                assert ex.submit(square_sum, 2, 1).result(timeout=10) == 5
            except WorkerLostError:
                assert ex.submit(square_sum, 2, 1).result(timeout=10) == 5
            assert ex.worker_pids() != [victim]

    def test_tainted_close_does_not_wait_for_a_hung_job(self, tmp_path, still_running):
        ex = MultiprocessingExecutor(2)
        pids = ex.worker_pids()
        hung = ex.submit(announce_then_sleep, str(tmp_path / "pid"), 600)
        queued = [ex.submit(announce_then_sleep, str(tmp_path / f"q{i}"), 600) for i in range(3)]
        wait_for_pid(tmp_path / "pid")
        ex.tainted = True  # what JobScheduler sets when it abandons an attempt
        start = time.monotonic()
        ex.close()
        assert time.monotonic() - start < 5
        assert still_running(pids) == []
        for future in [hung, *queued]:
            with pytest.raises(WorkerLostError):
                future.result(timeout=1)
        with pytest.raises(RuntimeError, match="closed"):
            ex.submit(square_sum, 1, 1)

    def test_clean_close_runs_everything_admitted(self, still_running):
        ex = MultiprocessingExecutor(2)
        futures = [ex.submit(slow_square, i, 0.05) for i in range(8)]
        ex.close()
        assert [f.result(timeout=0) for f in futures] == [i * i for i in range(8)]
        assert still_running(ex.worker_pids()) == []
        ex.close()  # idempotent

    def test_unpicklable_job_fails_its_own_future(self):
        with MultiprocessingExecutor(1) as ex:
            broken = ex.submit(lambda: 1)
            assert broken.exception(timeout=10) is not None
            assert ex.submit(square_sum, 2, 1).result(timeout=10) == 5

    def test_worker_exception_arrives_with_its_traceback(self):
        with MultiprocessingExecutor(1) as ex:
            error = ex.submit(divide, 1, 0).exception(timeout=10)
        assert isinstance(error, ZeroDivisionError)
        assert "in divide" in "".join(error.__notes__)

    def test_many_submitting_threads_lose_nothing(self):
        """More submitters than cores, all at once, on a two-worker pool:
        every job settles with its own answer and the gauges return to
        zero — a lost update in the pool's bookkeeping breaks either."""
        metrics = MetricsRegistry()
        threads, per_thread = 8, 40
        results: dict[int, list] = {}

        def client(k: int) -> None:
            futures = [ex.submit(square_sum, k, i) for i in range(per_thread)]
            results[k] = [future.result(timeout=60) for future in futures]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MultiprocessingExecutor(2, metrics=metrics) as ex:
                workers = [threading.Thread(target=client, args=(k,)) for k in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        for k in range(threads):
            assert results[k] == [k * k + i for i in range(per_thread)]
        text = metrics.render()
        assert "repro_executor_admitted 0" in text
        assert "repro_executor_running 0" in text
        assert f"repro_executor_semaphore_wait_seconds_count {threads * per_thread}" in text

    def test_workers_exit_when_their_parent_is_killed(self, still_running):
        """A SIGKILLed server cannot stop its fleet; the workers notice."""
        script = (
            "import os, signal, sys\n"
            "from repro.parallel.executor import MultiprocessingExecutor\n"
            "ex = MultiprocessingExecutor(2)\n"
            "print(*ex.worker_pids(), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        parent = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=60,
        )
        assert parent.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in parent.stdout.split()]
        assert len(pids) == 2
        assert still_running(pids, timeout=10) == []


def fleet_pids(pools) -> list[int]:
    return [pid for pool in pools for pid in pool.worker_pids()]


class TestLease:
    """``leased_fleet``: how ``api.search(workers=N)`` obtains its processes.
    Every test starts with nothing parked (``tests/conftest.py``)."""

    def test_a_clean_lease_parks_and_the_next_one_runs_on_the_same_workers(self):
        with leased_fleet([2]) as (pool,):
            first = pool.worker_pids()
            assert parked_pids() == []  # leased = removed from the slot
        assert parked_pids() == first
        with leased_fleet([2]) as (again,):
            assert again is pool and again.worker_pids() == first
            ran_on = {again.submit(get_pid, None).result(timeout=10) for _ in range(8)}
            assert ran_on <= set(first)
        assert parked_pids() == first

    def test_closing_the_parked_fleet_leaves_no_process_and_no_thread(self, still_running):
        before = set(threading.enumerate())
        with leased_fleet([2, 1]) as pools:
            pids = fleet_pids(pools)
        assert len(pids) == 3 and parked_pids() == pids
        close_parked_fleet()
        assert parked_pids() == [] and still_running(pids) == []
        assert set(threading.enumerate()) == before
        close_parked_fleet()  # nothing parked: a no-op

    @pytest.mark.parametrize("shape", [[3], [1], [1, 1], [2, 1]])
    def test_another_shape_closes_the_parked_fleet_before_it_forks(
        self, shape, monkeypatch, still_running
    ):
        """So the process count never exceeds the larger of the two shapes."""
        with leased_fleet([2]) as (pool,):
            old = pool.worker_pids()
        old_alive_at_fork = []
        start_worker = MultiprocessingExecutor._start_worker

        def spy(self):
            old_alive_at_fork.extend(still_running(old, timeout=0))
            return start_worker(self)

        monkeypatch.setattr(MultiprocessingExecutor, "_start_worker", spy)
        with leased_fleet(shape) as pools:
            assert [pool.num_workers for pool in pools] == shape
            new = fleet_pids(pools)
        assert len(new) == sum(shape) and set(new).isdisjoint(old)
        assert old_alive_at_fork == []
        assert parked_pids() == new

    def test_two_callers_at_once_never_share_workers_and_one_fleet_stays_parked(
        self, still_running
    ):
        both_inside = threading.Barrier(2)
        seen: dict[int, list[int]] = {}

        def sweep(k: int) -> None:
            with leased_fleet([1]) as pools:
                seen[k] = fleet_pids(pools)
                both_inside.wait(timeout=30)

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert set(seen[0]).isdisjoint(seen[1])
        assert len(executor_module._parked) == 1
        kept = parked_pids()
        assert kept in (seen[0], seen[1])
        assert still_running(set(seen[0] + seen[1]) - set(kept)) == []

    def test_many_leasing_threads_hold_their_workers_alone_and_leak_none(self, still_running):
        """More callers than cores, all leasing and parking at once: a worker
        is never in two callers' hands, and in the end one fleet is parked
        and every other process is gone — a lost update of the slot breaks
        one or the other."""
        threads, rounds = 6, 5
        book = threading.Lock()
        held: set[int] = set()
        ever: set[int] = set()
        shared: list[int] = []

        def caller() -> None:
            for _ in range(rounds):
                with leased_fleet([1]) as pools:
                    pids = fleet_pids(pools)
                    with book:
                        shared.extend(pid for pid in pids if pid in held)
                        held.update(pids)
                        ever.update(pids)
                    assert pools[0].submit(square_sum, 2, 1).result(timeout=60) == 5
                    with book:
                        held.difference_update(pids)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(threads)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(interval)
        assert shared == [] and held == set()
        assert len(executor_module._parked) == 1
        kept = parked_pids()
        assert len(kept) == 1 and kept[0] in ever
        assert still_running(ever - set(kept), timeout=10) == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_an_exception_out_of_the_sweep_closes_the_fleet_tainted(
        self, error, tmp_path, still_running
    ):
        """What ``MultiprocessingExecutor.__exit__`` does: the caller will not
        read the remaining results, so the hung job is killed, not joined."""
        start = time.monotonic()
        with pytest.raises(error):
            with leased_fleet([1, 1]) as pools:
                pids = fleet_pids(pools)
                hung = pools[0].submit(announce_then_sleep, str(tmp_path / "pid"), 600)
                wait_for_pid(tmp_path / "pid")
                raise error
        assert time.monotonic() - start < 5
        assert all(pool.tainted for pool in pools)
        assert parked_pids() == [] and still_running(pids) == []
        with pytest.raises(WorkerLostError):
            hung.result(timeout=1)

    def test_a_fleet_the_scheduler_tainted_is_closed_not_parked(self, still_running):
        with leased_fleet([1]) as (pool,):
            pids = pool.worker_pids()
            with pytest.raises(JobFailedError):  # caught: the sweep itself returns
                JobScheduler(pool, max_retries=0, timeout=0.2).run(slow_square, [(2, 600)])
            assert pool.tainted
        assert parked_pids() == [] and still_running(pids) == []

    def test_a_worker_killed_while_parked_is_replaced(self, still_running):
        with leased_fleet([2]) as (pool,):
            victim, survivor = pool.worker_pids()
        os.kill(victim, signal.SIGKILL)
        assert still_running([victim]) == []
        with leased_fleet([2]) as (again,):
            assert again is pool
            # whether or not the collector has noticed yet: a job lands on
            # the replacement or fails as lost and is retried
            assert JobScheduler(again).run(square_sum, JOBS) == EXPECTED
            after = again.worker_pids()
        assert len(after) == 2 and victim not in after and survivor in after
        assert parked_pids() == after

    def test_a_fleet_closed_while_parked_is_rebuilt(self):
        with leased_fleet([1]) as (pool,):
            pass
        pool.close()
        with leased_fleet([1]) as (fresh,):
            assert fresh is not pool
            assert fresh.submit(square_sum, 2, 1).result(timeout=10) == 5

    def test_a_fleet_that_lost_its_workers_while_parked_is_rebuilt(
        self, monkeypatch, still_running
    ):
        """The system refused the replacement: the pool is broken, and its
        ``submit`` would raise "… is closed" — the lease never hands it out."""
        with leased_fleet([1]) as (pool,):
            (victim,) = pool.worker_pids()
        with monkeypatch.context() as patch:
            patch.setattr(pool, "_start_worker", lambda: (_ for _ in ()).throw(OSError("EAGAIN")))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while pool.num_workers and time.monotonic() < deadline:
                time.sleep(0.01)
        assert pool.num_workers == 0
        with leased_fleet([1]) as (fresh,):
            assert fresh is not pool and pool._closed
            assert fresh.submit(square_sum, 2, 1).result(timeout=10) == 5

    def test_a_forked_child_starts_with_an_empty_slot(self):
        """Its copy of the fleet has no collector thread: a submit would hang."""
        with leased_fleet([1]):
            pass
        assert parked_pids()
        child = os.fork()
        if child == 0:
            os._exit(1 if executor_module._parked else 0)
        assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
        assert parked_pids()  # the parent's is untouched


class TestThreads:
    def test_results_ordered(self):
        with ThreadExecutor(3) as ex:
            assert ex.starmap(square_sum, JOBS) == EXPECTED


class TestFactory:
    def test_names(self):
        assert SerialExecutor().name == "serial"
        with ThreadExecutor(2) as ex:
            assert ex.name == "threads"
        with MultiprocessingExecutor(2) as ex:
            assert ex.name == "multiprocessing"

    def test_available_cores_positive(self):
        assert available_cores() >= 1
