"""AsyncExecutor: the Executor contract over an asyncio dispatch plane."""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.parallel.async_executor import AsyncExecutor


def square_sum(a, b):
    return a * a + b


def boom(_):
    raise RuntimeError("worker exploded")


class TestContract:
    def test_submit_returns_future_with_result(self):
        with AsyncExecutor(2) as executor:
            future = executor.submit(square_sum, 3, 4)
            assert isinstance(future, Future)
            assert future.result(timeout=10) == 13

    def test_starmap_preserves_order(self):
        with AsyncExecutor(3) as executor:
            out = executor.starmap(square_sum, [(i, 0) for i in range(20)])
        assert out == [i * i for i in range(20)]

    def test_exception_routed_into_future(self):
        with AsyncExecutor(2) as executor:
            future = executor.submit(boom, None)
            with pytest.raises(RuntimeError, match="worker exploded"):
                future.result(timeout=10)


class TestAdmission:
    def test_admission_is_unbounded_execution_is_bounded(self):
        """Hundreds of submits never block even on a 1-thread fleet."""
        release = threading.Event()
        started = threading.Event()

        def gate(_):
            started.set()
            release.wait(10)
            return "done"

        with AsyncExecutor(1) as executor:
            t0 = time.monotonic()
            futures = [executor.submit(gate, i) for i in range(200)]
            submit_seconds = time.monotonic() - t0
            assert submit_seconds < 2.0  # admission never waited on a worker
            assert started.wait(10)
            release.set()
            assert all(f.result(timeout=30) == "done" for f in futures)

    def test_concurrent_submitters_share_one_fleet(self):
        """Multiple threads driving one executor all complete correctly —
        the multiplexer's usage pattern."""
        results = {}

        def sweep(tag):
            futures = [executor.submit(square_sum, i, tag) for i in range(25)]
            results[tag] = [f.result(timeout=30) for f in futures]

        with AsyncExecutor(4) as executor:
            threads = [
                threading.Thread(target=sweep, args=(tag,)) for tag in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for tag in range(6):
            assert results[tag] == [i * i + tag for i in range(25)]


class TestCancellation:
    def test_cancel_queued_job_succeeds(self):
        """A job still waiting behind the semaphore is honestly PENDING."""
        release = threading.Event()

        def gate(_):
            release.wait(10)
            return "ran"

        with AsyncExecutor(1) as executor:
            blocker = executor.submit(gate, 0)
            queued = executor.submit(gate, 1)
            time.sleep(0.1)  # let the blocker occupy the only worker
            assert queued.cancel() is True
            release.set()
            assert blocker.result(timeout=10) == "ran"
            assert queued.cancelled()

    def test_cancel_running_job_fails(self):
        """Once a job holds a worker thread, cancel() must report failure —
        that is what drives JobScheduler's tainted flag."""
        release = threading.Event()
        started = threading.Event()

        def gate(_):
            started.set()
            release.wait(10)
            return "ran"

        with AsyncExecutor(1) as executor:
            future = executor.submit(gate, 0)
            assert started.wait(10)
            assert future.cancel() is False
            release.set()
            assert future.result(timeout=10) == "ran"


class TestLifecycle:
    def test_close_waits_for_inflight_work(self):
        with AsyncExecutor(2) as executor:
            futures = [executor.submit(square_sum, i, 0) for i in range(10)]
        # context exit closed the executor; all futures settled
        assert [f.result(timeout=0) for f in futures] == [
            i * i for i in range(10)
        ]

    def test_close_is_idempotent(self):
        executor = AsyncExecutor(1)
        executor.submit(square_sum, 1, 1).result(timeout=10)
        executor.close()
        executor.close()

    def test_submit_after_close_raises(self):
        executor = AsyncExecutor(1)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit(square_sum, 1, 1)
