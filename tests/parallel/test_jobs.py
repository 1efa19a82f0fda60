"""Fault-tolerant job scheduler: streaming, retry, timeout, crash recovery."""

import os
import time
from concurrent.futures import Future

import pytest

from repro.parallel import jobs as jobs_module
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import MultiprocessingExecutor, SerialExecutor, ThreadExecutor
from repro.parallel.jobs import JobFailedError, JobScheduler, ShardFailedError


def square_sum(a, b):
    return a * a + b


def crash_once_then_pid(flag_path):
    """Hard-kill the worker process on the first attempt (no exception, no
    callback — the pool just loses the task), succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("attempted")
        os._exit(1)
    return os.getpid()


JOBS = [(i, i + 1) for i in range(10)]
EXPECTED = [i * i + i + 1 for i in range(10)]


class FlakyFunction:
    """Raises on the first ``failures`` calls per job, then succeeds."""

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = {}

    def __call__(self, index):
        count = self.calls.get(index, 0) + 1
        self.calls[index] = count
        if count <= self.failures:
            raise RuntimeError(f"transient fault on job {index} call {count}")
        return index * 10


class TestOrderedRun:
    @pytest.mark.parametrize("executor_factory", [SerialExecutor, lambda: ThreadExecutor(2)])
    def test_matches_starmap(self, executor_factory):
        with executor_factory() as executor:
            assert JobScheduler(executor).run(square_sum, JOBS) == EXPECTED

    def test_multiprocessing_matches_starmap(self):
        with MultiprocessingExecutor(2) as executor:
            assert JobScheduler(executor).run(square_sum, JOBS) == EXPECTED

    def test_empty_jobs(self):
        assert JobScheduler().run(square_sum, []) == []

    def test_default_executor_is_serial(self):
        scheduler = JobScheduler()
        assert scheduler.executor.name == "serial"
        assert scheduler.run(square_sum, JOBS) == EXPECTED


class TestStreaming:
    def test_yields_every_index_once(self):
        seen = dict(JobScheduler().as_completed(square_sum, JOBS))
        assert sorted(seen) == list(range(len(JOBS)))
        assert [seen[i] for i in range(len(JOBS))] == EXPECTED

    def test_completion_order_not_submission_order(self):
        def slow_first(delay):
            time.sleep(delay)
            return delay

        with ThreadExecutor(2) as executor:
            scheduler = JobScheduler(executor)
            order = [i for i, _ in scheduler.as_completed(slow_first, [(0.3,), (0.01,)])]
        assert order == [1, 0]


class TestRetry:
    def test_transient_failure_retried(self):
        flaky = FlakyFunction(failures=1)
        results = JobScheduler(max_retries=1).run(flaky, [(i,) for i in range(4)])
        assert results == [0, 10, 20, 30]
        assert all(count == 2 for count in flaky.calls.values())

    def test_stats_account_for_retries(self):
        flaky = FlakyFunction(failures=2)
        scheduler = JobScheduler(max_retries=2)
        scheduler.run(flaky, [(0,)])
        assert scheduler.stats.submitted == 3
        assert scheduler.stats.retried == 2
        assert scheduler.stats.completed == 1
        assert scheduler.stats.failed == 0

    def test_exhausted_retries_raise(self):
        flaky = FlakyFunction(failures=99)
        scheduler = JobScheduler(max_retries=1)
        with pytest.raises(JobFailedError, match="job 0 failed after 2"):
            scheduler.run(flaky, [(0,)])
        assert scheduler.stats.failed == 1

    def test_zero_retries_fail_fast(self):
        with pytest.raises(JobFailedError, match="after 1 attempt"):
            JobScheduler(max_retries=0).run(FlakyFunction(), [(0,)])

    def test_cause_preserved(self):
        try:
            JobScheduler(max_retries=0).run(FlakyFunction(), [(0,)])
        except JobFailedError as error:
            assert isinstance(error.cause, RuntimeError)
            assert "transient fault" in str(error.cause)
        else:  # pragma: no cover
            pytest.fail("expected JobFailedError")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            JobScheduler(max_retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            JobScheduler(timeout=0)


class TestTimeout:
    def test_slow_attempt_abandoned_and_retried(self):
        class SlowOnce:
            def __init__(self):
                self.calls = 0

            def __call__(self, value):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(5.0)
                return value

        slow_once = SlowOnce()
        with ThreadExecutor(2) as executor:
            scheduler = JobScheduler(executor, max_retries=1, timeout=0.2)
            assert scheduler.run(slow_once, [(42,)]) == [42]
        assert scheduler.stats.timed_out == 1
        assert scheduler.stats.retried == 1
        assert executor.tainted  # abandoned attempt marks the pool

    def test_tainted_thread_pool_closes_promptly(self):
        def hang_forever(_):
            time.sleep(60.0)

        start = time.perf_counter()
        with ThreadExecutor(1) as executor:
            scheduler = JobScheduler(executor, max_retries=0, timeout=0.1)
            with pytest.raises(JobFailedError):
                scheduler.run(hang_forever, [(0,)])
        # close() must not join the abandoned, still-sleeping worker thread
        assert time.perf_counter() - start < 5.0

    def test_timeout_exhaustion_raises(self):
        def sleepy(_):
            time.sleep(5.0)

        with ThreadExecutor(2) as executor:
            scheduler = JobScheduler(executor, max_retries=0, timeout=0.1)
            with pytest.raises(JobFailedError) as excinfo:
                scheduler.run(sleepy, [(0,)])
        assert isinstance(excinfo.value.cause, TimeoutError)


class TestFailureDrainsFinishedWork:
    def test_successes_in_same_batch_yielded_before_raise(self):
        """Regression: when one job in a completion batch exhausts its
        retries, the other finished jobs in that batch must still be
        yielded (reach the caller's cache) before JobFailedError."""

        def poisoned_zero(index):
            if index == 0:
                raise RuntimeError("poisoned candidate")
            return index * 10

        # Serial executor: all inline futures complete in the same batch,
        # so the poisoned job and the successes land in one `done` set.
        scheduler = JobScheduler(max_retries=0)
        yielded = []
        with pytest.raises(JobFailedError, match="job 0"):
            for index, result in scheduler.as_completed(
                poisoned_zero, [(i,) for i in range(4)]
            ):
                yielded.append((index, result))
        assert sorted(yielded) == [(1, 10), (2, 20), (3, 30)]
        assert scheduler.stats.completed == 3
        assert scheduler.stats.failed == 1


class TestExpireTaint:
    def test_cancelled_queued_attempt_keeps_pool_clean(self):
        """Regression: a timed-out attempt whose future cancels cleanly
        (it never started running) must NOT taint the executor — the pool
        is still joinable."""
        with ThreadExecutor(1) as executor:
            executor.submit(time.sleep, 0.5)  # occupy the only worker
            scheduler = JobScheduler(executor, max_retries=8, timeout=0.15)
            # The job expires (repeatedly) while queued behind the sleeper;
            # each expiry cancels a not-yet-started future.
            assert scheduler.run(square_sum, [(2, 1)]) == [5]
            assert scheduler.stats.timed_out >= 1
            assert not executor.tainted

    def test_running_attempt_still_taints(self):
        def hang(_):
            time.sleep(5.0)

        with ThreadExecutor(1) as executor:
            scheduler = JobScheduler(executor, max_retries=0, timeout=0.1)
            with pytest.raises(JobFailedError):
                scheduler.run(hang, [(0,)])
            assert executor.tainted


class TestBoundedInflight:
    def test_submissions_stream_with_results(self, monkeypatch):
        """At most INFLIGHT_PER_WORKER attempts per worker are outstanding:
        by the first yielded result, the full 10-job bag has not been
        enqueued."""
        monkeypatch.setattr(jobs_module, "INFLIGHT_PER_WORKER", 2)
        scheduler = JobScheduler()
        seen_submitted = []
        for _ in scheduler.as_completed(square_sum, JOBS):
            seen_submitted.append(scheduler.stats.submitted)
        assert seen_submitted[0] == 2  # not 10: deadline clocks stay honest
        assert seen_submitted[-1] == len(JOBS)
        assert scheduler.stats.completed == len(JOBS)

    def test_default_limit_scales_with_workers(self):
        with ThreadExecutor(3) as executor:
            scheduler = JobScheduler(executor)
            assert scheduler.run(square_sum, JOBS) == EXPECTED


class TestWorkerCrash:
    def test_killed_worker_does_not_stall_the_search(self, tmp_path):
        """A worker that dies mid-job drops the task silently in
        ``multiprocessing.Pool``; the deadline + retry path must recover."""
        flag = str(tmp_path / "crashed.flag")
        with MultiprocessingExecutor(2) as executor:
            scheduler = JobScheduler(executor, max_retries=2, timeout=3.0)
            [pid] = scheduler.run(crash_once_then_pid, [(flag,)])
        assert pid > 0
        assert os.path.exists(flag)
        assert scheduler.stats.retried >= 1


class Recording(SerialExecutor):
    """Remembers the first argument of every job it is handed; raises from
    ``submit`` once ``survive`` jobs went through (a node falling over)."""

    def __init__(self, survive=None):
        self.seen = []
        self.survive = survive

    def submit(self, fn, *args):
        if self.survive is not None and len(self.seen) >= self.survive:
            raise RuntimeError("node unreachable")
        self.seen.append(args[0])
        return super().submit(fn, *args)


class Stuck(SerialExecutor):
    """Hands out futures a worker holds and never finishes."""

    def __init__(self):
        self.seen = []

    def submit(self, fn, *args):
        self.seen.append(args[0])
        future = Future()
        future.set_running_or_notify_cancel()
        return future


def identity(value):
    return value


class TestLanes:
    """A sequence of executors: one lane per executor, one loop over all."""

    COSTS = [5.0, 1.0, 4.0, 2.0, 2.0, 3.0, 1.0]
    VALUES = [(i,) for i in range(len(COSTS))]

    def test_placement_is_least_loaded_partition_of_the_costs(self):
        lanes = [Recording(), Recording(), Recording()]
        scheduler = JobScheduler(lanes)
        seen = dict(scheduler.as_completed(identity, self.VALUES, self.COSTS))
        assert seen == {i: i for i in range(len(self.COSTS))}
        bins = least_loaded_partition(self.COSTS, 3)
        assert [lane.seen for lane in lanes] == bins  # heaviest first within a lane
        assert scheduler.lane_of == {i: b for b, items in enumerate(bins) for i in items}
        assert (scheduler.dead_lanes, scheduler.migrated) == ([], 0)

    def test_equal_costs_by_default(self):
        lanes = [Recording(), Recording()]
        assert JobScheduler(lanes).run(identity, self.VALUES) == list(range(7))
        assert [lane.seen for lane in lanes] == [[0, 2, 4, 6], [1, 3, 5]]

    def test_inflight_bound_holds_per_lane(self):
        """4 x num_workers per lane: a one-worker lane never holds more than
        four attempts while its three-worker neighbour holds up to twelve."""
        high_water = {}

        class Watched(ThreadExecutor):
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                mine = scheduler.lanes[scheduler.executors.index(self)].pending
                high_water[self.num_workers] = max(
                    high_water.get(self.num_workers, 0), len(mine) + 1
                )
                return future

        with Watched(1) as narrow, Watched(3) as wide:
            scheduler = JobScheduler([narrow, wide])
            jobs = [(0.002,)] * 60
            assert len(scheduler.run(time.sleep, jobs)) == 60
        assert high_water == {1: 4, 3: 12}

    def test_lane_whose_submit_raises_migrates_only_its_unfinished_jobs(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "INFLIGHT_PER_WORKER", 1)
        dying, survivor = Recording(survive=5), Recording()
        scheduler = JobScheduler([dying, survivor])
        jobs = [(i,) for i in range(12)]
        assert scheduler.run(identity, jobs) == list(range(12))
        # Jobs 0,2,4,6,8 finished on the dying lane before it fell over and
        # are not run again; only its sixth job (10) moves.
        assert dying.seen == [0, 2, 4, 6, 8]
        assert sorted(survivor.seen) == [1, 3, 5, 7, 9, 10, 11]
        assert (scheduler.dead_lanes, scheduler.migrated) == ([0], 1)
        assert scheduler.lane_of[10] == 1 and scheduler.lane_of[8] == 0
        assert scheduler.stats.submitted == scheduler.stats.completed == 12

    def test_dead_lane_stays_dead_for_later_passes(self):
        dying, survivor = Recording(survive=0), Recording()
        scheduler = JobScheduler([dying, survivor])
        assert scheduler.run(identity, [(0,), (1,)]) == [0, 1]
        assert scheduler.run(identity, [(2,), (3,)]) == [2, 3]
        assert survivor.seen == [1, 0, 2, 3]
        assert (scheduler.dead_lanes, scheduler.migrated) == ([0], 1)

    def test_hanging_lane_dies_at_its_deadline_and_taints_its_executor(self):
        stuck, survivor = Stuck(), Recording()
        scheduler = JobScheduler([stuck, survivor], max_retries=1, timeout=0.05)
        start = time.perf_counter()
        assert scheduler.run(identity, self.VALUES) == list(range(7))
        assert 0.1 <= time.perf_counter() - start < 2.0  # two attempts' deadlines
        assert stuck.tainted and not survivor.tainted
        assert scheduler.dead_lanes == [0]
        assert scheduler.migrated == len(set(stuck.seen)) == 4
        assert scheduler.stats.retried >= 1 and scheduler.stats.timed_out >= 2
        assert sorted(survivor.seen) == list(range(7))

    def test_last_lane_death_raises_shard_failed_with_the_cause(self):
        scheduler = JobScheduler([Recording(survive=1), Recording(survive=2)])
        yielded = []
        with pytest.raises(ShardFailedError, match=r"all 2 shard\(s\) died") as excinfo:
            for index, _ in scheduler.as_completed(identity, self.VALUES):
                yielded.append(index)
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert excinfo.value.__cause__ is excinfo.value.cause
        assert scheduler.dead_lanes == [0, 1]
        with pytest.raises(ShardFailedError):  # and nothing revives them
            scheduler.run(identity, self.VALUES)

    def test_finished_jobs_of_the_batch_are_yielded_before_the_raise_across_lanes(self):
        def poisoned_zero(index):
            if index == 0:
                raise RuntimeError("poisoned candidate")
            return index * 10

        healthy = Recording()
        scheduler = JobScheduler([Recording(), healthy], max_retries=0)
        yielded = []
        with pytest.raises(JobFailedError, match="job 0 failed after 1") as excinfo:
            for item in scheduler.as_completed(poisoned_zero, [(i,) for i in range(6)]):
                yielded.append(item)
        # One batch: lane 0 ran 0,2,4 and lane 1 ran 1,3,5 inline.
        assert sorted(yielded) == [(i, i * 10) for i in range(1, 6)]
        assert isinstance(excinfo.value.cause, RuntimeError)
        # A candidate's own failure is not the node's: nobody died.
        assert (scheduler.dead_lanes, scheduler.migrated) == ([], 0)
        assert not healthy.tainted

    def test_one_lane_exceptions_are_the_single_executor_ones(self):
        """Built with one lane nothing is survivable and nothing is wrapped:
        ``submit``'s own exception (Ctrl-C included) and the timeout
        ``JobFailedError`` arrive exactly as from a bare executor."""
        for lanes in (Recording(survive=2), [Recording(survive=2)]):
            with pytest.raises(RuntimeError, match="^node unreachable$"):
                JobScheduler(lanes).run(identity, self.VALUES)

        class Interrupted(SerialExecutor):
            def submit(self, fn, *args):
                raise KeyboardInterrupt("simulated kill")

        for lanes in ([Interrupted()], [Interrupted(), SerialExecutor()]):
            with pytest.raises(KeyboardInterrupt):
                JobScheduler(lanes).run(identity, self.VALUES)

        messages = []
        for lanes in (Stuck(), [Stuck()]):
            scheduler = JobScheduler(lanes, max_retries=0, timeout=0.05)
            with pytest.raises(JobFailedError) as excinfo:
                scheduler.run(identity, [(0,)])
            assert isinstance(excinfo.value.cause, TimeoutError)
            assert scheduler.dead_lanes == []
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("job 0 failed after 1 attempt(s): TimeoutError(")

    def test_closing_the_generator_submits_nothing_more(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "INFLIGHT_PER_WORKER", 2)
        lanes = [Recording(), Recording()]
        stream = JobScheduler(lanes).as_completed(identity, self.VALUES)
        next(stream)
        stream.close()
        assert [len(lane.seen) for lane in lanes] == [2, 2]
