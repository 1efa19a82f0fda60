"""The deterministic fault harness itself: plans, injectors, seams."""

import sqlite3

import pytest

from repro.parallel.executor import ThreadExecutor
from repro.parallel.faults import (
    FaultInjectingExecutor,
    FaultInjectingJobQueue,
    FaultPlan,
    InjectedFault,
)


def double(x):
    return x * 2


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        plans = [FaultPlan(7, worker_raises=0.4) for _ in range(2)]
        draws = [[plan.should_raise() for _ in range(50)] for plan in plans]
        assert draws[0] == draws[1]
        assert any(draws[0])
        assert not all(draws[0])

    def test_streams_are_independent(self):
        """Raising one kind's rate must not shift another kind's schedule —
        otherwise chaos runs stop being comparable across configurations."""
        quiet = FaultPlan(7, worker_raises=0.4)
        noisy = FaultPlan(7, worker_raises=0.4, queue_locks=0.9)
        a = [quiet.should_raise() for _ in range(50)]
        _ = [noisy.should_lock() for _ in range(50)]
        b = [noisy.should_raise() for _ in range(50)]
        assert a == b

    def test_max_faults_caps_each_kind(self):
        plan = FaultPlan(1, worker_raises=1.0, max_faults_per_kind=3)
        fired = sum(plan.should_raise() for _ in range(10))
        assert fired == 3
        assert plan.injected["raise"] == 3
        assert plan.calls["raise"] == 10

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(1)
        assert not any(plan.should_raise() for _ in range(100))
        assert plan.injected == {"raise": 0, "hang": 0, "lock": 0, "kill": 0}

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(0, worker_raises=1.5)
        with pytest.raises(ValueError):
            FaultPlan(0, hang_seconds=-1)


class TestFaultInjectingExecutor:
    def test_injects_raises_and_counts_real_completions(self):
        plan = FaultPlan(3, worker_raises=0.3, max_faults_per_kind=5)
        executor = FaultInjectingExecutor(ThreadExecutor(2), plan)
        faults = 0
        for i in range(20):
            try:
                assert executor.submit(double, i).result() == i * 2
            except InjectedFault:
                faults += 1
        assert faults == 5
        assert executor.completed == 15
        assert plan.injected["raise"] == 5
        executor.close()

    def test_hang_burns_time_then_produces_nothing(self):
        plan = FaultPlan(3, worker_hangs=1.0, hang_seconds=0.01, max_faults_per_kind=1)
        executor = FaultInjectingExecutor(ThreadExecutor(1), plan)
        with pytest.raises(InjectedFault, match="hang"):
            executor.submit(double, 1).result()
        assert executor.submit(double, 2).result() == 4  # cap reached: clean
        assert executor.completed == 1
        executor.close()

    def test_close_propagates_taint(self):
        inner = ThreadExecutor(1)
        executor = FaultInjectingExecutor(inner, FaultPlan(0))
        executor.tainted = True
        executor.close()
        assert inner.tainted


class TestFaultInjectingJobQueue:
    def test_init_statements_never_fault(self, tmp_path):
        # rate 1.0: every post-init statement would fail — so a successful
        # construction proves schema/migration/recovery ran clean.
        queue = FaultInjectingJobQueue(tmp_path, FaultPlan(0, queue_locks=1.0))
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            queue.submit({"depths": 1})
        queue._plan = None  # disarm to close cleanly
        queue.close()

    def test_faulted_statement_leaves_state_consistent(self, tmp_path):
        plan = FaultPlan(5, queue_locks=0.5, max_faults_per_kind=10)
        queue = FaultInjectingJobQueue(tmp_path, plan)
        submitted = 0
        for _ in range(30):
            try:
                queue.submit({"depths": 1})
                submitted += 1
            except sqlite3.OperationalError:
                pass
        queue._plan = None  # disarm so the inspection below runs clean
        # all-or-nothing: every non-faulted submit is queued, no partials
        assert queue.counts()["queued"] == submitted
        assert plan.injected["lock"] >= 1
        queue.close()
