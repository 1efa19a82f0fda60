"""Chaos suite: the hardening claims under deterministic injected faults.

The contract being proven, per ISSUE 7: with workers raising, workers
hanging, worker processes killed mid-candidate, and the queue's sqlite
store throwing lock errors — all on a seeded, reproducible schedule —
every submitted job still reaches a terminal state, no candidate is ever
trained twice (the shared cache's claim plane holds), and the search
results are bit-identical to a fault-free run of the same specs. The
fleet under test is the one the service runs: worker processes.
"""

import sqlite3
import time
from dataclasses import replace

import pytest

from repro.api import Config, workload_to_wire
from repro.core.cache import ResultCache
from repro.core.results import SearchResult
from repro.parallel.executor import MultiprocessingExecutor
from repro.parallel.faults import (
    FaultInjectingExecutor,
    FaultInjectingJobQueue,
    FaultPlan,
)
from repro.service.jobs import TERMINAL_STATES, JobQueue
from repro.service.multiplexer import SweepMultiplexer

#: 6 candidates (k=2 over 4 gate tokens), tiny training budget; retries
#: sized so injected attempt-faults are absorbed below the job layer.
SPEC = {
    "workload": workload_to_wire("er:2:7"),
    "depths": 1,
    "config": Config(
        k_min=2, k_max=2, steps=5, num_samples=6, seed=1, retries=3
    ).to_dict(),
}
UNIQUE_CANDIDATES = 6


def persistent(fn, *args, **kwargs):
    """Test-side queue access with the same patience the multiplexer has."""
    for _ in range(60):
        try:
            return fn(*args, **kwargs)
        except sqlite3.OperationalError:
            time.sleep(0.02)
    return fn(*args, **kwargs)


def run_jobs(tmp_path, *, plan=None, specs=(SPEC, SPEC), deadline=120.0):
    """Run specs through a (possibly fault-injected) queue + multiplexer;
    returns (records, executor, multiplexer) after every job is terminal.
    ``executor.fleet_pids`` is the fleet's workers just before it closed."""
    queue_args = dict(
        lease_seconds=1.0, max_attempts=5, backoff_base=0.02, backoff_cap=0.1
    )
    fleet = executor = MultiprocessingExecutor(2)  # forked before any sqlite handle
    if plan is None:
        queue = JobQueue(tmp_path, **queue_args)
    else:
        queue = FaultInjectingJobQueue(tmp_path, plan, **queue_args)
        executor = FaultInjectingExecutor(fleet, plan)
    cache = ResultCache(tmp_path / "cache", flush_every=4, shared=True)
    multiplexer = SweepMultiplexer(
        queue, executor=executor, cache=cache, max_concurrent=2
    )
    job_ids = [persistent(queue.submit, spec) for spec in specs]
    multiplexer.start()
    try:
        expires = time.monotonic() + deadline
        while time.monotonic() < expires:
            records = [persistent(queue.get, job_id) for job_id in job_ids]
            if all(record.state in TERMINAL_STATES for record in records):
                break
            time.sleep(0.05)
    finally:
        multiplexer.stop()
        executor.fleet_pids = fleet.worker_pids()
        executor.close()
        cache.close()
        if plan is not None:
            queue._plan = None  # disarm before final inspection
        records = [queue.get(job_id) for job_id in job_ids]
        queue.close()
    return records, executor, multiplexer


class TestChaosInvariants:
    def test_faulted_run_terminates_dedups_and_matches_fault_free(self, tmp_path):
        plan = FaultPlan(
            11,
            worker_raises=0.15,
            worker_hangs=0.1,
            queue_locks=0.1,
            hang_seconds=0.02,
            max_faults_per_kind=12,
        )
        chaotic, executor, _ = run_jobs(tmp_path / "chaos", plan=plan)
        baseline, _, _ = run_jobs(tmp_path / "calm")

        # the run proves nothing unless faults actually fired
        assert plan.injected["raise"] > 0
        assert plan.injected["lock"] > 0

        # 1) every job terminated — and with this retry budget, cleanly
        assert [record.state for record in chaotic] == ["done", "done"]

        # 2) no candidate trained twice: two identical sweeps under faults
        #    still cost exactly the unique candidate set — completed counts
        #    only real (non-faulted) evaluations, so retries that produced
        #    nothing don't hide double work
        assert executor.completed == UNIQUE_CANDIDATES

        # 3) faults changed nothing about the science: identical results
        for noisy, calm in zip(chaotic, baseline):
            noisy_result = SearchResult.from_dict(noisy.result)
            calm_result = SearchResult.from_dict(calm.result)
            assert noisy_result.best_tokens == calm_result.best_tokens
            assert noisy_result.best_energy == calm_result.best_energy
            assert noisy_result.num_candidates == calm_result.num_candidates

    def test_killed_workers_cost_attempts_not_sweeps(self, tmp_path, still_running):
        """SIGKILL from inside the candidate, no ``job_timeout`` set: the
        scheduler's retry budget re-runs exactly the lost attempts, the
        sweeps finish identical to a calm run, and the fleet ends at full
        width with nothing left behind."""
        plan = FaultPlan(5, worker_kills=0.5, max_faults_per_kind=3)
        assert SPEC["config"]["job_timeout"] is None
        chaotic, executor, multiplexer = run_jobs(tmp_path / "chaos", plan=plan)
        baseline, calm_executor, _ = run_jobs(tmp_path / "calm")

        assert plan.injected["kill"] == 3
        assert [record.state for record in chaotic] == ["done", "done"]
        assert not multiplexer.slot_health()["dead"]
        assert executor.completed == UNIQUE_CANDIDATES
        for noisy, calm in zip(chaotic, baseline):
            noisy_result = SearchResult.from_dict(noisy.result)
            calm_result = SearchResult.from_dict(calm.result)
            # every candidate, not just the winner (wall-clock aside)
            assert [
                replace(e, seconds=0.0) for e in noisy_result.depth_results[0].evaluations
            ] == [
                replace(e, seconds=0.0) for e in calm_result.depth_results[0].evaluations
            ]
            assert noisy_result.best_tokens == calm_result.best_tokens
            assert noisy_result.best_energy == calm_result.best_energy
        # three workers died and three were started in their place
        assert len(executor.fleet_pids) == 2
        assert still_running(executor.fleet_pids + calm_executor.fleet_pids) == []

    def test_lock_storm_costs_latency_not_slots(self, tmp_path):
        plan = FaultPlan(23, queue_locks=0.3, max_faults_per_kind=40)
        records, _, multiplexer = run_jobs(tmp_path, plan=plan, specs=(SPEC,))
        assert plan.injected["lock"] > 0
        assert records[0].state == "done"
        # the storm was absorbed by retry, not by killing slot threads
        assert multiplexer.queue_retries > 0
        assert not multiplexer.slot_health()["dead"]

    def test_poison_spec_dead_letters_instead_of_looping(self, tmp_path):
        queue = JobQueue(
            tmp_path, lease_seconds=1.0, max_attempts=3, backoff_base=0.01
        )
        job_id = queue.submit({"workload": "bogus:1", "depths": 1, "config": {}})
        with SweepMultiplexer(queue, max_concurrent=1) as multiplexer:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                record = queue.get(job_id)
                if record.state in TERMINAL_STATES:
                    break
                time.sleep(0.05)
        assert record.state == "failed"
        assert record.error.startswith("dead-letter")
        assert record.attempts == 3
        assert multiplexer.sweeps_failed == 1
        queue.close()


class TestCancellation:
    def test_running_sweep_cancels_within_a_depth_batch(self, tmp_path):
        """Cancel must land at the next checkpoint — between evaluations —
        not after the whole multi-depth sweep finishes."""
        queue = JobQueue(tmp_path, lease_seconds=0.3)  # heartbeat every 0.1s
        spec = {
            "workload": workload_to_wire("er:2:7"),
            "depths": 3,
            "config": Config(
                k_min=1, k_max=2, steps=120, num_samples=8, seed=1
            ).to_dict(),
        }
        job_id = queue.submit(spec)
        with SweepMultiplexer(queue, max_concurrent=1) as multiplexer:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if queue.get(job_id).state == "running":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("job never started running")
            assert queue.cancel(job_id) == "cancelling"
            cancelled_at = time.monotonic()
            while time.monotonic() < deadline:
                if queue.get(job_id).state in TERMINAL_STATES:
                    break
                time.sleep(0.02)
        record = queue.get(job_id)
        assert record.state == "cancelled"
        # a 3-depth, 24-candidate, 120-step sweep takes far longer than the
        # few seconds a heartbeat + one in-flight evaluation need
        assert time.monotonic() - cancelled_at < 15
        assert multiplexer.sweeps_cancelled == 1
        queue.close()
