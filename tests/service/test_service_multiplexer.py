"""SweepMultiplexer: concurrent sweeps over one fleet and one cache."""

import threading
import time

import pytest

from repro.api import Config
from repro.core.cache import ResultCache
from repro.parallel.executor import MultiprocessingExecutor, SerialExecutor
from repro.service import multiplexer as multiplexer_module
from repro.service.jobs import JobQueue
from repro.service.multiplexer import SweepMultiplexer, _Slot

#: small but non-trivial: 6 candidates, 2 graphs, quick optimizer budget
SPEC = {
    "workload": "er:2:7",
    "depths": 1,
    "config": Config(k_min=2, k_max=2, steps=5, num_samples=6, seed=1).to_dict(),
}


def wait_until(queue, job_ids, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        records = [queue.get(job_id) for job_id in job_ids]
        if all(r.state in ("done", "failed") for r in records):
            return records
        time.sleep(0.05)
    raise TimeoutError([queue.get(job_id).state for job_id in job_ids])


class TestExecution:
    def test_runs_a_job_end_to_end(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            with SweepMultiplexer(queue, max_concurrent=1):
                (record,) = wait_until(queue, [job_id])
            assert record.state == "done", record.error
            assert record.result["format"] == "repro-search-result-v3"
            evaluated = sum(
                len(d["evaluations"]) for d in record.result["depth_results"]
            )
            assert evaluated == 6

    def test_bad_spec_fails_the_job_not_the_slot(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            bad = queue.submit({"workload": "nonsense:1", "depths": 1})
            good = queue.submit(SPEC)
            with SweepMultiplexer(queue, max_concurrent=1) as mux:
                bad_rec, good_rec = wait_until(queue, [bad, good])
            assert bad_rec.state == "failed"
            assert "nonsense" in bad_rec.error
            assert good_rec.state == "done", good_rec.error
            assert mux.sweeps_failed == 1
            assert mux.sweeps_completed == 1


class TestSharedCache:
    def test_concurrent_identical_sweeps_share_one_cache(self, tmp_path):
        """The ISSUE's acceptance demo: two sweeps over the same workload
        fingerprint, one shared fleet, one shared cache — identical
        results, and the hit accounting proves candidates were trained
        once and shared, not evaluated twice."""
        with (
            MultiprocessingExecutor(2) as executor,
            JobQueue(tmp_path) as queue,
            ResultCache(tmp_path / "cache", shared=True, flush_every=2) as cache,
        ):
            first = queue.submit(SPEC)
            second = queue.submit(SPEC)
            with SweepMultiplexer(
                queue, executor=executor, cache=cache, max_concurrent=2
            ):
                records = wait_until(queue, [first, second])

            assert [r.state for r in records] == ["done", "done"], [
                r.error for r in records
            ]
            a, b = (r.result for r in records)
            # single-sweep-identical results
            assert a["best_energy"] == b["best_energy"]
            assert a["best_tokens"] == b["best_tokens"]
            energies = [
                sorted(e["energy"] for e in r["depth_results"][0]["evaluations"])
                for r in (a, b)
            ]
            assert energies[0] == energies[1]  # every candidate, not just the best
            # every candidate evaluated exactly once across both sweeps
            hits = [r["config"]["cache_hits"] for r in (a, b)]
            misses = [r["config"]["cache_misses"] for r in (a, b)]
            assert sum(misses) == 6  # the candidate space, paid once total
            assert sum(hits) == 6  # ...and shared once
            assert sum(hits) + sum(misses) == 2 * 6

    def test_sequential_sweeps_reuse_the_store(self, tmp_path):
        with (
            JobQueue(tmp_path) as queue,
            ResultCache(tmp_path / "cache", shared=True) as cache,
        ):
            with SweepMultiplexer(queue, cache=cache, max_concurrent=1):
                first = queue.submit(SPEC)
                (rec1,) = wait_until(queue, [first])
                second = queue.submit(SPEC)
                (rec2,) = wait_until(queue, [second])
            assert rec1.result["config"]["cache_misses"] == 6
            assert rec2.result["config"]["cache_hits"] == 6
            assert rec2.result["config"]["cache_misses"] == 0


class TestFairness:
    def test_tenants_interleave_instead_of_fifo(self, tmp_path):
        """4 jobs from tenant a submitted before 2 from tenant b: strict
        oldest-first would run all of a's first; weighted round-robin puts
        both of b's jobs in the first four claims."""
        with (
            JobQueue(tmp_path) as queue,
            ResultCache(tmp_path / "cache", shared=True) as cache,
        ):
            ids = [queue.submit(SPEC, tenant="a") for _ in range(4)]
            ids += [queue.submit(SPEC, tenant="b") for _ in range(2)]
            with SweepMultiplexer(queue, cache=cache, max_concurrent=1):
                records = wait_until(queue, ids)
            assert all(r.state == "done" for r in records), [
                r.error for r in records
            ]
            started = sorted(records, key=lambda r: r.started_at)
            first_four = [r.tenant for r in started[:4]]
            assert first_four.count("b") == 2

    def test_max_running_per_tenant_caps_slot_share(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            ids = [queue.submit(SPEC, tenant="hog") for _ in range(3)]
            with SweepMultiplexer(
                queue, max_concurrent=2, max_running_per_tenant=1
            ):
                deadline = time.monotonic() + 120
                peak = 0
                while time.monotonic() < deadline:
                    counts = queue.counts_by_tenant().get("hog", {})
                    peak = max(peak, counts.get("running", 0))
                    if counts.get("done", 0) == 3:
                        break
                    time.sleep(0.02)
            assert peak == 1  # never two slots on one tenant
            assert [queue.get(i).state for i in ids] == ["done"] * 3

    def test_quota_check_and_claim_are_one_step(self, tmp_path):
        """Force the interleaving the test above only hopes for: both
        slots read the tenant's running count before either claims. With
        check and claim under one lock the second reader cannot start
        until the first has claimed, so it sees the tenant at its cap."""
        with JobQueue(tmp_path) as queue:
            for _ in range(2):
                queue.submit(SPEC, tenant="hog")
            mux = SweepMultiplexer(
                queue, executor=SerialExecutor(), max_concurrent=2, max_running_per_tenant=1
            )
            both_have_read = threading.Barrier(2)
            counts_by_tenant = queue.counts_by_tenant

            def read_then_rendezvous():
                counts = counts_by_tenant()
                try:
                    both_have_read.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass  # the sibling is (correctly) held outside the check
                return counts

            queue.counts_by_tenant = read_then_rendezvous
            claimed = []
            slots = [
                threading.Thread(target=lambda s=slot: claimed.append(mux._claim(s)))
                for slot in (_Slot("slot-0"), _Slot("slot-1"))
            ]
            for thread in slots:
                thread.start()
            for thread in slots:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in slots)
            del queue.counts_by_tenant
            assert sum(job is not None for job in claimed) == 1
            assert queue.counts_by_tenant()["hog"]["running"] == 1


class TestGracefulDrain:
    def test_drain_deadline_requeues_the_job_unharmed(self, tmp_path):
        slow = {
            "workload": "er:2:7",
            "depths": 3,
            "config": Config(
                k_min=1, k_max=2, steps=150, num_samples=8, seed=1
            ).to_dict(),
        }
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(slow)
            mux = SweepMultiplexer(queue, max_concurrent=1, drain_timeout=0.2)
            mux.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if queue.get(job_id).state == "running":
                    break
                time.sleep(0.02)
            mux.stop()  # drain expires long before the 24-candidate sweep
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.attempts == 0  # the aborted attempt was refunded
            assert mux.sweeps_requeued == 1


class TestRefusedSettings:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_tenant_weight_must_be_positive_and_finite(self, tmp_path, weight):
        # nan or inf would give tenant a every claim; 0 or -1 would give it none
        with JobQueue(tmp_path) as queue:
            with pytest.raises(ValueError, match="tenant weights must be positive and finite"):
                SweepMultiplexer(queue, executor=SerialExecutor(), tenant_weights={"a": weight})

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0])
    def test_a_drain_timeout_must_be_finite_and_not_negative(self, tmp_path, timeout):
        # nan would drain for zero seconds; inf overflows Thread.join
        with JobQueue(tmp_path) as queue:
            with pytest.raises(ValueError, match="drain_timeout must be finite and >= 0"):
                SweepMultiplexer(queue, executor=SerialExecutor(), drain_timeout=timeout)

    def test_a_weight_splits_claims_by_its_ratio(self):
        stride = multiplexer_module._TenantStride({"a": 2.0})
        picks = [stride.pick(["a", "b"]) for _ in range(30)]
        assert (picks.count("a"), picks.count("b")) == (20, 10)


class TestLifecycle:
    def test_stop_is_clean_with_empty_queue(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiplexer_module, "POLL_INTERVAL", 0.01)
        with JobQueue(tmp_path) as queue:
            mux = SweepMultiplexer(queue, max_concurrent=2)
            mux.start()
            time.sleep(0.05)
            mux.stop()

    def test_start_twice_raises(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            with SweepMultiplexer(queue, max_concurrent=1) as mux:
                try:
                    mux.start()
                except RuntimeError as error:
                    assert "started" in str(error)
                else:  # pragma: no cover - the assertion above must fire
                    raise AssertionError("second start() did not raise")
