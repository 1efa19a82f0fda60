"""JobQueue: persistence, atomic claims, leases, retry, cancellation."""

import json
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, JobQueue

SPEC = {"workload": "er:2", "depths": 1, "config": {}}


def fast_queue(tmp_path, **kwargs):
    """A queue with sub-second lease/backoff so recovery paths are testable."""
    defaults = dict(lease_seconds=0.2, backoff_base=0.01, backoff_cap=0.05)
    return JobQueue(tmp_path, **{**defaults, **kwargs})


class TestRefusedSettings:
    @pytest.mark.parametrize("lease", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_lease_must_be_positive_and_finite(self, tmp_path, lease):
        # a NaN lease stored as NULL would never expire, and an infinite one
        # overflows the heartbeat's first wait
        with pytest.raises(ValueError, match="lease_seconds must be positive and finite"):
            JobQueue(tmp_path, lease_seconds=lease)

    def test_a_retry_budget_must_be_at_least_one_and_opens_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
            JobQueue(tmp_path / "queue", max_attempts=0)
        assert not (tmp_path / "queue").exists()


class TestLifecycle:
    def test_submit_claim_done_roundtrip(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.spec == SPEC
            assert record.tenant == "default"
            assert record.attempts == 0

            claimed = queue.claim_next()
            assert claimed.id == job_id
            assert claimed.state == "running"
            assert claimed.started_at is not None
            assert claimed.attempts == 1
            assert claimed.lease_expires is not None

            assert queue.mark_done(job_id, {"best": 1.0})
            finished = queue.get(job_id)
            assert finished.state == "done"
            assert finished.result == {"best": 1.0}
            assert finished.finished_at is not None
            assert finished.lease_expires is None

    def test_submit_done_is_one_finished_row(self, tmp_path):
        """A sweep answered at submit: done from its insert, its timestamps
        one instant, never claimed, nothing announced, and still counted as
        submitted."""
        metrics = MetricsRegistry()
        with JobQueue(tmp_path, metrics=metrics) as queue:
            generation = queue.generation
            job_id = queue.submit_done(SPEC, {"best": 1.0}, "t", 3)
            record = queue.get(job_id)
            assert (record.state, record.result, record.spec) == ("done", {"best": 1.0}, SPEC)
            assert (record.tenant, record.priority, record.attempts) == ("t", 3, 0)
            assert record.submitted_at == record.started_at == record.finished_at
            assert record.owner is None and record.lease_expires is None
            assert queue.result_text(job_id) == json.dumps({"best": 1.0})
            assert queue.claim_next() is None
            assert queue.generation == generation
            assert queue.counts()["done"] == 1
        text = metrics.render()
        assert 'repro_queue_submitted_total{tenant="t"} 1' in text
        assert "repro_queue_claim_wait_seconds_count" not in text

    def test_finish_unknown_id_raises(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            with pytest.raises(KeyError):
                queue.mark_done("nope", {})

    def test_get_unknown_id_returns_none(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            assert queue.get("nope") is None


class TestOrderingAndCounts:
    def test_claims_come_out_oldest_first(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            ids = [queue.submit({**SPEC, "n": i}) for i in range(3)]
            claimed = [queue.claim_next().id for _ in range(3)]
            assert claimed == ids
            assert queue.claim_next() is None

    def test_priority_overtakes_the_backlog(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            low = queue.submit(SPEC)
            high = queue.submit(SPEC, priority=5)
            assert queue.claim_next().id == high
            assert queue.claim_next().id == low

    def test_tenant_filter_and_counts(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            queue.submit(SPEC, tenant="alice")
            bob = queue.submit(SPEC, tenant="bob")
            assert sorted(queue.claimable_tenants()) == ["alice", "bob"]
            assert queue.claim_next(tenant="bob").id == bob
            assert queue.claimable_tenants() == ["alice"]
            by_tenant = queue.counts_by_tenant()
            assert by_tenant["alice"]["queued"] == 1
            assert by_tenant["bob"]["running"] == 1

    def test_counts_zero_filled(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            assert queue.counts() == dict.fromkeys(JOB_STATES, 0)
            queue.submit(SPEC)
            queue.submit(SPEC)
            queue.claim_next()
            counts = queue.counts()
            assert counts["queued"] == 1
            assert counts["running"] == 1
            assert len(queue) == 2

    def test_concurrent_claims_never_double_claim(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            for i in range(20):
                queue.submit({**SPEC, "n": i})
            claimed = []
            lock = threading.Lock()

            def worker():
                while True:
                    job = queue.claim_next()
                    if job is None:
                        return
                    with lock:
                        claimed.append(job.id)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(claimed) == 20
            assert len(set(claimed)) == 20


class TestLeases:
    def test_leased_job_is_not_reclaimable_before_expiry(self, tmp_path):
        with fast_queue(tmp_path, lease_seconds=30.0) as queue:
            queue.submit(SPEC)
            assert queue.claim_next(owner="one") is not None
            assert queue.claim_next(owner="two") is None

    def test_expired_lease_is_reclaimed_by_a_live_owner(self, tmp_path):
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="wedged")
            time.sleep(0.25)  # lease_seconds=0.2 elapses, no heartbeat
            reclaimed = queue.claim_next(owner="live")
            assert reclaimed.id == job_id
            assert reclaimed.owner == "live"
            assert reclaimed.attempts == 2

    def test_heartbeat_renews_the_lease(self, tmp_path):
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="slot")
            for _ in range(4):
                time.sleep(0.1)
                assert queue.heartbeat(job_id, "slot") == "ok"
            # 0.4s elapsed > lease_seconds, but renewals kept it alive
            assert queue.claim_next(owner="thief") is None

    def test_heartbeat_reports_lost_after_reclaim(self, tmp_path):
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="wedged")
            time.sleep(0.25)
            queue.claim_next(owner="live")
            assert queue.heartbeat(job_id, "wedged") == "lost"
            assert queue.heartbeat(job_id, "live") == "ok"

    def test_stale_owner_cannot_clobber_the_new_outcome(self, tmp_path):
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="wedged")
            time.sleep(0.25)
            queue.claim_next(owner="live")
            assert queue.mark_done(job_id, {"late": True}, owner="wedged") is False
            assert queue.get(job_id).state == "running"
            assert queue.mark_done(job_id, {"real": True}, owner="live")
            assert queue.get(job_id).result == {"real": True}


class TestRetryAndDeadLetter:
    def test_record_failure_requeues_with_backoff(self, tmp_path):
        with fast_queue(tmp_path, backoff_base=0.15, max_attempts=3) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="slot")
            assert queue.record_failure(job_id, "boom", owner="slot") == "queued"
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.error == "boom"
            assert record.not_before > time.time()
            assert queue.claim_next() is None  # backoff still running
            time.sleep(0.2)
            assert queue.claim_next().id == job_id

    def test_attempt_budget_dead_letters(self, tmp_path):
        with fast_queue(tmp_path, max_attempts=2) as queue:
            job_id = queue.submit(SPEC)
            for attempt in range(2):
                time.sleep(0.03)  # clear the previous attempt's backoff
                assert queue.claim_next(owner="slot").id == job_id
                outcome = queue.record_failure(job_id, f"boom {attempt}", owner="slot")
            assert outcome == "failed"
            record = queue.get(job_id)
            assert record.state == "failed"
            assert record.error.startswith("dead-letter")
            assert record.attempts == 2

    def test_a_dead_letter_keeps_the_last_error_and_no_result(self, tmp_path):
        with fast_queue(tmp_path, max_attempts=1) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="slot")
            assert queue.record_failure(job_id, "ValueError: boom", owner="slot") == "failed"
            record = queue.get(job_id)
            assert record.state == "failed"
            assert record.error.endswith("last error: ValueError: boom")
            assert record.result is None
            assert record.finished_at is not None
            assert record.lease_expires is None

    def test_a_failure_reported_by_a_lost_owner_changes_nothing(self, tmp_path):
        with fast_queue(tmp_path, max_attempts=1) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="holder")
            assert queue.record_failure(job_id, "boom", owner="stranger") == "lost"
            record = queue.get(job_id)
            assert record.state == "running"
            assert record.owner == "holder"
            assert record.error is None

    def test_claim_dead_letters_an_exhausted_expired_job(self, tmp_path):
        """A job whose holder died on its last allowed attempt must not run
        again: the reclaim itself dead-letters it."""
        with fast_queue(tmp_path, max_attempts=1) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="died")
            time.sleep(0.25)
            assert queue.claim_next(owner="live") is None
            record = queue.get(job_id)
            assert record.state == "failed"
            assert record.error.startswith("dead-letter")

    def test_requeue_refunds_the_attempt(self, tmp_path):
        with fast_queue(tmp_path, max_attempts=1) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="slot")
            assert queue.requeue(job_id, owner="slot")
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.attempts == 0
            # a full attempt budget remains: the job can still run and win
            assert queue.claim_next().id == job_id
            assert queue.mark_done(job_id, {"ok": True})


class TestCancellation:
    def test_cancel_queued_is_immediate(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            assert queue.cancel(job_id) == "cancelled"
            assert queue.get(job_id).state == "cancelled"
            assert queue.claim_next() is None

    def test_cancel_running_is_cooperative(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="slot")
            assert queue.cancel(job_id) == "cancelling"
            assert queue.get(job_id).state == "running"
            assert queue.heartbeat(job_id, "slot") == "cancel"
            assert queue.mark_cancelled(job_id, owner="slot")
            assert queue.get(job_id).state == "cancelled"

    def test_cancelled_while_holder_was_dead_resolves_at_reclaim(self, tmp_path):
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="died")
            queue.cancel(job_id)
            time.sleep(0.25)
            assert queue.claim_next(owner="live") is None
            assert queue.get(job_id).state == "cancelled"

    def test_cancel_terminal_reports_state_unchanged(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next()
            queue.mark_done(job_id, {})
            assert queue.cancel(job_id) == "done"
            assert queue.get(job_id).state == "done"

    def test_cancel_unknown_id_raises(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            with pytest.raises(KeyError):
                queue.cancel("nope")


class TestPersistence:
    def test_queue_survives_reopen(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
        with JobQueue(tmp_path) as queue:
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.spec == SPEC

    def test_killed_holders_job_recovers_via_lease_expiry(self, tmp_path):
        """A job mid-run when the service died stays leased across the
        reopen and becomes claimable once the lease expires; its partial
        work lives in the shared result cache."""
        with fast_queue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next(owner="killed")
            # no mark_done — simulate the process dying here
        with fast_queue(tmp_path) as queue:
            assert queue.get(job_id).state == "running"  # lease still held
            time.sleep(0.25)
            reclaimed = queue.claim_next(owner="restarted")
            assert reclaimed.id == job_id
            assert reclaimed.owner == "restarted"

    def test_legacy_leaseless_running_rows_requeue_at_open(self, tmp_path):
        """Pre-lease stores have running rows with no lease deadline; those
        can never expire, so the reopen itself requeues them."""
        with JobQueue(tmp_path) as queue:
            job_id = queue.submit(SPEC)
            queue.claim_next()
            queue._conn.execute(
                "UPDATE jobs SET lease_expires = NULL WHERE id = ?", (job_id,)
            )
            queue._conn.commit()
        with JobQueue(tmp_path) as queue:
            record = queue.get(job_id)
            assert record.state == "queued"
            assert record.started_at is None
            assert queue.claim_next().id == job_id

    def test_finished_jobs_stay_finished_across_reopen(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            done_id = queue.submit(SPEC)
            queue.claim_next()
            queue.mark_done(done_id, {"ok": True})
        with JobQueue(tmp_path) as queue:
            assert queue.get(done_id).state == "done"
            assert queue.claim_next() is None
            assert set(TERMINAL_STATES) <= set(queue.counts())
