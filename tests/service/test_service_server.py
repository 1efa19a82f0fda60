"""SearchService + HTTP API: endpoint round-trips on an ephemeral port."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.api import Config, ConfigError, ServiceError, connect, search
from repro.parallel.faults import FaultInjectingExecutor, FaultPlan
from repro.service.server import SearchService, ServiceRequestError, make_http_server

SPEC = {
    "workload": "er:2:7",
    "depths": 1,
    "config": Config(k_min=2, k_max=2, steps=5, num_samples=6, seed=1).to_dict(),
}


@pytest.fixture
def service(tmp_path):
    """A running service + HTTP front end on an ephemeral port."""
    svc = SearchService(tmp_path, max_concurrent=2, workers=2)
    server = make_http_server(svc)  # port 0 → a free ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    with svc:
        yield svc, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def http(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_submit_status_result_roundtrip(self, service):
        _, base = service
        status, body = http("POST", base + "/submit", SPEC)
        assert status == 202
        job_id = body["id"]

        client = connect(base)
        result = client.wait(job_id, timeout=120)
        assert result.num_candidates == 6
        assert result.best_tokens  # a real winner came back

        status_body = client.status(job_id)
        assert status_body["state"] == "done"
        assert status_body["num_graphs"] == 2
        assert status_body["depths"] == 1

    def test_healthz_reports_fleet_and_cache(self, service):
        _, base = service
        status, body = http("GET", base + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["executor"] == "multiprocessing"
        assert body["workers"] == 2
        assert set(body["queue"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert {"hits", "misses", "evictions"} <= set(body["cache"])
        assert body["slots"] == {"configured": 2, "alive": 2, "dead": []}

    def test_healthz_flags_a_dead_slot_thread(self, tmp_path):
        svc = SearchService(tmp_path, max_concurrent=1, workers=1)
        svc.queue.submit({"workload": "er:1", "depths": 1, "config": {}})
        # A slot loop that dies of anything but transient sqlite contention
        # is a real bug; it must surface in /healthz, not vanish silently.
        def explode(*args, **kwargs):
            raise RuntimeError("claim machinery broke")

        svc.queue.claimable_tenants = explode
        svc.start()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = svc.healthz()
                if not health["ok"]:
                    break
                time.sleep(0.05)
            assert health["ok"] is False
            assert health["slots"]["alive"] == 0
            assert "claim machinery broke" in health["slots"]["dead"][0]["error"]
        finally:
            del svc.queue.claimable_tenants
            svc.stop()

    def test_result_before_done_is_409(self, service):
        svc, base = service
        # submit against a stopped multiplexer so the job stays queued
        job_id = svc.submit(SPEC)["id"]
        status, body = http("GET", base + f"/result/{job_id}")
        if status != 409:  # the sweep may already have finished — then 200
            assert status == 200
        else:
            assert "not ready" in body["error"]

    def test_unknown_job_is_404(self, service):
        _, base = service
        assert http("GET", base + "/status/nope")[0] == 404
        assert http("GET", base + "/result/nope")[0] == 404

    def test_unknown_route_is_404(self, service):
        _, base = service
        assert http("GET", base + "/bogus")[0] == 404
        assert http("POST", base + "/bogus")[0] == 404


class TestValidation:
    def test_bad_workload_rejected_at_submit(self, service):
        _, base = service
        status, body = http("POST", base + "/submit", {"workload": "bogus:1"})
        assert status == 400
        assert "workload" in body["error"]

    def test_unknown_config_field_rejected_at_submit(self, service):
        _, base = service
        status, body = http(
            "POST", base + "/submit", {"workload": "er:1", "config": {"nope": 1}}
        )
        assert status == 400
        assert "nope" in body["error"]

    def test_bad_depths_rejected_at_submit(self, service):
        _, base = service
        status, _ = http("POST", base + "/submit", {"workload": "er:1", "depths": 0})
        assert status == 400

    def test_bad_surrogate_knobs_rejected_at_submit(self, service):
        _, base = service
        status, body = http(
            "POST",
            base + "/submit",
            {
                "workload": "er:1",
                "config": {"surrogate": True, "surrogate_keep": 0.0},
            },
        )
        assert status == 400
        assert "keep_fraction" in body["error"]
        status, body = http(
            "POST",
            base + "/submit",
            {
                "workload": "er:1",
                "config": {"surrogate": True, "explore_floor": 2.0},
            },
        )
        assert status == 400
        assert "explore_floor" in body["error"]

    def test_out_of_choice_settings_rejected_at_submit(self, service):
        """The service validates what it queues: the facade's own rejection,
        word for word, as a 400 — and nothing reaches the queue."""
        svc, base = service
        for bad in (
            {"optimizer": "bogus"},
            {"mode": "bogus"},
            {"engine": "bogus"},
            {"engine": "qtensor"},
            {"batch_mode": "bogus"},
            {"k_min": 5, "k_max": 2},
            {"workers": -2},  # ignored by a service, but never a legal sweep
        ):
            with pytest.raises(ConfigError) as facade:
                Config(**bad)
            status, body = http(
                "POST", base + "/submit", {"workload": "er:1", "config": bad}
            )
            assert status == 400, bad
            assert body["error"] == f"invalid sweep spec: {facade.value}"
        assert sum(svc.queue.counts().values()) == 0

    def test_bad_retries_timeouts_and_sample_caps_rejected_at_submit(self, service):
        """Settings only the runtime or the sample cap read: a 400 with the
        facade's text, not a job id that fails, or misbehaves, later."""
        svc, base = service
        for bad in (
            {"retries": -1},
            {"job_timeout": -1},
            {"job_timeout": "nan"},
            {"num_samples": 2.5},
            {"num_samples": -1},
        ):
            config = {k: float(v) if v == "nan" else v for k, v in bad.items()}
            with pytest.raises(ConfigError) as facade:
                search("er:1", depths=1, config=Config(**config))
            with pytest.raises(ServiceRequestError) as rejected:
                svc.submit({"workload": "er:1", "config": config})
            assert rejected.value.status == 400, bad
            assert str(rejected.value) == f"invalid sweep spec: {facade.value}"
        status, body = http(
            "POST", base + "/submit", {"workload": "er:1", "config": {"retries": -1}}
        )
        assert status == 400
        assert body["error"] == "invalid sweep spec: max_retries must be >= 0, got -1"
        assert sum(svc.queue.counts().values()) == 0

    def test_malformed_workload_spec_rejected_at_submit(self, service):
        """A count or seed that is no integer is the facade's documented
        rejection, not the bare ``ValueError`` of the conversion."""
        svc, base = service
        for spec in ("er:x", "er:2:zz", "er::", "er:1.5"):
            with pytest.raises(ConfigError, match="family\\[:count\\[:seed") as facade:
                search(spec)
            with pytest.raises(ServiceRequestError) as rejected:
                svc.submit({"workload": spec})
            assert rejected.value.status == 400
            assert str(rejected.value) == f"invalid sweep spec: {facade.value}"
            assert http("POST", base + "/submit", {"workload": spec}) == (
                400, {"error": str(rejected.value)},
            )
        assert sum(svc.queue.counts().values()) == 0

    def test_settings_the_service_ignores_are_accepted_at_submit(self, service):
        """A service runs every sweep on its own fleet and store, so the
        local-execution group is dropped, not validated."""
        _, base = service
        spec = dict(SPEC)
        spec["config"] = {**SPEC["config"], "resume": True, "shards": 3, "workers": 9}
        status, body = http("POST", base + "/submit", spec)
        assert status == 202
        result = connect(base).wait(body["id"], timeout=120)
        assert result.config["shards"] == 1
        assert result.config["cache_dir"] is None

    def test_surrogate_config_accepted_at_submit(self, service):
        _, base = service
        spec = dict(SPEC)
        spec["config"] = Config(
            k_min=2, k_max=2, steps=5, num_samples=6, seed=1, surrogate=True
        ).to_dict()
        status, _ = http("POST", base + "/submit", spec)
        assert status == 202

    def test_invalid_json_body_is_400(self, service):
        _, base = service
        request = urllib.request.Request(
            base + "/submit", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


class TestHardening:
    @pytest.fixture
    def cold_service(self, tmp_path):
        """A bound HTTP front end whose multiplexer never starts: submitted
        jobs stay queued, so admission and cancellation are deterministic."""
        svc = SearchService(
            tmp_path,
            max_concurrent=1,
            workers=1,
            max_queue_depth=2,
            max_queued_per_tenant=1,
        )
        server = make_http_server(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield svc, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        svc.multiplexer._slots = []  # never started; stop() would object
        svc._executor.close()
        svc.cache.close()
        svc.queue.close()

    def test_full_queue_is_429_with_retry_after(self, cold_service):
        _, base = cold_service
        assert http("POST", base + "/submit", {**SPEC, "tenant": "a"})[0] == 202
        assert http("POST", base + "/submit", {**SPEC, "tenant": "b"})[0] == 202
        request = urllib.request.Request(
            base + "/submit",
            data=json.dumps({**SPEC, "tenant": "c"}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 429
        assert int(info.value.headers["Retry-After"]) >= 1
        assert "queue full" in json.loads(info.value.read())["error"]

    def test_tenant_backlog_quota_is_429(self, cold_service):
        _, base = cold_service
        assert http("POST", base + "/submit", {**SPEC, "tenant": "alice"})[0] == 202
        status, body = http("POST", base + "/submit", {**SPEC, "tenant": "alice"})
        assert status == 429
        assert "alice" in body["error"]
        # another tenant still gets in: the quota is per tenant, not global
        assert http("POST", base + "/submit", {**SPEC, "tenant": "bob"})[0] == 202

    def test_cancel_queued_job_via_http(self, cold_service):
        svc, base = cold_service
        job_id = http("POST", base + "/submit", SPEC)[1]["id"]
        status, body = http("POST", base + f"/cancel/{job_id}")
        assert status == 200
        assert body == {"id": job_id, "state": "cancelled"}
        assert svc.queue.get(job_id).state == "cancelled"
        # a cancelled job's result is gone for good, like a failed one
        assert http("GET", base + f"/result/{job_id}")[0] == 410

    def test_cancel_unknown_job_is_404(self, cold_service):
        _, base = cold_service
        assert http("POST", base + "/cancel/nope")[0] == 404

    def test_client_wait_surfaces_the_failure_text(self, cold_service):
        svc, base = cold_service
        client = connect(base)
        job_id = client.submit("er:1", depths=1, tenant="failer")
        svc.queue.max_attempts = 1  # the first failure dead-letters the job
        svc.queue.claim_next(owner="test", tenant="failer")
        assert svc.queue.record_failure(job_id, "ValueError: kaboom", owner="test") == "failed"
        with pytest.raises(ServiceError) as info:
            client.wait(job_id, timeout=5)
        assert "kaboom" in str(info.value)

    def test_client_cancel_and_wait_on_cancelled(self, cold_service):
        _, base = cold_service
        client = connect(base)
        job_id = client.submit("er:1", depths=1, tenant="canceller")
        assert client.cancel(job_id) == "cancelled"
        with pytest.raises(ServiceError) as info:
            client.wait(job_id, timeout=5)
        assert "cancelled" in str(info.value)

    def test_submit_carries_tenant_and_priority(self, cold_service):
        svc, base = cold_service
        _, body = http(
            "POST", base + "/submit", {**SPEC, "tenant": "alice", "priority": 7}
        )
        record = svc.queue.get(body["id"])
        assert record.tenant == "alice"
        assert record.priority == 7


def wait_for_state(svc, job_id, states=("done", "failed"), timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = svc.status(job_id)
        if status["state"] in states:
            return status
        time.sleep(0.02)
    raise TimeoutError(svc.status(job_id))


class TestProcessFleet:
    """The fleet is worker processes: one may die, one may hang — the
    service keeps its promises and leaves no process behind."""

    def test_worker_sigkilled_mid_sweep_changes_nothing_but_a_pid(
        self, tmp_path, still_running
    ):
        config = Config(k_min=1, k_max=2, steps=150, num_samples=12, seed=1)
        svc = SearchService(tmp_path, max_concurrent=1, workers=2)
        before = svc._executor.worker_pids()
        with svc:
            job_id = svc.submit(
                {"workload": "er:2:7", "depths": 2, "config": config.to_dict()}
            )["id"]
            wait_for_state(svc, job_id, states=("running",))
            deadline = time.monotonic() + 60
            while "repro_executor_running 2" not in svc.metrics_text():
                assert time.monotonic() < deadline, "fleet never got busy"
                time.sleep(0.005)
            os.kill(before[0], signal.SIGKILL)  # job_timeout is unset
            status = wait_for_state(svc, job_id)
            assert status["state"] == "done", status
            health = svc.healthz()
            assert health["ok"] and health["workers"] == 2
            after = svc._executor.worker_pids()
            assert len(after) == 2 and before[0] not in after
            served = svc.result(job_id)
        assert still_running(before + after) == []
        alone = search("er:2:7", depths=2, config=config).to_dict()
        for mine, theirs in zip(served["depth_results"], alone["depth_results"]):
            for a, b in zip(mine["evaluations"], theirs["evaluations"], strict=True):
                assert {**a, "seconds": 0} == {**b, "seconds": 0}
        assert served["best_tokens"] == alone["best_tokens"]
        assert served["best_energy"] == alone["best_energy"]

    def test_candidate_abandoned_at_job_timeout_does_not_hold_up_stop(
        self, tmp_path, still_running
    ):
        """One attempt hangs for ten minutes; ``job_timeout`` abandons it
        and the retry finishes the sweep. The hung attempt still occupies
        its worker when the service stops — stop() must kill it, not wait."""
        svc = SearchService(tmp_path, max_concurrent=1, workers=2)
        fleet = svc._executor
        pids = fleet.worker_pids()
        plan = FaultPlan(1, worker_hangs=1.0, hang_seconds=600, max_faults_per_kind=1)
        svc._executor = svc.multiplexer.executor = FaultInjectingExecutor(fleet, plan)
        config = replace(Config(**SPEC["config"]), job_timeout=2.0, retries=3)
        with svc:
            job_id = svc.submit(
                {"workload": "er:2:7", "depths": 1, "config": config.to_dict()}
            )["id"]
            status = wait_for_state(svc, job_id)
            assert status["state"] == "done", status
            assert plan.injected["hang"] == 1
            assert "repro_jobs_timed_out_total 1" in svc.metrics_text()
            assert svc.result(job_id)["config"]["jobs_retried"] >= 1
            stopping = time.monotonic()
        assert time.monotonic() - stopping < 10
        assert still_running(pids) == []


class TestClient:
    def test_client_submit_and_wait(self, service):
        _, base = service
        client = connect(base)
        config = Config(**{**Config().to_dict(), **SPEC["config"]})
        job_id = client.submit("er:2:7", depths=1, config=config)
        result = client.wait(job_id, timeout=120)
        assert result.num_candidates == 6

    def test_client_surfaces_service_errors(self, service):
        _, base = service
        client = connect(base)
        with pytest.raises(ServiceError) as info:
            client.status("nope")
        assert info.value.status == 404

    def test_two_clients_share_the_cache(self, service):
        """The end-to-end acceptance path over HTTP: identical sweeps from
        two clients are answered once from the fleet, once from sharing."""
        _, base = service
        one, two = connect(base), connect(base)
        config = Config(**SPEC["config"])
        first = one.submit("er:2:7", depths=1, config=config)
        second = two.submit("er:2:7", depths=1, config=config)
        results = [c.wait(j, timeout=120) for c, j in ((one, first), (two, second))]
        assert results[0].best_energy == results[1].best_energy
        total_hits = sum(r.config["cache_hits"] for r in results)
        total_misses = sum(r.config["cache_misses"] for r in results)
        assert total_misses == 6
        assert total_hits == 6


class TestObservability:
    """GET /metrics exposition and the status progress field."""

    def test_metrics_endpoint_round_trip(self, service):
        _, base = service
        client = connect(base)
        job_id = client.submit("er:2:7", depths=1, config=Config(**SPEC["config"]))
        client.wait(job_id, timeout=120)

        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode()
        # one exemplar per instrumented layer, scheduler histogram included
        assert "# TYPE repro_job_run_seconds histogram" in text
        assert 'repro_job_run_seconds_bucket{le="+Inf"} 6' in text
        assert "repro_jobs_completed_total 6" in text
        assert "repro_cache_misses_total 6" in text
        assert 'repro_queue_submitted_total{tenant="default"} 1' in text
        assert 'repro_sweeps_total{outcome="completed"} 1' in text
        assert "repro_executor_semaphore_wait_seconds_count" in text
        assert "repro_service_uptime_seconds" in text
        assert "repro_slots_configured 2" in text
        # Client.metrics() returns the same exposition text
        assert "repro_jobs_completed_total" in client.metrics()

    def test_progress_is_monotone_through_a_live_sweep(self, service):
        _, base = service
        client = connect(base)
        job_id = client.submit(
            "er:2:7",
            depths=2,
            config=Config(**{**SPEC["config"], "steps": 15}),
        )
        observed = []
        deadline = time.time() + 120
        while time.time() < deadline:
            status = client.status(job_id)
            progress = status.get("progress")
            if progress is not None:
                observed.append(
                    (progress["candidates_done"], progress["candidates_total"])
                )
            if status["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert status["state"] == "done"
        done_values = [done for done, _ in observed]
        assert done_values == sorted(done_values)
        totals = [total for _, total in observed]
        assert totals == sorted(totals)  # denominator grows per depth
        # the terminal snapshot is complete and kept after the sweep ends
        final = client.progress(job_id)
        assert final["candidates_done"] == final["candidates_total"] == 12
        assert final["percent"] == 100.0
        assert final["finished_at"] is not None
        assert len(final["per_depth"]) == 2

    def test_finished_sweep_gauges_are_unregistered(self, service):
        svc, base = service
        client = connect(base)
        job_id = client.submit("er:2:7", depths=1, config=Config(**SPEC["config"]))
        client.wait(job_id, timeout=120)
        text = svc.metrics_text()
        assert f'job="{job_id}"' not in text  # label hygiene
        assert client.progress(job_id) is not None  # snapshot survives

    def test_queued_job_has_no_progress(self, tmp_path):
        svc = SearchService(tmp_path, max_concurrent=1, workers=1)
        try:
            job_id = svc.submit(SPEC)["id"]  # service never started
            assert "progress" not in svc.status(job_id)
        finally:
            svc.stop()
