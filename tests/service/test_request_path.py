"""The request path of ``repro serve``: a submit wakes the fleet, a client
keeps its connection, a poll decodes nothing, and none of it grows with
the number of sweeps the service has ever finished."""

import http.client
import json
import re
import select
import sqlite3
import sys
import threading
import time

import pytest

import repro.api as api
from repro.api import Config, ServiceError, connect, search
from repro.core.results import SearchResult
from repro.parallel.executor import SerialExecutor
from repro.service.jobs import JobQueue
from repro.service.multiplexer import SweepMultiplexer
from repro.service.server import SearchService, make_http_server

SPEC = {"workload": "er:1:7", "depths": 1, "config": Config(steps=5).to_dict()}


class _Answer:
    def to_dict(self) -> dict:
        return {"stub": True}


class StubMultiplexer(SweepMultiplexer):
    """Claims, leases and outcomes are the real ones; a sweep is a sleep
    (``spec["sleep"]``) that fails on the attempts listed in
    ``spec["fail_attempts"]``."""

    def __init__(self, queue, **kwargs):
        super().__init__(queue, executor=SerialExecutor(), **kwargs)
        self.runs: dict[str, int] = {}

    def run_spec(self, spec, *, cancel=None, progress=None):
        name = spec.get("name", "")
        attempt = self.runs[name] = self.runs.get(name, 0) + 1
        time.sleep(spec.get("sleep", 0.0))
        if attempt in spec.get("fail_attempts", ()):
            raise RuntimeError("scheduled failure")
        return _Answer()


def finished(queue, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = queue.peek(job_id)
        if record.state in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.005)
    raise TimeoutError(f"job {job_id} still {queue.peek(job_id).state}")


class TestWake:
    def test_a_submit_starts_at_once_whatever_the_poll_interval(self, tmp_path):
        with JobQueue(tmp_path) as queue, StubMultiplexer(queue, poll_interval=5.0):
            time.sleep(0.2)  # both slots are idle and waiting by now
            record = finished(queue, queue.submit({"name": "a"}))
            assert record.state == "done"
            assert record.started_at - record.submitted_at < 0.5

    def test_stop_releases_idle_slots_at_once(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            mux = StubMultiplexer(queue, poll_interval=5.0)
            mux.start()
            threads = [slot.thread for slot in mux._slots]
            time.sleep(0.2)
            start = time.monotonic()
            mux.stop()
            assert time.monotonic() - start < 1.0
            assert not any(thread.is_alive() for thread in threads)

    def test_a_sibling_process_submit_is_found_by_the_poll(self, tmp_path):
        # A second handle on the same directory stands in for a sibling
        # process: its submit notifies a condition nobody here waits on.
        with JobQueue(tmp_path) as queue, JobQueue(tmp_path) as sibling:
            with StubMultiplexer(queue, poll_interval=0.2):
                time.sleep(0.1)
                record = finished(queue, sibling.submit({"name": "a"}))
            assert record.state == "done"
            assert record.started_at - record.submitted_at < 0.2 + 0.3

    def test_a_retry_starts_at_its_not_before(self, tmp_path):
        with JobQueue(tmp_path, backoff_base=0.4) as queue:
            with StubMultiplexer(queue, poll_interval=0.1):
                job_id = queue.submit({"name": "a", "fail_attempts": [1]})
                while queue.peek(job_id).not_before == 0:
                    time.sleep(0.005)
                not_before = queue.peek(job_id).not_before
                record = finished(queue, job_id)
            assert (record.state, record.attempts) == ("done", 2)
            assert 0.0 <= record.started_at - not_before < 0.1 + 0.3

    def test_a_freed_tenant_quota_starts_the_next_job_at_once(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            with StubMultiplexer(queue, poll_interval=5.0, max_running_per_tenant=1):
                first = queue.submit({"name": "a", "sleep": 0.3}, tenant="t")
                second = queue.submit({"name": "b"}, tenant="t")
                first, second = finished(queue, first), finished(queue, second)
            assert second.started_at >= first.finished_at  # the quota held
            assert second.started_at - first.finished_at < 0.5

    def test_no_wake_up_is_lost_under_contention(self, tmp_path):
        """More threads than cores, a shortened switch interval, and a poll
        too long to hide behind: every submit races the slots going idle,
        and each job must still start promptly."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobQueue(tmp_path) as queue:
                with StubMultiplexer(queue, max_concurrent=4, poll_interval=60.0):
                    waits: list[float] = []

                    def tenant(name: str) -> None:
                        for i in range(40):
                            record = finished(queue, queue.submit({"name": f"{name}{i}"}))
                            waits.append(record.started_at - record.submitted_at)

                    threads = [
                        threading.Thread(target=tenant, args=(name,)) for name in "abc"
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
            assert len(waits) == 120 and max(waits) < 5.0
        finally:
            sys.setswitchinterval(interval)


@pytest.fixture
def stopped(tmp_path):
    """A service whose slots never start: every job stays where a request
    put it. Yields ``(service, serve)``; ``serve()`` binds and starts the
    HTTP front end and returns ``(server, accepted connections)``."""
    svc = SearchService(tmp_path, max_concurrent=1, workers=1, max_queue_depth=3)
    servers = []

    def serve(port: int = 0):
        server = make_http_server(svc, port=port)
        accepted: list = []
        get_request = server.get_request

        def counting_get_request():
            request = get_request()
            accepted.append(request[1])
            return request

        server.get_request = counting_get_request
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, accepted

    yield svc, serve
    for server in servers:
        server.shutdown()
        server.server_close()
    svc.stop()


def url_of(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def hung_up(client, timeout=5.0) -> None:
    """Wait until the server's close of this thread's connection arrived."""
    sock = client._local.connection.sock
    assert select.select([sock], [], [], timeout)[0], "server never hung up"


class TestTransport:
    def test_one_connection_per_calling_thread(self, stopped):
        _, serve = stopped
        server, accepted = serve()
        client = connect(url_of(server))
        for _ in range(50):
            assert client.healthz()["ok"]
        assert len(accepted) == 1
        other = threading.Thread(target=lambda: [client.healthz() for _ in range(50)])
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
        assert len(accepted) == 2

    def test_a_restart_re_sends_gets_and_never_a_submit(self, stopped, monkeypatch):
        svc, serve = stopped
        server, _ = serve()
        port = server.server_address[1]
        client = connect(url_of(server))
        returned = [client.submit("er:1:7", depths=1, config=Config(steps=5))]

        def restart():
            nonlocal server
            server.shutdown()
            server.server_close()
            hung_up(client)
            server, accepted = serve(port)
            return accepted

        # The EOF check before the write sees the restart: GET and POST alike
        # go out on a fresh connection.
        accepted = restart()
        assert client.status(returned[0])["state"] == "queued"
        returned.append(client.submit("er:1:7", depths=1, config=Config(steps=5)))
        assert len(accepted) == 1

        # The race the check cannot close — the server hangs up between the
        # check and the write — is what re-sending is for: a GET goes again,
        # a POST surfaces the error, so no sweep is ever enqueued twice.
        accepted = restart()
        monkeypatch.setattr(api.select, "select", lambda *args: ([], [], []))
        assert client.status(returned[0])["state"] == "queued"
        assert len(accepted) == 1
        monkeypatch.undo()
        restart()
        monkeypatch.setattr(api.select, "select", lambda *args: ([], [], []))
        with pytest.raises(OSError):
            client.submit("er:1:7", depths=1, config=Config(steps=5))
        monkeypatch.undo()
        assert len(svc.queue) == len(returned) == 2
        assert client.healthz()["queue"]["queued"] == 2  # and the client recovered

    def test_rejections_keep_their_status_and_the_connection(self, stopped):
        _, serve = stopped
        server, accepted = serve()
        client = connect(url_of(server))

        def rejected(call, *args, **kwargs) -> tuple[int, str]:
            with pytest.raises(ServiceError) as info:
                call(*args, **kwargs)
            return info.value.status, str(info.value)

        job = client.submit("er:1:7", depths=1, config=Config(steps=5))
        doomed = client.submit("er:1:7", depths=1, config=Config(steps=5))
        status, message = rejected(
            client._request, "POST", "/submit", {"workload": "nonsense:1"}
        )
        assert status == 400 and message.startswith(
            "service returned 400: invalid sweep spec: unknown workload spec 'nonsense:1'"
        )
        assert rejected(client.status, "nope") == (
            404, "service returned 404: unknown job id 'nope'"
        )
        assert rejected(client.result, job) == (
            409, f"service returned 409: job {job} is queued; result not ready"
        )
        assert client.cancel(doomed) == "cancelled"
        assert rejected(client.result, doomed) == (
            410, f"service returned 410: job {doomed} was cancelled"
        )
        for _ in range(2):
            client.submit("er:1:7", depths=1, config=Config(steps=5))
        status, message = rejected(client.submit, "er:1:7", depths=1)
        assert status == 429 and "queue full: 3 pending jobs" in message
        assert client.status(job)["state"] == "queued"
        assert len(accepted) == 1

    def test_an_unrouted_post_body_does_not_corrupt_the_next_request(self, stopped):
        _, serve = stopped
        server, accepted = serve()
        client = connect(url_of(server))
        with pytest.raises(ServiceError) as info:
            client._request("POST", "/nowhere", {"padding": "x" * 4096})
        assert info.value.status == 404
        assert client.healthz()["ok"]
        assert len(accepted) == 1

    def test_a_body_that_cannot_be_delimited_closes_the_connection(self, stopped):
        _, serve = stopped
        server, _ = serve()
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        connection.request("POST", "/submit", iter([b'{"workload": []}']))  # chunked
        response = connection.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        connection.close()

    def test_the_server_hangs_up_on_an_idle_connection(self, stopped, monkeypatch):
        _, serve = stopped
        server, accepted = serve()
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.2)
        client = connect(url_of(server))
        assert client.healthz()["ok"]
        hung_up(client)
        assert client.healthz()["ok"]
        assert len(accepted) == 2


@pytest.fixture(scope="module")
def sweep_result() -> dict:
    return search("er:1:7", depths=1, config=Config(steps=5, k_max=1)).to_dict()


class TestNoDecode:
    @pytest.fixture
    def done(self, stopped, sweep_result):
        """A finished job, its service and the statements issued since."""
        svc, serve = stopped
        job = svc.submit(SPEC)["id"]
        assert svc.queue.claim_next(owner="test").id == job
        assert svc.queue.mark_done(job, sweep_result, owner="test")
        statements: list[str] = []
        execute = svc.queue._execute

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        svc.queue._execute = spy
        server, _ = serve()
        return svc, url_of(server), job, statements

    def test_a_status_poll_reads_no_blob(self, done):
        svc, url, job, statements = done
        status = connect(url).status(job)
        assert statements
        for sql in statements:
            # json_extract(spec, '$.key') reads inside sqlite; nothing else
            # may name either blob column
            bare = re.sub(r"json_extract\(spec, '\$\.\w+'\)", "", sql)
            assert not re.search(r"\b(spec|result)\b", bare), sql
        assert set(status) == set(svc.queue.get(job).to_status()) | {"queue"}
        assert (status["depths"], status["num_graphs"]) == (1, 1)
        assert status == svc.queue.get(job).to_status() | {"queue": svc.queue.counts()}

    def test_a_live_job_also_reports_progress(self, tmp_path):
        with SearchService(tmp_path, max_concurrent=1, workers=1) as svc:
            job = svc.submit(SPEC)["id"]
            while svc.status(job)["state"] != "done":
                time.sleep(0.01)
            keys = set(svc.queue.get(job).to_status()) | {"queue", "progress"}
            assert set(svc.status(job)) == keys

    def test_the_result_is_the_stored_text(self, done, sweep_result):
        svc, url, job, _ = done
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        connection.request("GET", f"/result/{job}")
        body = connection.getresponse().read()
        connection.close()
        assert body == json.dumps(sweep_result).encode("utf-8")
        assert svc.result(job) == sweep_result
        assert connect(url).result(job) == SearchResult.from_dict(sweep_result)


class TestScale:
    def test_counts_and_claims_are_served_by_the_index(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            queue.submit(SPEC, tenant="a")
            statements: list[tuple[str, tuple]] = []
            execute = queue._execute

            def spy(sql, params=()):
                statements.append((sql, params))
                return execute(sql, params)

            queue._execute = spy
            queue.counts()
            queue.counts_by_tenant()
            queue.claimable_tenants()
            queue.claim_next(tenant="a")
            del queue._execute
            selects = statements[:4]  # claim_next's UPDATE and re-read follow
            assert all(sql.startswith("SELECT") for sql, _ in selects)
            for sql, params in selects:
                plan = " ".join(
                    row[3] for row in queue._execute("EXPLAIN QUERY PLAN " + sql, params)
                )
                assert "INDEX jobs_state_tenant" in plan, (sql, plan)
                assert "SCAN jobs" not in plan.replace(
                    "SCAN jobs USING COVERING INDEX", ""
                ), (sql, plan)

    def test_a_store_without_the_index_migrates_and_drains(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            finished_before = queue.submit(SPEC)
            waiting = queue.submit(SPEC)
            assert queue.claim_next(owner="old").id == finished_before
            queue.mark_done(finished_before, {"answer": 1}, owner="old")
        with sqlite3.connect(tmp_path / "jobs.sqlite") as raw:  # the parent's format
            raw.execute("DROP INDEX jobs_state_tenant")
        with JobQueue(tmp_path) as queue:
            names = [row[0] for row in queue._execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )]
            assert "jobs_state_tenant" in names
            assert queue.result_text(finished_before) == '{"answer": 1}'
            assert queue.counts()["queued"] == 1
            with StubMultiplexer(queue, poll_interval=5.0):
                assert finished(queue, waiting).state == "done"
