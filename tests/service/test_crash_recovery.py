"""Signals against a live ``repro serve``: SIGKILL mid-sweep (a restart
must finish the job) and SIGTERM (the server must drain and exit clean).

The satellite acceptance path for the lease layer: no clean shutdown, no
requeue-on-close — the process is gone with the lease still held. The
restarted service reclaims the job when the lease expires, and the first
process's flushed candidate evaluations come back as cache hits, so the
re-run pays only for the unfinished tail.
"""

import json
import multiprocessing as mp
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Config, connect

SRC = Path(__file__).resolve().parents[2] / "src"

SPEC_CONFIG = Config(k_min=1, k_max=2, steps=400, num_samples=8, seed=1)


def spawn_serve(service_dir, *extra):
    """Start ``repro serve`` on an ephemeral port; returns (proc, url)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dir", str(service_dir),
            "--port", "0",
            "--max-concurrent", "1",
            "--workers", "2",
            "--lease-seconds", "2",
            *extra,
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", line)
    if match is None:
        proc.kill()
        pytest.fail(f"serve did not announce its URL: {line!r}")
    return proc, match.group(0)


def flushed_rows(service_dir) -> int:
    path = Path(service_dir) / "cache" / "results.sqlite"
    if not path.exists():
        return 0
    with sqlite3.connect(str(path)) as conn:
        try:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        except sqlite3.OperationalError:
            return 0  # schema not committed yet


def test_sigkilled_service_job_recovers_via_lease_expiry(tmp_path):
    first, url = spawn_serve(tmp_path)
    try:
        client = connect(url)
        job_id = client.submit("er:2:7", depths=2, config=SPEC_CONFIG)

        # Wait for real progress: at least one flushed batch of candidate
        # results in the shared cache, with the sweep still running.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if flushed_rows(tmp_path) >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("no candidate results flushed within 60s")
        state = client.status(job_id)["state"]
        if state != "running":
            pytest.skip(f"sweep already {state}; no mid-flight window to kill")
        recovered_rows = flushed_rows(tmp_path)
    finally:
        first.kill()  # SIGKILL: no drain, no requeue, lease left dangling
        first.wait(timeout=30)

    second, url = spawn_serve(tmp_path)
    try:
        client = connect(url)
        # Still leased by the dead process until the 2s lease expires; the
        # restarted multiplexer then reclaims it and runs it to completion.
        result = client.wait(job_id, timeout=180)
        status = client.status(job_id)
        assert status["state"] == "done"
        assert status["attempts"] == 2  # first claim + the reclaim
        assert result.num_candidates == 16
        # the first process's flushed work was reused, not re-trained
        assert result.config["cache_hits"] >= recovered_rows
        assert result.config["cache_hits"] > 0
    finally:
        second.send_signal(signal.SIGINT)
        try:
            second.wait(timeout=30)
        except subprocess.TimeoutExpired:
            second.kill()
            second.wait(timeout=30)


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid``, read from /proc (field 4 is the ppid)."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we were listing
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def test_sigterm_drains_requeues_and_leaves_no_worker(tmp_path, still_running):
    """What ``docker stop`` and systemd send. The running sweep is far
    longer than ``--drain-timeout``, so the drain path must cancel it and
    hand the job back with its attempt refunded — then flush, reap the
    worker processes and exit 0, all well inside the grace period an
    orchestrator allows before SIGKILL."""
    server, url = spawn_serve(tmp_path, "--drain-timeout", "0.5")
    try:
        client = connect(url)
        job_id = client.submit("er:2:7", depths=2, config=SPEC_CONFIG)
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        workers = children_of(server.pid)
        assert len(workers) == 2
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=20) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
    assert "draining" in server.stdout.read()
    assert still_running(workers) == []
    with sqlite3.connect(str(tmp_path / "jobs.sqlite")) as conn:
        state, attempts = conn.execute(
            "SELECT state, attempts FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
    assert (state, attempts) in {("queued", 0), ("done", 1)}


def test_serve_announces_hardening_knobs_in_help():
    """The runbook's knobs must exist on the CLI (cheap drift guard)."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout
    for flag in (
        "--lease-seconds", "--max-attempts", "--max-queue-depth",
        "--max-queued-per-tenant", "--max-running-per-tenant",
        "--drain-timeout", "--tenant-weight",
    ):
        assert flag in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tenant-weight", "a=nan"], "tenant weights must be positive and finite"),
        (["--tenant-weight", "a=0"], "tenant weights must be positive and finite"),
        (["--lease-seconds", "nan"], "lease_seconds must be positive and finite"),
        (["--lease-seconds", "inf"], "lease_seconds must be positive and finite"),
        (["--drain-timeout", "inf"], "drain_timeout must be finite and >= 0"),
        (["--drain-timeout", "nan"], "drain_timeout must be finite and >= 0"),
        (["--workers", "-1"], "num_workers must be >= 0"),
    ],
)
def test_serve_refuses_a_number_that_breaks_the_service(tmp_path, monkeypatch, flags, message):
    from repro.cli import main
    from repro.service.server import SearchService

    def accepted(self):  # a service that would start would serve forever
        self.stop()
        raise AssertionError(f"serve accepted {flags}")

    monkeypatch.setattr(SearchService, "start", accepted)
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--dir", str(tmp_path), "--port", "0", "--workers", "1", *flags])
    text = str(excinfo.value.code)
    assert text.startswith(message) and "\n" not in text


def test_serve_runs_the_service_the_cli_built(tmp_path, monkeypatch, capsys):
    """``repro serve`` builds the service from its flags and ``serve()``
    starts it, prints the one banner line and, on Ctrl-C, stops it: no
    worker process outlives the command."""
    from repro.cli import main
    from repro.service import server

    def interrupt(self):  # the first pass of the accept loop is a Ctrl-C
        raise KeyboardInterrupt

    monkeypatch.setattr(server._Server, "service_actions", interrupt)
    before = {child.pid for child in mp.active_children()}
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        assert main([
            "serve", "--dir", str(tmp_path), "--port", "0",
            "--max-concurrent", "3", "--workers", "1",
        ]) == 0
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    banner, farewell = capsys.readouterr().out.splitlines()
    assert re.fullmatch(
        rf"search service on http://127\.0\.0\.1:\d+ \(dir {re.escape(str(tmp_path))}, "
        r"3 concurrent sweeps, 1 workers; metrics at /metrics\)",
        banner,
    ), banner
    assert farewell == "shutting down (draining running sweeps)"
    assert {child.pid for child in mp.active_children()} <= before


def test_submit_payload_shape_is_stable(tmp_path):
    """The wire contract documented in docs/service.md: tenant/priority are
    top-level submit fields, also derivable from Config."""
    config = Config(tenant="alice", priority=3)
    payload = config.to_dict()
    assert payload["tenant"] == "alice"
    assert payload["priority"] == 3
    assert json.loads(json.dumps(payload)) == payload  # JSON-safe
