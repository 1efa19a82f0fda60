"""Lifecycle of the search service the ``service_mixed`` workload talks to.

Two ways to get one, both context managers yielding a :class:`Server`:

* :func:`subprocess_server` — ``python -m repro serve --port 0`` as a child
  process, the deployment users run; every end-to-end number comes from it.
* :func:`in_harness` — ``SearchService`` + ``make_http_server`` inside this
  process, for the traced pass: the fleet is threads, so the wrappers
  installed by :mod:`e2e.trace` see every layer.

Either way the service is stopped and its directory removed on every exit
path, including an exception or Ctrl-C in the body.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import repro.api as api

__all__ = ["Server", "child_env", "in_harness", "subprocess_server"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: seconds a starting server has to print its banner and answer /healthz
READY_DEADLINE = 30.0
#: seconds a terminated server gets before it is killed
STOP_GRACE = 10.0

#: the deployment under test
MAX_CONCURRENT = 2
WORKERS = 2


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this harness and ``src`` on the
    path, whatever directory the benchmark was started from."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent), str(SRC)]))


@dataclass
class Server:
    url: str
    client: api.Client


@contextmanager
def subprocess_server(service_dir: Path):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dir", str(service_dir), "--port", "0",
            "--max-concurrent", str(MAX_CONCURRENT), "--workers", str(WORKERS),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        deadline = time.monotonic() + READY_DEADLINE
        url = _read_banner(process, deadline)
        client = api.connect(url)
        _wait_healthy(client, process, deadline)
        yield Server(url, client)
    finally:
        process.terminate()
        try:
            process.wait(timeout=STOP_GRACE)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
        shutil.rmtree(service_dir, ignore_errors=True)


def _read_banner(process: subprocess.Popen, deadline: float) -> str:
    """The URL from the one line ``repro serve`` prints once it is bound;
    with ``--port 0`` that line is the only place the port appears."""
    remaining = deadline - time.monotonic()
    ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0.0))
    line = process.stdout.readline() if ready else ""
    match = re.search(r"http://[\w.\-]+:\d+", line)
    if match is None:
        raise RuntimeError(
            f"service did not announce its address within {READY_DEADLINE}s "
            f"(exit code {process.poll()}, banner {line!r})"
        )
    return match.group(0)


def _wait_healthy(client: api.Client, process: subprocess.Popen, deadline: float) -> None:
    while True:
        try:
            if client.healthz()["ok"]:
                return
        except (api.ServiceError, OSError):
            pass
        if process.poll() is not None:
            raise RuntimeError(
                f"service exited with code {process.returncode} before it was healthy"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"service not healthy within {READY_DEADLINE}s")
        time.sleep(0.01)


@contextmanager
def in_harness(service_dir: Path):
    """The same deployment inside this process."""
    from repro.service.server import SearchService, make_http_server

    search_service = SearchService(service_dir, max_concurrent=MAX_CONCURRENT, workers=WORKERS)
    try:
        search_service.start()
        http = make_http_server(search_service)
        thread = threading.Thread(target=http.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = http.server_address[:2]
            url = f"http://{host}:{port}"
            yield Server(url, api.connect(url))
        finally:
            http.shutdown()
            http.server_close()
            thread.join()
    finally:
        search_service.stop()
        shutil.rmtree(service_dir, ignore_errors=True)
