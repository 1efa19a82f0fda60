"""The service front door: one object tying queue + fleet + cache, and a
stdlib HTTP/JSON API over it.

:class:`SearchService` is the deployable unit — everything lives under one
``service_dir`` (queue sqlite, shared result cache, checkpoints), so a
restart resumes where the last process stopped: queued jobs are still
queued, running jobs come back via lease expiry, and finished candidate
evaluations are cache hits. The HTTP layer is deliberately small
(``http.server`` + JSON — no framework, nothing to install; HTTP/1.1
keep-alive with a server-side idle timeout, see :class:`_Handler`):

=====================  ====================================================
``POST /submit``       body ``{"workload": [...], "depths": p, "config":
                       {}, "tenant": "...", "priority": n}`` →
                       ``{"id": "..."}`` (202); 429 + ``Retry-After`` when
                       the queue or the tenant's quota is full
``POST /cancel/{id}``  cancel a queued job immediately, or request
                       cooperative cancellation of a running one →
                       ``{"id": ..., "state": "cancelled"|"cancelling"}``
``GET /status/{id}``   job lifecycle record (state, tenant, attempts,
                       timestamps, error)
``GET /result/{id}``   the finished sweep's versioned ``SearchResult``
                       wire object (409 until done, 410 if failed or
                       cancelled)
``GET /healthz``       liveness + queue depth (per tenant) + cache, fleet,
                       and slot-health counters; ``ok`` is false when a
                       sweep slot thread has died
``GET /metrics``       Prometheus text exposition of the service's
                       :class:`~repro.obs.metrics.MetricsRegistry` —
                       latency histograms, cache/scheduler counters,
                       per-sweep progress gauges (``text/plain``, not
                       JSON; see ``docs/observability.md``)
=====================  ====================================================

``GET /status/{id}`` additionally carries a ``progress`` field (candidates
done/total per depth, live throughput) while the job runs in this process.

Run it with ``python -m repro serve`` (see ``docs/service.md`` for the
deploy recipe and the operations runbook — cancellation, priorities,
tenant quotas, lease/backoff knobs, and what a 429 means;
``docs/observability.md`` for the metric catalog and scrape recipe).
"""

from __future__ import annotations

import json
import signal
import socket
import time
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.api import Config, reconcile_workload, resolve_workload_spec
from repro.core.cache import ResultCache
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import MultiprocessingExecutor
from repro.service.jobs import JobQueue
from repro.service.multiplexer import SweepMultiplexer

__all__ = ["SearchService", "make_http_server", "serve"]


class ServiceRequestError(ValueError):
    """A client error with the HTTP status (and headers) it maps to."""

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers: dict[str, str] = {}
        if retry_after is not None:
            self.headers["Retry-After"] = str(max(1, round(retry_after)))


class SearchService:
    """Queue + shared cache + multiplexed sweep fleet under one directory.

    The fleet is ``workers`` worker *processes*
    (:class:`~repro.parallel.executor.MultiprocessingExecutor`) shared by
    all sweep slots. They are forked first — before the queue's and the
    cache's sqlite handles, the trace file and every slot, heartbeat and
    HTTP thread exist — so no child inherits a held lock or a live
    database handle.

    Hardening knobs (all optional; defaults keep the PR-6 behaviour):

    * ``max_queue_depth`` / ``max_queued_per_tenant`` — admission control:
      a submit that would exceed either cap is rejected with 429 +
      ``Retry-After`` instead of letting the backlog grow without bound.
    * ``max_running_per_tenant`` / ``tenant_weights`` — fairness: caps one
      tenant's share of the sweep slots, and weights the round-robin
      between tenants with queued work.
    * ``lease_seconds`` / ``max_attempts`` — the queue's crash-recovery
      lease and retry budget (see :class:`~repro.service.jobs.JobQueue`).
    * ``drain_timeout`` — how long :meth:`stop` lets running sweeps finish
      before cancelling them and requeueing their jobs.
    """

    def __init__(
        self,
        service_dir: str | Path,
        *,
        max_concurrent: int = 2,
        workers: int | None = None,
        cache_max_entries: int | None = None,
        cache_flush_every: int = 4,
        max_queue_depth: int | None = None,
        max_queued_per_tenant: int | None = None,
        max_running_per_tenant: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        drain_timeout: float | None = None,
        trace_log: str | Path | None = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_queued_per_tenant is not None and max_queued_per_tenant < 1:
            raise ValueError(
                f"max_queued_per_tenant must be >= 1, got {max_queued_per_tenant}"
            )
        self.service_dir = Path(service_dir)
        self.service_dir.mkdir(parents=True, exist_ok=True)
        self.max_queue_depth = max_queue_depth
        self.max_queued_per_tenant = max_queued_per_tenant
        # One registry for the whole deployment: every layer below reports
        # into it, GET /metrics renders it.
        self.metrics = MetricsRegistry()
        self._executor = MultiprocessingExecutor(workers, metrics=self.metrics)
        try:
            if trace_log is not None:
                self.metrics.enable_trace(trace_log)
            self.queue = JobQueue(
                self.service_dir,
                lease_seconds=lease_seconds,
                max_attempts=max_attempts,
                metrics=self.metrics,
            )
            # shared=True: concurrent sweeps coordinate on in-flight keys; the
            # cache dir is also where --shard-index worker processes attach.
            self.cache = ResultCache(
                self.service_dir / "cache",
                flush_every=cache_flush_every,
                max_entries=cache_max_entries,
                shared=True,
                metrics=self.metrics,
            )
            # The multiplexer borrows the executor; stop() closes it.
            self.multiplexer = SweepMultiplexer(
                self.queue,
                executor=self._executor,
                cache=self.cache,
                max_concurrent=max_concurrent,
                tenant_weights=tenant_weights,
                max_running_per_tenant=max_running_per_tenant,
                drain_timeout=drain_timeout,
                metrics=self.metrics,
            )
        except BaseException:
            self._executor.close()  # a failed start must leave no worker behind
            raise
        self.started_at = time.time()
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Point-in-time gauges sampled at scrape time — no background
        thread, no cost between scrapes."""
        uptime = self.metrics.gauge(
            "repro_service_uptime_seconds", "Seconds since the service started"
        )
        queue_jobs = self.metrics.gauge(
            "repro_queue_jobs", "Jobs currently in each queue state",
            labels=("state",),
        )
        slots_alive = self.metrics.gauge(
            "repro_slots_alive", "Sweep slot threads currently alive"
        )
        slots_configured = self.metrics.gauge(
            "repro_slots_configured", "Sweep slots the service was started with"
        )

        def collect() -> None:
            uptime.set(time.time() - self.started_at)
            for state, n in self.queue.counts().items():
                queue_jobs.labels(state=state).set(n)
            slots = self.multiplexer.slot_health()
            slots_alive.set(slots["alive"])
            slots_configured.set(slots["configured"])

        self.metrics.add_collector(collect)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.multiplexer.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Drain running sweeps (bounded by ``drain_timeout``), then
        release the fleet, cache, and queue. Jobs still running past the
        deadline are cancelled cooperatively and requeued unharmed."""
        self.multiplexer.stop(drain_timeout)
        self._executor.close()
        self.cache.close()
        self.queue.close()
        self.metrics.disable_trace()

    def __enter__(self) -> SearchService:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the API surface (transport-independent) ---------------------------

    def submit(self, payload: dict) -> dict:
        """Validate a submit payload, enqueue it, return ``{"id": ...}``.

        Validation happens here — workload resolves, config constructs,
        depths is a positive int — so a bad sweep fails at submit time
        with a 400, not minutes later in a worker. Admission control also
        happens here: a full queue (global or per-tenant) is a 429 with
        ``Retry-After``, the client's signal to back off and retry.
        """
        if not isinstance(payload, dict):
            raise ServiceRequestError(400, "submit body must be a JSON object")
        try:
            implied, graphs = resolve_workload_spec(payload.get("workload", ()))
            config = reconcile_workload(
                Config.from_dict(payload.get("config", {})), implied
            )
            depths = int(payload.get("depths", 1))
            if depths < 1:
                raise ValueError(f"depths must be >= 1, got {depths}")
            config.search_config(depths)  # constructs → validates every knob
            tenant = str(payload.get("tenant", config.tenant) or "default")
            priority = int(payload.get("priority", config.priority))
        except (ValueError, TypeError, KeyError) as error:
            raise ServiceRequestError(400, f"invalid sweep spec: {error}") from None
        self._admit(tenant)
        spec = {
            "workload": payload.get("workload"),
            "depths": depths,
            "config": config.to_dict(),
            "num_graphs": len(graphs),
        }
        return {"id": self.queue.submit(spec, tenant=tenant, priority=priority)}

    def _admit(self, tenant: str) -> None:
        """Reject the submit if the backlog (global or tenant) is full."""
        retry_after = max(self.queue.lease_seconds / 2.0, 1.0)
        if self.max_queue_depth is not None:
            backlog = self.queue.counts()
            pending = backlog["queued"] + backlog["running"]
            if pending >= self.max_queue_depth:
                raise ServiceRequestError(
                    429,
                    f"queue full: {pending} pending jobs >= "
                    f"max_queue_depth={self.max_queue_depth}; retry later",
                    retry_after=retry_after,
                )
        if self.max_queued_per_tenant is not None:
            queued = (
                self.queue.counts_by_tenant()
                .get(tenant, {})
                .get("queued", 0)
            )
            if queued >= self.max_queued_per_tenant:
                raise ServiceRequestError(
                    429,
                    f"tenant {tenant!r} has {queued} queued jobs >= "
                    f"max_queued_per_tenant={self.max_queued_per_tenant}; "
                    "retry later",
                    retry_after=retry_after,
                )

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: queued → cancelled now; running → cooperative
        stop at the sweep's next checkpoint (state ``cancelling``)."""
        try:
            state = self.queue.cancel(job_id)
        except KeyError:
            raise ServiceRequestError(404, f"unknown job id {job_id!r}") from None
        return {"id": job_id, "state": state}

    def status(self, job_id: str) -> dict:
        record = self.queue.peek(job_id)  # a poll decodes no spec, no result
        if record is None:
            raise ServiceRequestError(404, f"unknown job id {job_id!r}")
        status = record.to_status() | {"queue": self.queue.counts()}
        # Live per-sweep progress (candidates done/total per depth) for
        # jobs running — or recently finished — in this process; absent
        # when another process on the shared directory ran the job.
        progress = self.multiplexer.progress_for(job_id)
        if progress is not None:
            status["progress"] = progress
        return status

    def metrics_text(self) -> str:
        """The Prometheus text exposition ``GET /metrics`` serves."""
        return self.metrics.render()

    def result(self, job_id: str) -> dict:
        return json.loads(self.result_text(job_id))

    def result_text(self, job_id: str) -> str:
        """The finished sweep's wire object as stored — what ``GET
        /result`` sends, with no decode and re-encode on the way."""
        record = self.queue.peek(job_id)
        if record is None:
            raise ServiceRequestError(404, f"unknown job id {job_id!r}")
        if record.state == "failed":
            raise ServiceRequestError(410, record.error or "sweep failed")
        if record.state == "cancelled":
            raise ServiceRequestError(410, f"job {job_id} was cancelled")
        text = self.queue.result_text(job_id) if record.state == "done" else None
        if text is None:
            raise ServiceRequestError(
                409, f"job {job_id} is {record.state}; result not ready"
            )
        return text

    def healthz(self) -> dict:
        slots = self.multiplexer.slot_health()
        return {
            # A dead slot thread is silently lost capacity — exactly what a
            # liveness probe exists to catch, so it flips ok to false.
            "ok": not slots["dead"],
            "uptime_seconds": time.time() - self.started_at,
            "queue": self.queue.counts(),
            "tenants": self.queue.counts_by_tenant(),
            "slots": slots,
            "sweeps_completed": self.multiplexer.sweeps_completed,
            "sweeps_failed": self.multiplexer.sweeps_failed,
            "sweeps_cancelled": self.multiplexer.sweeps_cancelled,
            "sweeps_requeued": self.multiplexer.sweeps_requeued,
            "queue_retries": self.multiplexer.queue_retries,
            "workers": self._executor.num_workers,
            "executor": self._executor.name,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "max_entries": self.cache.max_entries,
            },
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes the endpoints onto the service object over HTTP/1.1
    keep-alive: a client's requests share one connection and one thread
    (every response carries ``Content-Length``; an HTTP/1.0 client or a
    ``Connection: close`` still gets one request per connection)."""

    service: SearchService  # set by make_http_server
    protocol_version = "HTTP/1.1"
    #: seconds a connection may sit idle, or stall mid-request, before the
    #: server hangs up and its thread ends — a silent peer pins nothing
    timeout = 30.0
    # Nagle off and the response buffered whole: head and body leave in one
    # write, so a reused connection never waits out the peer's delayed ACK.
    disable_nagle_algorithm = True
    wbufsize = 1 << 16

    # Silence per-request stderr lines; the service is often a test/CI
    # subprocess and request logs are noise there.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _respond(
        self, status: int, payload: dict | str, headers: dict[str, str] | None = None
    ) -> None:
        """``payload`` is a JSON object, or text that is sent as it is."""
        text = payload if isinstance(payload, str) else json.dumps(payload)
        body = text.encode("utf-8")
        self.send_response(status)
        head = {"Content-Type": "application/json", "Content-Length": str(len(body))}
        if self.close_connection:
            head["Connection"] = "close"
        for name, value in (head | (headers or {})).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """Consume the request body, whatever the route: the next request
        on this connection must start at its own first byte. A body that
        cannot be delimited (chunked, bad length) closes the connection."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            return b""
        return self.rfile.read(length) if length else b""

    def _dispatch(self) -> None:
        raw = self._read_body()
        try:
            status, payload, *headers = self._route(raw)
        except ServiceRequestError as error:
            self._respond(error.status, {"error": str(error)}, error.headers)
        except Exception as error:  # noqa: BLE001 - a handler bug must return 500
            self._respond(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._respond(status, payload, *headers)

    do_GET = do_POST = _dispatch  # the http.server contract: one method per verb

    def _route(self, raw: bytes) -> tuple:
        """``(status, payload[, headers])`` of one request."""
        route = f"{self.command} {self.path}"
        job_id = self.path[1:].partition("/")[2]
        if route == "GET /metrics":
            # Prometheus text exposition format 0.0.4
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            return 200, self.service.metrics_text(), {"Content-Type": content_type}
        if route == "GET /healthz":
            return 200, self.service.healthz()
        if route.startswith("GET /status/"):
            return 200, self.service.status(job_id)
        if route.startswith("GET /result/"):
            return 200, self.service.result_text(job_id)
        if route == "POST /submit":
            try:
                payload = json.loads(raw.decode("utf-8") or "null")
            except json.JSONDecodeError as error:
                raise ServiceRequestError(400, f"invalid JSON body: {error}") from None
            return 202, self.service.submit(payload)
        if route.startswith("POST /cancel/"):
            return 200, self.service.cancel(job_id)
        raise ServiceRequestError(404, f"no route for {route}")


class _Server(ThreadingHTTPServer):
    """Closing it also hangs up on the kept-alive connections: a stopped
    service must not answer from a parked handler thread."""

    def __init__(self, address: tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self._connections: set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:
        self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        for connection in list(self._connections):
            with suppress(OSError):  # the peer hung up first
                connection.shutdown(socket.SHUT_RD)  # an answer in flight still leaves


def make_http_server(
    service: SearchService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind (but do not start) the HTTP front end; port 0 picks a free one."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _Server((host, port), handler)


def serve(
    service_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_concurrent: int = 2,
    workers: int | None = None,
    cache_max_entries: int | None = None,
    max_queue_depth: int | None = None,
    max_queued_per_tenant: int | None = None,
    max_running_per_tenant: int | None = None,
    tenant_weights: dict[str, float] | None = None,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    drain_timeout: float | None = None,
    trace_log: str | Path | None = None,
) -> None:
    """Run the service until interrupted (the ``repro serve`` entrypoint).

    Shutdown is graceful on Ctrl-C and on ``SIGTERM`` (``docker stop``,
    systemd) alike: running sweeps get ``drain_timeout`` seconds to
    finish; past that they are cancelled at their next checkpoint and
    their jobs requeued (attempt refunded) for the next process. The
    cache is flushed, the worker processes are stopped and reaped, and
    the process exits 0.
    ``trace_log`` additionally streams span events (JSONL) to a file —
    see ``docs/observability.md`` for the format.
    """
    service = SearchService(
        service_dir,
        max_concurrent=max_concurrent,
        workers=workers,
        cache_max_entries=cache_max_entries,
        max_queue_depth=max_queue_depth,
        max_queued_per_tenant=max_queued_per_tenant,
        max_running_per_tenant=max_running_per_tenant,
        tenant_weights=tenant_weights,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        drain_timeout=drain_timeout,
        trace_log=trace_log,
    )
    service.start()
    server = make_http_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"search service on http://{bound_host}:{bound_port} "
        f"(dir {service.service_dir}, {max_concurrent} concurrent sweeps, "
        f"{service.multiplexer.executor.num_workers} workers; "
        f"metrics at /metrics)",
        flush=True,
    )

    def drain_on_sigterm(signum, frame) -> None:
        # One drain per process: a repeated SIGTERM must not abort it.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    try:
        # Installed after the fleet was forked, so the workers keep the
        # default disposition and a SIGTERM of their own just kills them.
        signal.signal(signal.SIGTERM, drain_on_sigterm)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining running sweeps)", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
