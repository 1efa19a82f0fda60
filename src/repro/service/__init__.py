"""Search-as-a-service: queue, multiplexer, and HTTP front door.

This package turns the search stack into a long-running service — the
ROADMAP's "serves heavy traffic" shape. Three layers, each usable alone:

* :class:`~repro.service.jobs.JobQueue` — a persistent (sqlite) queue of
  submitted sweeps with crash-safe state transitions;
* :class:`~repro.service.multiplexer.SweepMultiplexer` — N concurrent
  sweeps multiplexed over **one** shared fleet of worker processes
  and **one** shared multi-tenant result cache, so identical candidates
  across live sweeps are trained once;
* :class:`~repro.service.server.SearchService` + its stdlib HTTP/JSON API
  (``submit`` / ``status/{id}`` / ``result/{id}`` / ``healthz``) behind
  ``python -m repro serve``.

Clients use :func:`repro.api.connect`; the deploy recipe (including
attaching ``--shard-index`` worker processes to a service's cache) is in
``docs/service.md``.
"""

from repro.service.jobs import JOB_STATES, TERMINAL_STATES, JobQueue, JobRecord
from repro.service.multiplexer import SweepMultiplexer
from repro.service.server import SearchService, make_http_server, serve

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "SweepMultiplexer",
    "SearchService",
    "make_http_server",
    "serve",
]
