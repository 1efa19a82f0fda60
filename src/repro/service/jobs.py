"""Persistent job queue: submitted sweeps survive service restarts.

One sqlite file per service directory, in WAL mode like the result cache,
so the queue tolerates a killed service. State transitions are guarded
conditional updates — a claim flips exactly one claimable row to
``running`` and checks the rowcount, which is what lets several
multiplexer slot threads (or several service processes on one directory)
drain one queue without double-claiming.

Hardened lifecycle (PR 7):

* **Priorities** — claims come out ``priority DESC, submitted_at ASC``;
  a tenant's urgent sweep overtakes the backlog without preemption.
* **Leases** — a claim holds the job for ``lease_seconds`` and must be
  renewed via :meth:`heartbeat`. A slot that wedges or dies stops
  renewing, and at expiry the job becomes claimable again by any live
  slot (same process, a restarted process, or a sibling on the shared
  directory) — recovery no longer waits for a queue re-open. Completed
  candidate evaluations live in the shared result cache, so the re-run
  pays only for the unfinished tail.
* **Ownership** — every claim stamps an ``owner``; terminal transitions
  (:meth:`mark_done` & co.) are owner-guarded, so a wedged slot that
  comes back after its job was reclaimed cannot clobber the new owner's
  outcome (it observes ``False`` and stands down).
* **Bounded retry + dead-letter** — a failed run goes back to the queue
  with exponential backoff (``backoff_base * 2**(attempts-1)``, capped);
  after ``max_attempts`` claims the job fails permanently (the
  dead-letter terminal: ``state='failed'`` with a ``dead-letter`` error)
  instead of crash-looping a poison spec through the fleet forever.
* **Cancellation** — queued rows cancel directly; running rows get a
  ``cancel_requested`` flag that the running sweep observes through its
  heartbeat / :class:`~repro.core.runtime.CancellationToken` and stops
  cooperatively, after which :meth:`mark_cancelled` lands the terminal
  state.

States: ``queued`` → ``running`` → ``done`` | ``failed`` | ``cancelled``
(with ``running`` → ``queued`` again on transient failure or lease
expiry).

**Who wakes whom.** Every transition that can make a job claimable *in
this process* — :meth:`JobQueue.submit`, and each way out of ``running``
(which frees a place in the tenant's ``max_running_per_tenant``) — calls
:meth:`JobQueue.announce` after its commit; an idle multiplexer slot
sleeps in :meth:`JobQueue.wait_for_announcement`. What nobody announces
(a sibling process's submit on the shared directory, a retry's
``not_before`` coming due, a lease expiring) is found when that wait
times out, after the multiplexer's ``POLL_INTERVAL``.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["JOB_STATES", "TERMINAL_STATES", "JobQueue", "JobRecord"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: columns added since the PR-6 schema; existing stores migrate in place
_MIGRATED_COLUMNS = (
    ("tenant", "TEXT NOT NULL DEFAULT 'default'"),
    ("priority", "INTEGER NOT NULL DEFAULT 0"),
    ("attempts", "INTEGER NOT NULL DEFAULT 0"),
    ("not_before", "REAL NOT NULL DEFAULT 0"),
    ("lease_expires", "REAL"),
    ("owner", "TEXT"),
    ("cancel_requested", "INTEGER NOT NULL DEFAULT 0"),
)


@dataclass(frozen=True)
class JobRecord:
    """One submitted sweep's lifecycle snapshot."""

    id: str
    state: str
    #: the submit payload: workload wire graphs + depths + flat config
    spec: dict
    #: the finished sweep's ``SearchResult.to_dict()`` (done only)
    result: dict | None
    #: terminal error message (failed only)
    error: str | None
    tenant: str
    priority: int
    #: claims so far (each claim — first run, retry, or lease reclaim —
    #: counts; ``max_attempts`` of these dead-letters the job)
    attempts: int
    #: earliest time the job may be claimed again (retry backoff)
    not_before: float
    #: current lease deadline while running (renewed by heartbeats)
    lease_expires: float | None
    #: slot/worker id holding the current claim
    owner: str | None
    cancel_requested: bool
    submitted_at: float
    started_at: float | None
    finished_at: float | None

    def to_status(self) -> dict[str, Any]:
        """The ``/status/{id}`` payload: lifecycle without the big blobs."""
        return {
            "id": self.id,
            "state": self.state,
            "error": self.error,
            "tenant": self.tenant,
            "priority": self.priority,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "depths": self.spec.get("depths"),
            "num_graphs": self.spec.get("num_graphs"),
        }


class JobQueue:
    """Crash-safe sqlite-backed queue of sweep jobs (thread-safe).

    Parameters
    ----------
    service_dir:
        Directory holding ``jobs.sqlite`` (shared with the result cache
        and checkpoints of one service deployment).
    lease_seconds:
        How long one claim holds a job without a heartbeat; a wedged or
        killed slot's job becomes claimable again this long after its
        last renewal.
    max_attempts:
        Total claims a job may consume before it dead-letters (fails
        permanently). Must be >= 1.
    backoff_base / backoff_cap:
        Transient-failure requeue backoff: attempt ``n`` waits
        ``min(backoff_base * 2**(n-1), backoff_cap)`` seconds before the
        job is claimable again.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`. When given,
        the queue records submissions and claim wait per tenant, lease
        renewals, lease-expiry reclaims, and dead-letter transitions.
    """

    def __init__(
        self,
        service_dir: str | Path,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0 < lease_seconds < math.inf:  # NaN fails both
            raise ValueError(f"lease_seconds must be positive and finite, got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        self.service_dir = Path(service_dir)
        self.service_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.service_dir / "jobs.sqlite"
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.metrics = metrics
        self._m: dict[str, Any] | None = None
        if metrics is not None:
            self._m = {
                "submitted": metrics.counter(
                    "repro_queue_submitted_total",
                    "Sweep jobs enqueued, by tenant",
                    labels=("tenant",),
                ),
                "claim_wait": metrics.histogram(
                    "repro_queue_claim_wait_seconds",
                    "Time a claimable job waited in the queue before a "
                    "slot claimed it, by tenant",
                    labels=("tenant",),
                ),
                "renewals": metrics.counter(
                    "repro_lease_renewals_total",
                    "Successful heartbeat lease renewals",
                ),
                "reclaims": metrics.counter(
                    "repro_queue_reclaims_total",
                    "Jobs reclaimed after their holder's lease expired",
                ),
                "dead_letters": metrics.counter(
                    "repro_queue_dead_letters_total",
                    "Jobs failed permanently after exhausting max_attempts",
                ),
            }
        self._lock = threading.RLock()
        self._wake = threading.Condition()
        #: announcements so far; what a waiter compares against
        self.generation = 0
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._execute("PRAGMA journal_mode=WAL")
        self._execute("PRAGMA busy_timeout=30000")
        self._execute(
            "CREATE TABLE IF NOT EXISTS jobs ("
            " id TEXT PRIMARY KEY,"
            " state TEXT NOT NULL,"
            " spec TEXT NOT NULL,"
            " result TEXT,"
            " error TEXT,"
            " submitted_at REAL NOT NULL,"
            " started_at REAL,"
            " finished_at REAL)"
        )
        columns = {row[1] for row in self._execute("PRAGMA table_info(jobs)")}
        for name, decl in _MIGRATED_COLUMNS:
            if name not in columns:
                self._execute(f"ALTER TABLE jobs ADD COLUMN {name} {decl}")
        # Counts scan this index instead of the rows (which carry the spec
        # and result blobs), and a claim visits only the live states.
        self._execute(
            "CREATE INDEX IF NOT EXISTS jobs_state_tenant ON jobs(state, tenant)"
        )
        # Crash recovery for pre-lease rows only: a running job without a
        # lease deadline can never expire, so requeue it here. Leased rows
        # are left alone — if their holder is really gone the lease
        # expires and claim_next reclaims them, which stays correct even
        # when several processes share one queue file.
        self._execute(
            "UPDATE jobs SET state = 'queued', started_at = NULL, owner = NULL"
            " WHERE state = 'running' AND lease_expires IS NULL"
        )
        self._conn.commit()

    # -- the sqlite seam ---------------------------------------------------

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Every statement funnels through here — the fault-injection seam
        (:class:`~repro.parallel.faults.FaultInjectingJobQueue` overrides
        it to raise scheduled ``database is locked`` errors)."""
        return self._conn.execute(sql, params)

    # -- wake-ups ----------------------------------------------------------

    def announce(self) -> None:
        """Wake every waiter: a job may have become claimable (or the
        multiplexer is stopping and wants its idle slots back)."""
        with self._wake:
            self.generation += 1
            self._wake.notify_all()

    def wait_for_announcement(self, seen: int, timeout: float) -> None:
        """Sleep until an announcement newer than ``seen`` — the generation
        read *before* the claim that came back empty — or ``timeout``."""
        with self._wake:
            self._wake.wait_for(lambda: self.generation != seen, timeout)

    # -- producer side -----------------------------------------------------

    def submit(
        self, spec: dict, *, tenant: str = "default", priority: int = 0
    ) -> str:
        """Enqueue one sweep spec; returns its job id."""
        job_id = uuid.uuid4().hex[:12]
        with self._lock:
            self._execute(
                "INSERT INTO jobs"
                " (id, state, spec, tenant, priority, submitted_at)"
                " VALUES (?, 'queued', ?, ?, ?, ?)",
                (job_id, json.dumps(spec), str(tenant), int(priority), time.time()),
            )
            self._conn.commit()
        self.announce()
        if self._m is not None:
            self._m["submitted"].labels(tenant=str(tenant)).inc()
        return job_id

    # -- consumer side -----------------------------------------------------

    def claim_next(
        self, *, owner: str | None = None, tenant: str | None = None
    ) -> JobRecord | None:
        """Claim the best claimable job: highest priority, oldest first.

        Claimable means ``queued`` with its retry backoff elapsed, or
        ``running`` with an **expired lease** (the holder stopped
        heartbeating — wedged or dead — so the job is reclaimed by this
        live slot). A job that has burned through ``max_attempts`` claims
        dead-letters here instead of running again; a reclaimed job whose
        cancellation was requested lands directly in ``cancelled``.
        """
        owner = owner or uuid.uuid4().hex[:8]
        with self._lock:
            while True:
                now = time.time()
                clause = (
                    "((state = 'queued' AND not_before <= ?) OR"
                    " (state = 'running' AND lease_expires IS NOT NULL"
                    "  AND lease_expires < ?))"
                )
                params: list = [now, now]
                if tenant is not None:
                    clause += " AND tenant = ?"
                    params.append(tenant)
                row = self._execute(
                    "SELECT id, state, attempts, cancel_requested, tenant,"
                    " submitted_at, not_before FROM jobs"
                    f" WHERE {clause}"
                    " ORDER BY priority DESC, submitted_at ASC, rowid ASC"
                    " LIMIT 1",
                    tuple(params),
                ).fetchone()
                if row is None:
                    return None
                (
                    job_id,
                    state,
                    attempts,
                    cancel_requested,
                    job_tenant,
                    submitted_at,
                    not_before,
                ) = row
                if cancel_requested:
                    # Cancelled while queued-for-retry or while its dead
                    # holder ran: no live owner will ever acknowledge, so
                    # the reclaim resolves the cancellation directly.
                    self._finish_locked(job_id, "cancelled")
                    continue
                if attempts >= self.max_attempts:
                    self._finish_locked(
                        job_id,
                        "failed",
                        error=(
                            f"dead-letter: job gave out after {attempts} "
                            f"attempt(s) (max_attempts={self.max_attempts})"
                        ),
                    )
                    if self._m is not None:
                        self._m["dead_letters"].inc()
                    continue
                # Conditional claim: the observed state must still hold, so
                # concurrent claimants (threads or sibling processes) race
                # on the rowcount, never on a double-claim.
                claimed = self._execute(
                    "UPDATE jobs SET state = 'running', started_at = ?,"
                    " owner = ?, attempts = attempts + 1, lease_expires = ?"
                    " WHERE id = ? AND state = ?"
                    " AND (state != 'running' OR lease_expires < ?)",
                    (now, owner, now + self.lease_seconds, job_id, state, now),
                )
                self._conn.commit()
                if claimed.rowcount == 1:
                    if self._m is not None:
                        if state == "running":
                            # The previous holder's lease expired.
                            self._m["reclaims"].inc()
                        else:
                            waited = max(
                                0.0, now - max(submitted_at, not_before)
                            )
                            self._m["claim_wait"].labels(
                                tenant=str(job_tenant)
                            ).observe(waited)
                            self.metrics.trace_event(
                                "queue_claim_wait",
                                waited,
                                tenant=str(job_tenant),
                                job=job_id,
                            )
                    return self.get(job_id)

    def heartbeat(self, job_id: str, owner: str) -> str:
        """Renew a claim's lease; returns the holder's marching orders.

        ``"ok"``      — lease extended, keep working.
        ``"cancel"``  — lease extended, but cancellation was requested:
                        stop cooperatively and :meth:`mark_cancelled`.
        ``"lost"``    — the job is no longer this owner's (lease expired
                        and was reclaimed, or it was finished elsewhere):
                        abandon the work and do **not** record an outcome.
        """
        with self._lock:
            row = self._execute(
                "SELECT state, owner, cancel_requested FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
            if row is None or row[0] != "running" or row[1] != owner:
                return "lost"
            self._execute(
                "UPDATE jobs SET lease_expires = ? WHERE id = ? AND owner = ?",
                (time.time() + self.lease_seconds, job_id, owner),
            )
            self._conn.commit()
            if self._m is not None:
                self._m["renewals"].inc()
            return "cancel" if row[2] else "ok"

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's resulting disposition.

        Queued jobs cancel immediately (``"cancelled"``); running jobs
        are flagged and stop cooperatively at the sweep's next
        cancellation checkpoint (``"cancelling"``); terminal jobs report
        their state unchanged.
        """
        with self._lock:
            record = self.peek(job_id)
            if record is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if record.state in TERMINAL_STATES:
                return record.state
            if record.state == "queued":
                self._finish_locked(job_id, "cancelled")
                return "cancelled"
            self._execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
            )
            self._conn.commit()
            return "cancelling"

    def mark_done(self, job_id: str, result: dict, *, owner: str | None = None) -> bool:
        return self._finish(job_id, "done", result=result, owner=owner)

    def mark_cancelled(self, job_id: str, *, owner: str | None = None) -> bool:
        return self._finish(job_id, "cancelled", owner=owner)

    def record_failure(
        self, job_id: str, error: str, *, owner: str | None = None
    ) -> str:
        """One failed run: requeue with backoff, or dead-letter.

        Returns ``"queued"`` (will retry after backoff), ``"failed"``
        (dead-lettered: the attempt budget is spent), or ``"lost"`` (this
        owner no longer holds the job — another slot reclaimed it).
        """
        with self._lock:
            record = self.peek(job_id)
            if record is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if record.state != "running" or (
                owner is not None and record.owner != owner
            ):
                return "lost"
            if record.attempts >= self.max_attempts:
                self._finish_locked(
                    job_id,
                    "failed",
                    error=(
                        f"dead-letter: failed on all {record.attempts} "
                        f"attempt(s); last error: {error}"
                    ),
                )
                if self._m is not None:
                    self._m["dead_letters"].inc()
                return "failed"
            delay = min(
                self.backoff_base * (2 ** max(0, record.attempts - 1)),
                self.backoff_cap,
            )
            self._execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL,"
                " owner = NULL, lease_expires = NULL, not_before = ?,"
                " error = ? WHERE id = ?",
                (time.time() + delay, error, job_id),
            )
            self._conn.commit()
            self.announce()
            return "queued"

    def requeue(self, job_id: str, *, owner: str | None = None) -> bool:
        """Hand a running job back unharmed (graceful-shutdown abort).

        The interrupted attempt is refunded — shutdown is not the job's
        fault, so repeated drains can never dead-letter a healthy sweep.
        """
        with self._lock:
            guard = "" if owner is None else " AND owner = ?"
            params: tuple = (job_id,) if owner is None else (job_id, owner)
            updated = self._execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL,"
                " owner = NULL, lease_expires = NULL,"
                " attempts = MAX(attempts - 1, 0)"
                f" WHERE id = ? AND state = 'running'{guard}",
                params,
            )
            self._conn.commit()
            self.announce()
            return updated.rowcount == 1

    def _finish(
        self,
        job_id: str,
        state: str,
        *,
        result: dict | None = None,
        owner: str | None = None,
    ) -> bool:
        """Owner-guarded terminal transition; False = ownership was lost
        (the job was reclaimed or finished by another slot — stand down)."""
        with self._lock:
            if self.peek(job_id) is None:
                raise KeyError(f"unknown job id {job_id!r}")
            return self._finish_locked(job_id, state, result=result, owner=owner)

    def _finish_locked(
        self,
        job_id: str,
        state: str,
        *,
        result: dict | None = None,
        error: str | None = None,
        owner: str | None = None,
    ) -> bool:
        guard = "" if owner is None else " AND owner = ? AND state = 'running'"
        params: list = [
            state,
            None if result is None else json.dumps(result),
            error,
            time.time(),
            job_id,
        ]
        if owner is not None:
            params.append(owner)
        updated = self._execute(
            "UPDATE jobs SET state = ?, result = ?, error = ?,"
            " finished_at = ?, lease_expires = NULL, owner = NULL"
            f" WHERE id = ?{guard}",
            tuple(params),
        )
        self._conn.commit()
        self.announce()
        return updated.rowcount == 1

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """The full record: decodes the spec and, once done, the result."""
        return self._read(job_id, "spec, result")

    def peek(self, job_id: str) -> JobRecord | None:
        """The lifecycle without the blobs — all that ``/status`` and the
        transition guards need. ``spec`` is cut down, inside sqlite, to the
        two keys :meth:`JobRecord.to_status` reads; ``result`` is ``None``."""
        return self._read(
            job_id,
            "json_object('depths', json_extract(spec, '$.depths'),"
            " 'num_graphs', json_extract(spec, '$.num_graphs')), NULL",
        )

    def result_text(self, job_id: str) -> str | None:
        """The stored result exactly as :meth:`mark_done` wrote it
        (``json.dumps`` of the wire object); ``None`` until then."""
        with self._lock:
            row = self._execute(
                "SELECT result FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return None if row is None else row[0]

    def _read(self, job_id: str, blobs: str) -> JobRecord | None:
        with self._lock:
            row = self._execute(
                f"SELECT id, state, {blobs}, error, tenant, priority,"
                " attempts, not_before, lease_expires, owner,"
                " cancel_requested, submitted_at, started_at, finished_at"
                " FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        return JobRecord(
            id=row[0],
            state=row[1],
            spec=json.loads(row[2]),
            result=None if row[3] is None else json.loads(row[3]),
            error=row[4],
            tenant=row[5],
            priority=int(row[6]),
            attempts=int(row[7]),
            not_before=float(row[8]),
            lease_expires=row[9],
            owner=row[10],
            cancel_requested=bool(row[11]),
            submitted_at=row[12],
            started_at=row[13],
            finished_at=row[14],
        )

    def counts(self) -> dict[str, int]:
        """Jobs per state (zero-filled), the queue-depth health signal."""
        with self._lock:
            rows = self._execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        out = dict.fromkeys(JOB_STATES, 0)
        out.update({state: int(n) for state, n in rows})
        return out

    def counts_by_tenant(self) -> dict[str, dict[str, int]]:
        """Per-tenant per-state counts (quota checks, healthz breakdown)."""
        with self._lock:
            rows = self._execute(
                "SELECT tenant, state, COUNT(*) FROM jobs GROUP BY tenant, state"
            ).fetchall()
        out: dict[str, dict[str, int]] = {}
        for tenant, state, n in rows:
            out.setdefault(tenant, dict.fromkeys(JOB_STATES, 0))[state] = int(n)
        return out

    def claimable_tenants(self) -> list[str]:
        """Tenants that currently have a claimable job (fairness input)."""
        now = time.time()
        with self._lock:
            rows = self._execute(
                "SELECT DISTINCT tenant FROM jobs"
                " WHERE (state = 'queued' AND not_before <= ?)"
                " OR (state = 'running' AND lease_expires IS NOT NULL"
                " AND lease_expires < ?)"
                " ORDER BY tenant",
                (now, now),
            ).fetchall()
        return [tenant for (tenant,) in rows]

    def __len__(self) -> int:
        return sum(self.counts().values())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> JobQueue:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
