"""Persistent candidate-result cache and depth-sweep checkpoints.

The search runtime treats a candidate evaluation as a pure function of

* the workload graphs (node/edge/weight content),
* the mixer tokens and QAOA depth ``p``,
* the full :class:`~repro.core.evaluator.EvaluationConfig` — every field,
  including the simulation ``engine`` and its ``array_backend``, so
  switching engines or array libraries (or changing their defaults) can
  never replay a stale result

so its result can be keyed by a stable fingerprint and stored on disk.
Repeat proposals within a search, repeated depths, and whole re-runs then
cost a lookup instead of a training loop. Storage is a single sqlite file
under ``cache_dir`` (WAL mode with a busy timeout, so the usual single
parent writer may be joined by sibling shard processes — see
``--shard-index`` in the CLI — without corruption), which survives kills
and is cheap to ship between machines. Writes are batched: ``put`` buffers
and every ``flush_every``-th put commits one transaction, so wide depths
pay one fsync per batch instead of per evaluation; the cache is therefore
also the **partial-depth checkpoint** — after a mid-depth kill, everything
up to the last flush is recovered by per-candidate lookups on restart.

Since the search service multiplexes N concurrent sweeps over one store,
:class:`ResultCache` is also **multi-tenant**: thread-safe throughout,
size-bounded via ``max_entries`` (LRU eviction that never touches
in-flight keys), and — with ``shared=True`` — coordinating: the first
sweep to claim a missing key evaluates it, every other sweep on the same
workload fingerprint waits for that put instead of duplicating the
training run.

:class:`SweepCheckpoint` lives in the same directory and records finished
*depths* of a sweep keyed by a fingerprint of everything that defines the
depth (workload + config + candidate list + p), so a killed search resumes
exactly where it stopped and a checkpoint can never be replayed against a
different search.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

from repro.core.evaluator import EvaluationConfig
from repro.core.results import CandidateEvaluation, DepthResult
from repro.graphs.generators import Graph
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "NullStore",
    "ResultCache",
    "SweepCheckpoint",
    "candidate_key",
    "config_fingerprint",
    "depth_fingerprint",
    "workload_fingerprint",
]


def _digest(payload: object) -> str:
    """Stable sha256 hex digest of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def workload_fingerprint(graphs: Sequence[Graph]) -> str:
    """Content hash of the workload: node counts, edges, and weights."""
    return _digest(
        [
            [g.num_nodes, [list(e) for e in g.edges], list(g.weights)]
            for g in graphs
        ]
    )


def config_fingerprint(config: EvaluationConfig) -> str:
    """Hash of every field that fixes how a candidate is trained/scored."""
    return _digest(asdict(config))


def candidate_key(
    workload_fp: str,
    tokens: Sequence[str],
    p: int,
    config_fp: str,
) -> str:
    """Cache key of one candidate evaluation."""
    return _digest([workload_fp, list(tokens), int(p), config_fp])


def depth_fingerprint(
    workload_fp: str,
    config_fp: str,
    candidates: Sequence[Sequence[str]],
    p: int,
) -> str:
    """Checkpoint key of one finished depth of a sweep (order-sensitive)."""
    return _digest([workload_fp, config_fp, [list(c) for c in candidates], int(p)])


# The cache's row payload is the same wire object the HTTP API and the
# result files use — CandidateEvaluation.to_dict/from_dict, one schema.
def _serialize_evaluation(evaluation: CandidateEvaluation) -> dict:
    return evaluation.to_dict()


def _deserialize_evaluation(data: dict) -> CandidateEvaluation:
    return CandidateEvaluation.from_dict(data)


class ResultCache:
    """On-disk candidate-evaluation store with hit/miss/eviction accounting.

    One sqlite file per ``cache_dir``; keys are the fingerprints above, so
    any change to the workload, the tokens, the depth, or the evaluation
    config invalidates naturally (the key changes, nothing is ever stale).

    ``flush_every`` batches commits: puts accumulate in an in-memory
    buffer (reads see them immediately) and every ``flush_every``-th put
    writes the batch in one transaction via ``executemany``. 1 (the
    default) keeps the historic commit-per-put durability; the search
    runtime raises it to amortize fsyncs across wide depths, bounding the
    work a mid-depth kill can lose to ``flush_every - 1`` evaluations.

    **Multi-tenancy.** All access is thread-safe (one lock guards the
    buffer, the counters, and the sqlite handle), so one instance can be
    shared by N concurrent sweeps — the search service's deployment shape.
    Two knobs turn the single-writer store into a shared one:

    * ``max_entries`` bounds the store with LRU eviction: every put stamps
      (and, when bounded, every hit refreshes) a ``last_used`` recency
      column, and each flush deletes the least-recently-used overflow.
      Keys that are **in flight** — claimed for evaluation, explicitly
      :meth:`pin`-ned, or still in the write buffer — are never evicted,
      so a result another tenant is about to read cannot vanish under it.
    * ``shared=True`` enables cross-tenant coordination: a tenant that
      misses calls :meth:`claim` before evaluating; the first claimant
      owns the evaluation and every other tenant :meth:`wait_for`-s the
      result instead of duplicating the training run. ``put`` resolves
      the claim and wakes the waiters; a failed owner calls
      :meth:`unclaim` so waiters fall back to evaluating themselves.
    """

    SCHEMA_VERSION = 1

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        flush_every: int = 1,
        max_entries: int | None = None,
        shared: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / "results.sqlite"
        self.flush_every = int(flush_every)
        self.max_entries = max_entries
        self.shared = bool(shared)
        # check_same_thread=False + self._lock: concurrent sweeps (service
        # threads) and the sharded runtime's parent thread share safely.
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # Shard processes (CLI --shard-index) share one results file; the
        # busy timeout serializes their commits instead of erroring out.
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " value TEXT NOT NULL,"
            " schema INTEGER NOT NULL)"
        )
        # Pre-eviction caches lack the recency column; migrate in place
        # (existing rows read as last_used=0, i.e. evicted first — correct,
        # nothing ever recorded using them).
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(results)")
        }
        if "last_used" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN last_used REAL NOT NULL DEFAULT 0"
            )
        self._conn.commit()
        self._lock = threading.RLock()
        self._available = threading.Condition(self._lock)
        self._buffer: dict[str, CandidateEvaluation] = {}
        self._pins: Counter[str] = Counter()
        self._claims: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.metrics = metrics
        self._m: dict[str, object] | None = None
        if metrics is not None:
            self._m = {
                "hits": metrics.counter(
                    "repro_cache_hits_total",
                    "Candidate lookups served from the cache",
                ),
                "misses": metrics.counter(
                    "repro_cache_misses_total",
                    "Candidate lookups that required an evaluation",
                ),
                "evictions": metrics.counter(
                    "repro_cache_evictions_total",
                    "Entries removed by LRU overflow eviction",
                ),
                "flush": metrics.histogram(
                    "repro_cache_flush_seconds",
                    "Commit latency of one buffered write batch",
                ),
                "claim_wait": metrics.histogram(
                    "repro_cache_claim_wait_seconds",
                    "Time a tenant waited on another tenant's claimed key",
                ),
            }

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a lifetime counter and, when wired, its metric mirror.
        Callers hold ``self._lock``."""
        setattr(self, name, getattr(self, name) + n)
        if self._m is not None:
            self._m[name].inc(n)

    # -- mapping interface -------------------------------------------------

    def get(self, key: str) -> CandidateEvaluation | None:
        with self._lock:
            buffered = self._buffer.get(key)
            if buffered is not None:
                self._count("hits")
                return buffered
            row = self._conn.execute(
                "SELECT value FROM results WHERE key = ? AND schema = ?",
                (key, self.SCHEMA_VERSION),
            ).fetchone()
            if row is None:
                self._count("misses")
                return None
            self._count("hits")
            if self.max_entries is not None:
                # LRU refresh only matters when eviction is on; unbounded
                # caches keep reads write-free.
                self._conn.execute(
                    "UPDATE results SET last_used = ? WHERE key = ?",
                    (time.time(), key),
                )
                self._conn.commit()
            return _deserialize_evaluation(json.loads(row[0]))

    def count_hit(self) -> None:
        """Record a hit served without a lookup (e.g. an in-depth repeat
        proposal fanned out from one training run)."""
        with self._lock:
            self._count("hits")

    def put(self, key: str, evaluation: CandidateEvaluation) -> None:
        with self._lock:
            self._buffer[key] = evaluation
            self._resolve_claim(key)
            if len(self._buffer) >= self.flush_every:
                self.flush()

    def flush(self) -> None:
        """Commit all buffered puts in one transaction, then evict LRU
        overflow (never in-flight/pinned/buffered keys)."""
        with self._lock:
            if self._buffer:
                t0 = time.perf_counter() if self._m is not None else 0.0
                now = time.time()
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results"
                    " (key, value, schema, last_used) VALUES (?, ?, ?, ?)",
                    [
                        (
                            key,
                            json.dumps(_serialize_evaluation(evaluation)),
                            self.SCHEMA_VERSION,
                            now,
                        )
                        for key, evaluation in self._buffer.items()
                    ],
                )
                written = len(self._buffer)
                self._conn.commit()
                self._buffer.clear()
                if self._m is not None:
                    elapsed = time.perf_counter() - t0
                    self._m["flush"].observe(elapsed)
                    self.metrics.trace_event(
                        "cache_flush", elapsed, entries=written
                    )
            self._evict_overflow()

    # -- multi-tenant coordination -----------------------------------------

    def pin(self, key: str) -> None:
        """Protect ``key`` from eviction until :meth:`unpin` (refcounted)."""
        with self._lock:
            self._pins[key] += 1

    def unpin(self, key: str) -> None:
        with self._lock:
            self._pins[key] -= 1
            if self._pins[key] <= 0:
                del self._pins[key]

    def claim(self, key: str) -> bool:
        """Register intent to evaluate ``key``; True = caller owns it.

        In shared mode the first claimant wins and later claimants get
        False (they should :meth:`wait_for` the owner's put instead of
        re-evaluating). A stored key cannot be claimed either: a tenant
        whose ``get`` missed just before the owner's put and whose claim
        lands just after it must collect that result, not retrain.
        Claimed keys are pinned against eviction. With ``shared=False``
        there are no competing tenants by contract, so every claim
        trivially succeeds.
        """
        if not self.shared:
            return True
        with self._lock:
            if key in self._claims or key in self:
                return False
            self._claims.add(key)
            self._pins[key] += 1
            return True

    def unclaim(self, key: str) -> None:
        """Drop an unfulfilled claim (evaluation failed or was abandoned),
        releasing any tenants waiting on it to fend for themselves."""
        with self._lock:
            self._resolve_claim(key)

    def wait_for(
        self, key: str, timeout: float | None = None
    ) -> CandidateEvaluation | None:
        """Block until ``key``'s claim resolves, then return its value.

        Returns None when the owner abandoned the claim without a put, or
        when ``timeout`` (seconds) expires first — the caller should then
        evaluate the candidate itself.
        """
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        with self._available:
            while key in self._claims:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._available.wait(remaining)
            if self._m is not None:
                elapsed = time.monotonic() - t0
                self._m["claim_wait"].observe(elapsed)
                self.metrics.trace_event("cache_claim_wait", elapsed, key=key)
            return self.get(key)

    def _resolve_claim(self, key: str) -> None:
        # lock held
        if key in self._claims:
            self._claims.remove(key)
            self.unpin(key)
            self._available.notify_all()

    # -- eviction ----------------------------------------------------------

    def _evict_overflow(self) -> None:
        # lock held, buffer already committed
        if self.max_entries is None:
            return
        total = int(
            self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        )
        excess = total - self.max_entries
        if excess <= 0:
            return
        protected = set(self._buffer) | set(self._pins) | set(self._claims)
        victims = [
            key
            for (key,) in self._conn.execute(
                "SELECT key FROM results ORDER BY last_used ASC, rowid ASC"
            )
            if key not in protected
        ][:excess]
        if not victims:
            return
        self._conn.executemany(
            "DELETE FROM results WHERE key = ?", [(key,) for key in victims]
        )
        self._conn.commit()
        self._count("evictions", len(victims))

    # -- sizing / lifecycle ------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            self.flush()
            return int(
                self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            )

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._buffer:
                return True
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ? AND schema = ?",
                (key, self.SCHEMA_VERSION),
            ).fetchone()
            return row is not None

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.close()

    def __enter__(self) -> ResultCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullStore:
    """The store of a sweep given neither ``cache=`` nor ``cache_dir``: it
    keeps nothing and every key is the caller's to evaluate. The runtime
    holds one so its per-candidate loop never asks whether a store exists."""

    evictions = 0

    def get(self, key: str) -> None:
        return None

    def count_hit(self) -> None:
        pass

    def claim(self, key: str) -> bool:
        return True

    def unclaim(self, key: str) -> None:
        pass

    def put(self, key: str, evaluation: CandidateEvaluation) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class SweepCheckpoint:
    """Depth-level checkpoint of a sweep, one JSON file per cache dir.

    ``save_depth`` is atomic (write-temp + rename), so a search killed
    mid-write leaves the previous checkpoint intact. Entries are keyed by
    :func:`depth_fingerprint`; loading with a key that does not match —
    because the workload, config, or candidate list changed — simply
    misses, it can never resurrect results for a different search.
    """

    FILENAME = "checkpoint.json"

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / self.FILENAME
        self._entries: dict[str, dict] = {}
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text())
            except (json.JSONDecodeError, OSError):
                data = {}
            if data.get("format") == "repro-sweep-checkpoint-v1":
                self._entries = data.get("depths", {})

    def load_depth(self, key: str) -> DepthResult | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        evaluations = tuple(
            _deserialize_evaluation(e) for e in entry["evaluations"]
        )
        # older entries lack the QASM; the runtime regenerates a missing one
        return DepthResult(
            entry["p"], evaluations, entry.get("seconds", 0.0), entry.get("best_qasm")
        )

    def save_depth(self, key: str, depth_result: DepthResult) -> None:
        entry = {
            "p": depth_result.p,
            "seconds": depth_result.seconds,
            "evaluations": [
                _serialize_evaluation(e) for e in depth_result.evaluations
            ],
            "best_qasm": depth_result.best_qasm,
        }
        stored = self._entries.get(key, {})
        if (
            stored.get("evaluations") == entry["evaluations"]
            and stored.get("best_qasm") == entry["best_qasm"]
        ):
            return  # a warm depth: the file already says this (older seconds stay)
        self._entries[key] = entry
        self._flush()

    def clear(self) -> None:
        self._entries = {}
        if self.path.exists():
            self.path.unlink()

    def __len__(self) -> int:
        return len(self._entries)

    def _flush(self) -> None:
        payload = {
            "format": "repro-sweep-checkpoint-v1",
            "depths": self._entries,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)
