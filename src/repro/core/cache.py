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
cost a lookup — one batched ``get_many`` per depth, whatever the store
holds — instead of a training loop. Storage is a single sqlite file under
``cache_dir`` (WAL mode with a busy timeout, so the usual single parent
writer may be joined by sibling shard processes — see ``--shard-index``
in the CLI — without corruption), which survives kills and is cheap to
ship between machines. Writes are batched: ``put`` buffers and every
``flush_every``-th put commits one transaction, so wide depths pay one
fsync per batch instead of per evaluation; the cache is therefore also
the **partial-depth checkpoint** — after a mid-depth kill, everything up
to the last flush is recovered by lookups on restart.

Since the search service multiplexes N concurrent sweeps over one store,
:class:`ResultCache` is also **multi-tenant**: thread-safe throughout,
size-bounded via ``max_entries`` (LRU eviction that never touches
in-flight keys), and — with ``shared=True`` — coordinating: the first
sweep to claim a missing key evaluates it, every other sweep on the same
workload fingerprint waits for that put instead of duplicating the
training run.

:class:`SweepCheckpoint` records finished *depths* as rows of the same
file, keyed by a fingerprint of everything that defines the depth
(workload + config + candidate list + p), so a killed search resumes
exactly where it stopped and a row is never replayed against a different
search. A row names its candidates by key, so a warm sweep costs O(depth)
statements however many sweeps the store has seen.

A process decodes each stored row once: every read (``get_many``,
``load_depth``, ``claim``/``in``, ``wait_for``) turns a row's JSON into a
:class:`~repro.core.results.CandidateEvaluation` through a bounded memo
keyed by that exact text (:data:`DECODE_MEMO`), never by the row's key, so
a rewritten row decodes afresh while a warm or resumed re-sweep, or a
tenant repeating a sweep, shares the objects an earlier read made. The
statements and counters are the same either way. :func:`candidate_key`
and :func:`depth_fingerprint` are memoized too (:data:`KEY_MEMO`,
:data:`DEPTH_MEMO`); a fresh sweep gains nothing from any of the three.

A store's connection outlives the store. :meth:`ResultCache.close` flushes,
then *parks* its connection in a process-wide slot keyed by the file's
``(st_dev, st_ino)``, and the next :class:`ResultCache` on that file takes
it instead of reconnecting, re-entering WAL and re-checking the schema. The
gain needs a process that reopens one ``cache_dir`` — a warm or resumed
re-sweep, a loop over ``api.search``; a one-shot ``repro search``, a fresh
sweep on a new directory and the service, which holds one store for its
whole life, open as before. Taking removes the connection from the slot,
so two live stores never share one. A parked connection whose path names
another file now, or none, is closed at the next park or fresh open. A
forked child starts with an empty slot, and at exit every parked
connection closes, so sqlite folds ``-wal`` back into the file and a
finished process leaves ``results.sqlite`` alone. While the process lives,
committed rows may sit in ``-wal``: ship a store after its process exits.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from repro.core.evaluator import EvaluationConfig
from repro.core.results import CandidateEvaluation, DepthResult
from repro.graphs.generators import Graph
from repro.obs.metrics import MetricsRegistry
from repro.qaoa import initialization

__all__ = [
    "NullStore",
    "ResultCache",
    "SweepCheckpoint",
    "candidate_key",
    "config_fingerprint",
    "depth_fingerprint",
    "workload_fingerprint",
]


#: most keys one ``IN (…)`` binds (old sqlite builds cap a statement at 999)
GET_CHUNK = 500


def _chunks(keys: Sequence[str]) -> Iterator[tuple[Sequence[str], str]]:
    """``keys`` in slices of at most :data:`GET_CHUNK`, each with its placeholders."""
    for start in range(0, len(keys), GET_CHUNK):
        chunk = keys[start:start + GET_CHUNK]
        yield chunk, ",".join("?" * len(chunk))


#: how long a statement waits on another connection's lock before failing
BUSY_SECONDS = 30.0


def _enter_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s file to WAL. Openers of one fresh file can deadlock
    on the switch, which sqlite reports at once as "database is locked"
    instead of waiting out the busy timeout: retry for as long as that."""
    deadline = time.monotonic() + BUSY_SECONDS
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.001)


def _has_recency_column(conn: sqlite3.Connection) -> bool:
    return any(row[1] == "last_used" for row in conn.execute("PRAGMA table_info(results)"))


def _open(path: str) -> sqlite3.Connection:
    """A new connection to the store file ``path``, in WAL with the busy
    timeout, both tables created and a pre-eviction table migrated."""
    # check_same_thread=False + the store's lock: concurrent sweeps (service
    # threads) and the sharded runtime's parent thread share safely.
    conn = sqlite3.connect(path, check_same_thread=False)
    # Shard processes (CLI --shard-index) share one results file; the
    # busy timeout serializes their commits instead of erroring out.
    conn.execute(f"PRAGMA busy_timeout={int(BUSY_SECONDS * 1000)}")
    _enter_wal(conn)
    # The columns of a migrated pre-eviction store, in its order.
    conn.execute(
        "CREATE TABLE IF NOT EXISTS results ("
        " key TEXT PRIMARY KEY,"
        " value TEXT NOT NULL,"
        " schema INTEGER NOT NULL,"
        " last_used REAL NOT NULL DEFAULT 0)"
    )
    # Pre-eviction caches lack the recency column; migrate in place
    # (existing rows read as last_used=0, i.e. evicted first — correct,
    # nothing ever recorded using them). Openers racing on one legacy
    # store re-check under the write lock, so exactly one adds it.
    if not _has_recency_column(conn):
        conn.execute("BEGIN IMMEDIATE")
        if not _has_recency_column(conn):
            conn.execute("ALTER TABLE results ADD COLUMN last_used REAL NOT NULL DEFAULT 0")
        conn.commit()
    # SweepCheckpoint's rows; keys is a JSON list in position order
    conn.execute(
        "CREATE TABLE IF NOT EXISTS depths ("
        " fingerprint TEXT PRIMARY KEY,"
        " p INTEGER NOT NULL,"
        " keys TEXT NOT NULL,"
        " seconds REAL NOT NULL,"
        " best_qasm TEXT)"
    )
    conn.commit()
    return conn


#: connections parked between a store's close and the next open of its file.
#: Worst case per entry: 3 fds (the file, its -wal, its -shm) and up to
#: sqlite's default 2 MB page cache, so a full slot holds 24 fds and ≈ 16 MB
PARKED_STORES = 8

FileIdentity = tuple[int, int]

#: file identity -> (path, connection), least recently parked first; emptied
#: in a forked child, whose copies are the parent's to use and close
_parked: OrderedDict[FileIdentity, tuple[str, sqlite3.Connection]] = OrderedDict()
_parked_lock = threading.Lock()
os.register_at_fork(after_in_child=_parked.clear)

#: what a closed store holds instead of a connection: every use raises
#: ``sqlite3.ProgrammingError``, so it never reaches one another store took
_CLOSED = sqlite3.connect(":memory:")
_CLOSED.close()


def _identity(path: str) -> FileIdentity | None:
    """``(st_dev, st_ino)`` of the file ``path`` names, or None."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


def _close(conn: sqlite3.Connection, moved: bool) -> None:
    """Close ``conn``. When its path names another file now (``moved``), its
    ``-wal`` may still sit at that path, where the next opener would read
    its frames as that file's: fold them into the old file first. Callers
    hold ``_parked_lock``, so no store opens the path in between."""
    try:
        if moved:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        conn.close()


def _close_moved() -> None:
    """Close every parked connection whose path no longer names its file
    (the directory was deleted, the file replaced). Callers hold
    ``_parked_lock``."""
    for identity in [key for key, (path, _) in _parked.items() if _identity(path) != key]:
        _close(_parked.pop(identity)[1], moved=True)


def _take(path: str) -> tuple[sqlite3.Connection, FileIdentity | None]:
    """A connection to the store file ``path`` and that file's identity:
    the one parked on it, removed from the slot, or else a new one."""
    identity = _identity(path)
    with _parked_lock:
        parked = _parked.pop(identity, None)
        if parked is None:
            _close_moved()
    if parked is not None:
        return parked[1], identity
    return _open(path), _identity(path)


def _park(conn: sqlite3.Connection, path: str, identity: FileIdentity | None) -> None:
    """Keep ``conn`` for the next store on its file — unless it is mid-
    transaction, its path names another file now, or the slot already holds
    one for that file — and close what the slot must give up."""
    with _parked_lock:
        _close_moved()
        moved = identity is None or _identity(path) != identity
        if moved or conn.in_transaction or identity in _parked:
            _close(conn, moved)
            return
        _parked[identity] = (path, conn)
        while len(_parked) > PARKED_STORES:
            _close(_parked.popitem(last=False)[1][1], moved=False)


@atexit.register
def close_parked_stores() -> None:
    """Close every parked connection (also runs at interpreter exit), so each
    store's last close folds its ``-wal`` back into ``results.sqlite``."""
    with _parked_lock:
        _close_moved()
        while _parked:
            _close(_parked.popitem()[1][1], moved=False)


#: candidate keys memoized per process: one per (candidate, depth, config),
#: ≈ 0.25 KB each with its digest, so a full memo holds ≈ 1 MB
KEY_MEMO = 4096
#: depth fingerprints memoized per process, one per (sweep, depth); an entry
#: keeps its candidate list alive, ≈ 73 KB at 1,000 candidates, so a full
#: memo of 1,000-candidate depths holds ≈ 4.7 MB
DEPTH_MEMO = 64
#: stored rows kept decoded per process, keyed by their text. An entry costs
#: ≈ 2.7× its text: ≈ 1.1 KB for a 2-graph depth-1 row, 12.7 KB for a
#: 10-graph depth-10 row, so a full memo holds ≈ 2.3 MB of the first and
#: ≈ 26 MB of the second; the text grows with graphs × p
DECODE_MEMO = 2048

#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``, built once
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _digest(payload: object) -> str:
    """Stable sha256 hex digest of a JSON-serializable payload."""
    return hashlib.sha256(_CANONICAL.encode(payload).encode("utf-8")).hexdigest()


def workload_fingerprint(graphs: Sequence[Graph]) -> str:
    """Content hash of the workload: node counts, edges, and weights."""
    return _digest(
        [
            [g.num_nodes, [list(e) for e in g.edges], list(g.weights)]
            for g in graphs
        ]
    )


def config_fingerprint(config: EvaluationConfig) -> str:
    """Hash of every setting that fixes how a candidate is trained/scored.

    Two retired fields keep their place in the payload, so rows written
    when they were settings stay hits: the Hadamard column every ansatz
    now prepends, and the uniform window now a constant."""
    settings = asdict(config)
    settings.update(initial_hadamard=True, init_scale=initialization.UNIFORM_SCALE)
    return _digest(settings)


def candidate_key(
    workload_fp: str,
    tokens: Sequence[str],
    p: int,
    config_fp: str,
) -> str:
    """Cache key of one candidate evaluation."""
    return _candidate_key(workload_fp, tuple(tokens), int(p), config_fp)


def depth_fingerprint(
    workload_fp: str,
    config_fp: str,
    candidates: Sequence[Sequence[str]],
    p: int,
) -> str:
    """Row key of one finished depth of a sweep (order-sensitive)."""
    return _depth_fingerprint(workload_fp, config_fp, tuple(map(tuple, candidates)), int(p))


# The two memos below see only str, int and tuples of str, whose equal
# values encode to identical JSON. The workload and config fingerprints
# stay unmemoized: graphs weighted 0.0 and -0.0 are equal and hash alike
# but encode apart, so a memo could hand two stores one key, and the config
# payload reads a module constant its argument does not carry.


@lru_cache(maxsize=KEY_MEMO)
def _candidate_key(workload_fp: str, tokens: tuple[str, ...], p: int, config_fp: str) -> str:
    return _digest([workload_fp, tokens, p, config_fp])


@lru_cache(maxsize=DEPTH_MEMO)
def _depth_fingerprint(
    workload_fp: str, config_fp: str, candidates: tuple[tuple[str, ...], ...], p: int
) -> str:
    return _digest([workload_fp, config_fp, candidates, p])


@lru_cache(maxsize=DECODE_MEMO)
def _decode(text: str) -> CandidateEvaluation:
    """The evaluation a stored row's JSON ``text`` holds, decoded once per
    process: keyed by the text, never the row's key, so a rewritten row
    decodes afresh. The result is frozen and holds only tuples, so every
    reader may share it."""
    return CandidateEvaluation.from_dict(json.loads(text))


class ResultCache:
    """On-disk candidate-evaluation store with hit/miss/eviction accounting.

    One sqlite file per ``cache_dir``; keys are the fingerprints above, so
    any change to the workload, the tokens, the depth, or the evaluation
    config invalidates naturally (the key changes, nothing is ever stale).
    A row's payload is the wire object the HTTP API and the result files
    use (``CandidateEvaluation.to_dict``), one schema.

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
      Keys that are **in flight** — claimed for evaluation or still in
      the write buffer — are never evicted, so a result another tenant is
      about to read cannot vanish under it.
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
        self._conn, self._file_identity = _take(str(self.path))
        self._lock = threading.RLock()
        self._available = threading.Condition(self._lock)
        self._buffer: dict[str, CandidateEvaluation] = {}
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
        if n:
            setattr(self, name, getattr(self, name) + n)
            if self._m is not None:
                self._m[name].inc(n)

    # -- mapping interface -------------------------------------------------

    def get(self, key: str) -> CandidateEvaluation | None:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list[CandidateEvaluation | None]:
        """Look ``keys`` up at once — the write buffer, then one ``SELECT`` per
        :data:`GET_CHUNK` keys: ``None`` per miss, each key one hit or miss."""
        with self._lock:
            found = self._fetch(keys)
            stored = [key for key in found if key not in self._buffer]
            if self.max_entries is not None and stored:
                # LRU refresh only matters when eviction is on; unbounded
                # caches keep reads write-free.
                now = time.time()
                for chunk, marks in _chunks(stored):
                    sql = f"UPDATE results SET last_used = ? WHERE key IN ({marks})"
                    self._conn.execute(sql, (now, *chunk))
                self._conn.commit()
            hits = sum(key in found for key in keys)
            self._count("hits", hits)
            self._count("misses", len(keys) - hits)
            return [found.get(key) for key in keys]

    def _fetch(self, keys: Sequence[str]) -> dict[str, CandidateEvaluation]:
        """The evaluations stored under ``keys``, absent ones left out; no
        counter moves. Callers hold ``self._lock``."""
        found = {key: self._buffer[key] for key in keys if key in self._buffer}
        for chunk, marks in _chunks([key for key in keys if key not in found]):
            sql = f"SELECT key, value FROM results WHERE schema = ? AND key IN ({marks})"
            for key, value in self._conn.execute(sql, (self.SCHEMA_VERSION, *chunk)):
                found[key] = _decode(value)
        return found

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
        """Commit all buffered puts in one transaction — with any write a
        caller holding the lock left pending, such as a depth row — then
        evict LRU overflow (never claimed or buffered keys)."""
        with self._lock:
            written = len(self._buffer)
            if written or self._conn.in_transaction:
                t0 = time.perf_counter() if self._m is not None else 0.0
                now = time.time()
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results"
                    " (key, value, schema, last_used) VALUES (?, ?, ?, ?)",
                    [
                        (
                            key,
                            json.dumps(evaluation.to_dict()),
                            self.SCHEMA_VERSION,
                            now,
                        )
                        for key, evaluation in self._buffer.items()
                    ],
                )
                self._conn.commit()
                self._buffer.clear()
                if self._m is not None and written:
                    elapsed = time.perf_counter() - t0
                    self._m["flush"].observe(elapsed)
                    self.metrics.trace_event(
                        "cache_flush", elapsed, entries=written
                    )
            self._evict_overflow()

    # -- multi-tenant coordination -----------------------------------------

    def claim(self, key: str) -> bool:
        """Register intent to evaluate ``key``; True = caller owns it.

        In shared mode the first claimant wins and later claimants get
        False (they should :meth:`wait_for` the owner's put instead of
        re-evaluating). A stored key cannot be claimed either: a tenant
        whose ``get`` missed just before the owner's put and whose claim
        lands just after it must collect that result, not retrain.
        Claimed keys are protected from eviction. With ``shared=False``
        there are no competing tenants by contract, so every claim
        trivially succeeds.
        """
        if not self.shared:
            return True
        with self._lock:
            if key in self._claims or key in self:
                return False
            self._claims.add(key)
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
            self._available.notify_all()

    # -- eviction ----------------------------------------------------------

    def _evict_overflow(self) -> None:
        # lock held, buffer already committed
        if self.max_entries is None:
            return
        (total,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        excess = total - self.max_entries
        if excess <= 0:
            return
        # the oldest rows, enough of them to skip every protected key
        protected = set(self._buffer) | self._claims
        oldest = self._conn.execute(
            "SELECT key FROM results ORDER BY last_used, rowid LIMIT ?",
            (excess + len(protected),),
        )
        victims = [(key,) for (key,) in oldest if key not in protected][:excess]
        if victims:
            self._conn.executemany("DELETE FROM results WHERE key = ?", victims)
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
            return key in self._fetch([key])

    def close(self) -> None:
        """Flush, then park the connection for the next store on this file
        (see the module docstring); this store keeps none, so any use after
        ``close`` raises ``sqlite3.ProgrammingError``."""
        with self._lock:
            self.flush()
            conn, self._conn = self._conn, _CLOSED
        _park(conn, str(self.path), self._file_identity)

    def __enter__(self) -> ResultCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullStore:
    """The store of a sweep given neither ``cache=`` nor ``cache_dir``: it
    keeps nothing and every key is the caller's to evaluate. The runtime
    holds one so its per-candidate loop never asks whether a store exists."""

    evictions = 0

    def get_many(self, keys: Sequence[str]) -> list[None]:
        return [None] * len(keys)

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
    """Depth-level checkpoint of a sweep: rows of its store's ``depths`` table.

    A row maps a :func:`depth_fingerprint` to the depth's ``p``, candidate
    keys, ``seconds`` and winner QASM; the evaluations stay in the rows
    those keys name. A row misses when its fingerprint does not match (the
    search changed) or one of its candidates was evicted (the depth reruns
    through lookups). Each row is its own upsert, so sweeps sharing a store
    never drop each other's depths.
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        # rows read or written here: fingerprint -> (p, keys, seconds, best_qasm) | None
        self._rows: dict[str, tuple | None] = {}

    def _row(self, key: str) -> tuple | None:
        if key not in self._rows:
            with self.cache._lock:
                row = self.cache._conn.execute(
                    "SELECT p, keys, seconds, best_qasm FROM depths WHERE fingerprint = ?", (key,)
                ).fetchone()
            self._rows[key] = row and (row[0], tuple(json.loads(row[1])), row[2], row[3])
        return self._rows[key]

    def load_depth(self, key: str) -> DepthResult | None:
        row = self._row(key)
        if row is None:
            return None
        with self.cache._lock:
            found = self.cache._fetch(row[1])
        if not found.keys() >= set(row[1]):
            return None  # a candidate was evicted
        # a NULL QASM is regenerated by the runtime
        return DepthResult(row[0], tuple(found[k] for k in row[1]), row[2], row[3])

    def stored_qasm(self, key: str, keys: Sequence[str]) -> str | None:
        """The winner's QASM row ``key`` recorded, when that row names
        exactly ``keys``: the same candidates, so the same winner."""
        row = self._row(key)
        return row[3] if row is not None and row[1] == tuple(keys) else None

    def save_depth(self, key: str, depth_result: DepthResult, keys: Sequence[str]) -> None:
        """Write the row in the transaction that flushes the store's
        buffered puts; a row that already records these keys and this
        QASM is left as it is (its older seconds stay)."""
        with self.cache._lock:
            stored = self._row(key)
            row = (depth_result.p, tuple(keys), depth_result.seconds, depth_result.best_qasm)
            if stored is None or (stored[1], stored[3]) != (row[1], row[3]):
                self.cache._conn.execute(
                    "INSERT OR REPLACE INTO depths VALUES (?, ?, ?, ?, ?)",
                    (key, row[0], json.dumps(row[1]), row[2], row[3]),
                )
                self._rows[key] = row
            if self.cache._buffer or self.cache._conn.in_transaction:
                self.cache.flush()
