"""Persistent result cache: fingerprints, hit/miss accounting, checkpoints."""

import hashlib
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import cache as cache_module
from repro.core.cache import (
    DECODE_MEMO,
    GET_CHUNK,
    NotStored,
    NullStore,
    ResultCache,
    StoredOnly,
    SweepCheckpoint,
    candidate_key,
    config_fingerprint,
    depth_fingerprint,
    open_sqlite,
    workload_fingerprint,
)
from repro.core.evaluator import EvaluationConfig
from repro.core.results import CandidateEvaluation, DepthResult
from repro.graphs.generators import Graph, erdos_renyi_graph
from repro.qaoa import initialization
from repro.service.jobs import JobQueue
from repro.surrogate.config import SurrogateConfig

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (3, 4)]


def make_evaluation(tokens=("rx",), p=1, ratio=0.9):
    return CandidateEvaluation(
        tokens=tuple(tokens),
        p=p,
        energy=3.5,
        ratio=ratio,
        per_graph_energy=(3.4, 3.6),
        per_graph_ratio=(ratio, ratio),
        nfev=17,
        seconds=0.25,
    )


class TestFingerprints:
    def test_workload_fingerprint_stable(self, graphs):
        assert workload_fingerprint(graphs) == workload_fingerprint(list(graphs))

    def test_workload_fingerprint_sees_content(self, graphs):
        other = [erdos_renyi_graph(5, 0.6, seed=9, require_connected=True)]
        assert workload_fingerprint(graphs) != workload_fingerprint(other)
        assert workload_fingerprint(graphs) != workload_fingerprint(graphs[:1])

    def test_config_fingerprint_sees_every_field(self):
        base = EvaluationConfig(max_steps=10)
        assert config_fingerprint(base) == config_fingerprint(EvaluationConfig(max_steps=10))
        changed = [
            EvaluationConfig(max_steps=11),
            EvaluationConfig(max_steps=10, optimizer="spsa"),
            EvaluationConfig(max_steps=10, seed=8),
            EvaluationConfig(max_steps=10, restarts=2),
            EvaluationConfig(max_steps=10, metric="best_sampled"),
            EvaluationConfig(max_steps=10, init_strategy="ramp"),
            EvaluationConfig(max_steps=10, engine="statevector"),
            EvaluationConfig(max_steps=10, array_backend="mock_gpu"),
        ]
        for config in changed:
            assert config_fingerprint(config) != config_fingerprint(base)

    def test_the_on_disk_keys_are_literal_digests(self):
        """Cache rows and ``:surrogate-<fp>`` checkpoint suffixes already on
        disk stay hits: a cut setting keeps its place in these payloads."""
        assert config_fingerprint(EvaluationConfig()) == (
            "8f6992f61a3ca24929a00bbc676083768f070c7898272bcb22cce98cfa1df03d"
        )
        assert SurrogateConfig().fingerprint() == "ec167425ec204051"
        assert SurrogateConfig(enabled=True).fingerprint() == "ad106bbd48c5040b"

    @pytest.mark.parametrize(
        "config",
        [
            EvaluationConfig(),
            EvaluationConfig(max_steps=10, optimizer="spsa"),
            EvaluationConfig(seed=3, init_strategy="interp", restarts=2),
            EvaluationConfig(engine="statevector", metric="best_sampled", shots=64),
            EvaluationConfig(workload="ising", batch_mode="serial"),
        ],
    )
    def test_the_memoized_config_fingerprint_is_the_payload_digest(self, config):
        payload = asdict(config) | {
            "initial_hadamard": True, "init_scale": initialization.UNIFORM_SCALE,
        }
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert config_fingerprint(config) == expected
        hits = cache_module._config_fingerprint.cache_info().hits
        assert config_fingerprint(replace(config)) == expected  # an equal copy
        assert cache_module._config_fingerprint.cache_info().hits == hits + 1

    def test_a_retired_setting_still_moves_the_config_fingerprint(self, monkeypatch):
        before = config_fingerprint(EvaluationConfig())
        monkeypatch.setattr(initialization, "UNIFORM_SCALE", 0.25)
        assert config_fingerprint(EvaluationConfig()) != before

    def test_engine_is_part_of_the_runtime_payload_fingerprint(self):
        """Runtime job payloads are keyed by the config fingerprint, so a
        result trained on one engine can never be replayed as another's."""
        compiled = config_fingerprint(EvaluationConfig(engine="compiled"))
        dense = config_fingerprint(EvaluationConfig(engine="statevector"))
        assert compiled != dense

    def test_array_backend_is_part_of_the_fingerprint(self):
        """Like the engine: a result trained on one array backend can
        never be replayed as another's (results are pinned identical, but
        timings/accounting are not — and a buggy device backend must not
        poison numpy-keyed cache entries)."""
        numpy_fp = config_fingerprint(EvaluationConfig(array_backend="numpy"))
        mock_fp = config_fingerprint(EvaluationConfig(array_backend="mock_gpu"))
        assert numpy_fp != mock_fp

    def test_candidate_key_invalidation(self, graphs):
        wfp = workload_fingerprint(graphs)
        cfp = config_fingerprint(EvaluationConfig())
        base = candidate_key(wfp, ("rx", "ry"), 2, cfp)
        assert base == candidate_key(wfp, ("rx", "ry"), 2, cfp)
        assert base != candidate_key(wfp, ("ry", "rx"), 2, cfp)  # order matters
        assert base != candidate_key(wfp, ("rx", "ry"), 3, cfp)
        assert base != candidate_key("other", ("rx", "ry"), 2, cfp)
        assert base != candidate_key(wfp, ("rx", "ry"), 2, "other")

    def test_list_and_tuple_tokens_give_one_key(self):
        """The memoized keys are the digests of the payload as written."""
        expected = hashlib.sha256(b'["w",["rx","ry"],2,"c"]').hexdigest()
        assert candidate_key("w", ["rx", "ry"], 2, "c") == expected
        assert candidate_key("w", ("rx", "ry"), 2, "c") == expected
        assert candidate_key("w", ("rx", "ry"), np.int64(2), "c") == expected
        expected = hashlib.sha256(b'["w","c",[["rx"],["ry","rz"]],1]').hexdigest()
        assert depth_fingerprint("w", "c", [["rx"], ["ry", "rz"]], 1) == expected
        assert depth_fingerprint("w", "c", (("rx",), ("ry", "rz")), 1) == expected

    def test_equal_graphs_can_have_distinct_fingerprints(self):
        """Why ``workload_fingerprint`` is not memoized: graphs weighted 0.0
        and -0.0 compare equal and hash alike, so a memo keyed by the graphs
        would hand both workloads whichever key it computed first. (1 and
        1.0 never get this far: a ``Graph`` stores its weights as floats.)"""
        positive, negative = (Graph(2, ((0, 1),), (w,)) for w in (0.0, -0.0))
        assert positive == negative and hash(positive) == hash(negative)
        assert workload_fingerprint([positive]) != workload_fingerprint([negative])
        ints, floats = (Graph(2, ((0, 1),), (w,)) for w in (1, 1.0))
        assert workload_fingerprint([ints]) == workload_fingerprint([floats])

    def test_depth_fingerprint_sees_candidate_list(self):
        a = depth_fingerprint("w", "c", [("rx",), ("ry",)], 1)
        assert a == depth_fingerprint("w", "c", [("rx",), ("ry",)], 1)
        assert a != depth_fingerprint("w", "c", [("ry",), ("rx",)], 1)
        assert a != depth_fingerprint("w", "c", [("rx",)], 1)
        assert a != depth_fingerprint("w", "c", [("rx",), ("ry",)], 2)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            assert cache.get("k") is None
            assert (cache.hits, cache.misses) == (0, 1)
            cache.put("k", make_evaluation())
            roundtrip = cache.get("k")
            assert (cache.hits, cache.misses) == (1, 1)
        assert roundtrip == make_evaluation()

    def test_persists_across_reopen(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation(tokens=("rx", "ry"), p=2))
        with ResultCache(tmp_path) as cache:
            assert len(cache) == 1
            assert "k" in cache
            restored = cache.get("k")
        assert restored.tokens == ("rx", "ry")
        assert restored.p == 2

    def test_put_overwrites(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation(ratio=0.5))
            cache.put("k", make_evaluation(ratio=0.7))
            assert len(cache) == 1
            assert cache.get("k").ratio == 0.7

    def test_creates_cache_dir(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        with ResultCache(target):
            pass
        assert (target / "results.sqlite").exists()


COLUMNS = ["key", "value", "schema", "last_used"]
JOB_COLUMNS = [
    "id", "state", "spec", "result", "error", "submitted_at", "started_at", "finished_at",
    "tenant", "priority", "attempts", "not_before", "lease_expires", "owner",
    "cancel_requested",
]


def legacy_results(store):
    """A pre-eviction store holding one row: no ``last_used`` column."""
    store.execute(
        "CREATE TABLE results (key TEXT PRIMARY KEY,"
        " value TEXT NOT NULL, schema INTEGER NOT NULL)"
    )
    store.execute(
        "INSERT INTO results VALUES ('k', ?, ?)",
        (json.dumps(make_evaluation().to_dict()), ResultCache.SCHEMA_VERSION),
    )


def results_read_back(cache_dir):
    with ResultCache(cache_dir) as cache:
        assert cache.get("k") == make_evaluation()


def legacy_queue(store):
    """The first job queue's table, holding a running row with no lease."""
    store.execute(
        "CREATE TABLE jobs (id TEXT PRIMARY KEY, state TEXT NOT NULL,"
        " spec TEXT NOT NULL, result TEXT, error TEXT, submitted_at REAL NOT NULL,"
        " started_at REAL, finished_at REAL)"
    )
    store.execute(
        "INSERT INTO jobs (id, state, spec, submitted_at, started_at)"
        " VALUES ('j', 'running', '{\"depths\": 1}', 1.0, 2.0)"
    )


def queue_read_back(service_dir):
    """A leaseless running row can never expire, so the open requeued it."""
    with JobQueue(service_dir) as queue:
        record = queue.get("j")
    assert (record.state, record.started_at, record.attempts) == ("queued", None, 0)
    assert (record.tenant, record.owner, record.lease_expires) == ("default", None, None)


#: per sqlite file: its opener, its table's columns, a legacy file's
#: contents and what a migrated one must read
FILES = {
    "results": (ResultCache, COLUMNS, legacy_results, results_read_back),
    "jobs": (JobQueue, JOB_COLUMNS, legacy_queue, queue_read_back),
}


def open_together(directory, table, openers=4):
    """Open ``table``'s file in ``directory`` from ``openers`` threads
    released at once: the errors raised, and the columns of the table they
    left."""
    barrier = threading.Barrier(openers)
    errors = []

    def opener():
        barrier.wait()
        try:
            FILES[table][0](directory).close()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=opener) for _ in range(openers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    with sqlite3.connect(directory / f"{table}.sqlite") as store:
        columns = [row[1] for row in store.execute(f"PRAGMA table_info({table})")]
    return errors, columns


@pytest.mark.parametrize("table", sorted(FILES))
class TestFirstOpen:
    """Threads, shard processes or services opening one result store or
    job queue together all succeed: every file opens through ``open_sqlite``."""

    def test_openers_of_a_fresh_dir(self, tmp_path, table):
        for attempt in range(60):
            assert open_together(tmp_path / str(attempt), table) == ([], FILES[table][1])

    def test_openers_of_a_legacy_store_migrate_it_once(self, tmp_path, table):
        _, columns, legacy, read_back = FILES[table]
        for attempt in range(30):
            directory = tmp_path / str(attempt)
            directory.mkdir()
            with sqlite3.connect(directory / f"{table}.sqlite") as store:
                legacy(store)
            assert open_together(directory, table) == ([], columns)
            read_back(directory)


class TestOpenSqlite:
    """``open_sqlite`` is how every package sqlite file is opened."""

    @pytest.mark.parametrize("table", sorted(FILES))
    def test_every_file_waits_out_locks_in_wal(self, tmp_path, table):
        with FILES[table][0](tmp_path) as opened:
            conn = opened._conn
            assert conn.execute("PRAGMA busy_timeout").fetchone() == (
                int(cache_module.BUSY_SECONDS * 1000),
            )
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)

    def test_a_legacy_table_gains_each_missing_column(self, tmp_path):
        path = str(tmp_path / "t.sqlite")
        old = sqlite3.connect(path)
        old.execute("CREATE TABLE t (a TEXT PRIMARY KEY)")
        old.execute("INSERT INTO t VALUES ('x')")
        old.commit()
        old.close()
        tables = {"t": ("a TEXT PRIMARY KEY", "b INTEGER NOT NULL DEFAULT 7", "c REAL")}
        # the second open finds the table current and changes nothing
        for _ in range(2):
            conn = open_sqlite(path, tables)
            assert [row[1] for row in conn.execute("PRAGMA table_info(t)")] == ["a", "b", "c"]
            assert conn.execute("SELECT a, b, c FROM t").fetchall() == [("x", 7, None)]
            conn.close()

    def test_a_current_file_opens_under_another_writer(self, tmp_path, monkeypatch):
        """Only a migration takes the write lock: a service starting while
        another holds it opens at once instead of waiting it out."""
        path = str(tmp_path / "t.sqlite")
        tables = {"t": ("a TEXT PRIMARY KEY", "b REAL")}
        open_sqlite(path, tables).close()
        monkeypatch.setattr(cache_module, "BUSY_SECONDS", 0.2)
        writer = sqlite3.connect(path, isolation_level=None)
        writer.execute("BEGIN IMMEDIATE")
        try:
            conn = open_sqlite(path, tables)
            assert conn.execute("SELECT count(*) FROM t").fetchone() == (0,)
            conn.close()
        finally:
            writer.rollback()
            writer.close()

    def test_no_other_code_connects_to_a_file(self):
        """Besides ``open_sqlite``, only the closed-store sentinel connects,
        and it to ``:memory:``."""
        connects = [
            line.strip() for path in (SRC / "repro").rglob("*.py")
            for line in path.read_text().splitlines() if "sqlite3.connect(" in line
        ]
        assert sorted(connects) == [
            "_CLOSED = sqlite3.connect(\":memory:\")",
            "conn = sqlite3.connect(path, check_same_thread=False)",
        ]


class TestCommitBatching:
    def test_puts_buffer_until_flush_threshold(self, tmp_path):
        writer = ResultCache(tmp_path, flush_every=3)
        reader = ResultCache(tmp_path)  # separate connection: sees commits only
        writer.put("a", make_evaluation())
        writer.put("b", make_evaluation(("ry",)))
        assert reader.get("a") is None  # not committed yet...
        assert writer.get("a") == make_evaluation()  # ...but the writer sees it
        assert "a" in writer
        writer.put("c", make_evaluation(("rz",)))  # 3rd put commits the batch
        assert reader.get("a") is not None
        assert reader.get("c") is not None
        writer.close()
        reader.close()

    def test_close_flushes_pending(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as cache:
            cache.put("k", make_evaluation())
        with ResultCache(tmp_path) as cache:
            assert cache.get("k") == make_evaluation()

    def test_explicit_flush(self, tmp_path):
        writer = ResultCache(tmp_path, flush_every=100)
        reader = ResultCache(tmp_path)
        writer.put("k", make_evaluation())
        writer.flush()
        assert reader.get("k") is not None
        writer.close()
        reader.close()

    def test_len_accounts_for_buffered(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as cache:
            cache.put("k", make_evaluation())
            assert len(cache) == 1

    def test_invalid_flush_every(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            ResultCache(tmp_path, flush_every=0)


class TestGetMany:
    def test_one_slot_per_key_in_order(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("a", make_evaluation())
            cache.put("c", make_evaluation(("rz",)))
            assert cache.get_many(["c", "b", "a"]) == [
                make_evaluation(("rz",)), None, make_evaluation(),
            ]
            assert (cache.hits, cache.misses) == (2, 1)
            assert cache.get_many([]) == []
            assert (cache.hits, cache.misses) == (2, 1)

    def test_keys_beyond_one_statement_are_chunked(self, tmp_path):
        keys = [f"k{i}" for i in range(1200)]
        with ResultCache(tmp_path, flush_every=2000) as cache:
            for key in keys[::2]:
                cache.put(key, make_evaluation(ratio=int(key[1:]) / 1200))
            cache.flush()
            selects = []
            cache._conn.set_trace_callback(
                lambda sql: selects.append(sql) if sql.startswith("SELECT") else None
            )
            found = cache.get_many(keys)
            cache._conn.set_trace_callback(None)
        assert len(selects) == -(-1200 // GET_CHUNK) == 3
        assert [e is not None for e in found] == [i % 2 == 0 for i in range(1200)]
        assert found[1198].ratio == 1198 / 1200
        assert (cache.hits, cache.misses) == (600, 600)

    def test_unflushed_puts_are_served_from_the_buffer(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as cache:
            cache.put("a", make_evaluation())
            statements = []
            cache._conn.set_trace_callback(statements.append)
            assert cache.get_many(["a"]) == [make_evaluation()]
            assert statements == []  # nothing left to ask sqlite
            assert cache.get_many(["a", "b"]) == [make_evaluation(), None]
            cache._conn.set_trace_callback(None)
            assert (cache.hits, cache.misses) == (2, 1)

    def test_a_row_of_another_schema_is_a_miss(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation())
            cache._conn.execute(
                "UPDATE results SET schema = ? WHERE key = 'k'",
                (ResultCache.SCHEMA_VERSION + 1,),
            )
            cache._conn.commit()
            assert cache.get_many(["k"]) == [None]
            assert (cache.hits, cache.misses) == (0, 1)

    def test_a_bounded_store_refreshes_its_hits_in_one_statement(self, tmp_path):
        with ResultCache(tmp_path, max_entries=10) as cache:
            for key in "abc":
                cache.put(key, make_evaluation())
            statements = []
            cache._conn.set_trace_callback(statements.append)
            cache.get_many(["a", "b", "z"])
            cache._conn.set_trace_callback(None)
            assert [sql.split()[0] for sql in statements] == ["SELECT", "BEGIN", "UPDATE", "COMMIT"]
            used = dict(cache._conn.execute("SELECT key, last_used FROM results"))
            assert used["a"] == used["b"] > used["c"]

    def test_the_null_store_misses_every_key(self):
        assert NullStore().get_many(["a", "b"]) == [None, None]
        assert NullStore().get_many([]) == []


class TestStoredOnly:
    """The lookup-only view: reads book nothing until the sweep settles."""

    def test_a_missing_key_raises_and_books_nothing(self, tmp_path):
        with ResultCache(tmp_path, max_entries=10) as cache:
            cache.put("a", make_evaluation())
            cache.flush()
            store = StoredOnly(cache)
            statements = []
            cache._conn.set_trace_callback(statements.append)
            with pytest.raises(NotStored):
                store.get_many(["a", "z"])
            cache._conn.set_trace_callback(None)
            assert [sql.split()[0] for sql in statements] == ["SELECT"]
            assert (cache.hits, cache.misses) == (0, 0)

    def test_settle_books_what_get_many_and_count_hit_would(self, tmp_path):
        with ResultCache(tmp_path, max_entries=10) as cache:
            for key in "abc":
                cache.put(key, make_evaluation(tokens=(key,)))
            cache.flush()
            store = StoredOnly(cache)
            assert store.get_many(["a", "b"]) == cache.get_many(["a", "b"])
            store.count_hit()
            assert store.evictions == cache.evictions == 0
            assert (cache.hits, cache.misses) == (2, 0)
            before = dict(cache._conn.execute("SELECT key, last_used FROM results"))
            store.settle()
            assert (cache.hits, cache.misses) == (5, 0)
            used = dict(cache._conn.execute("SELECT key, last_used FROM results"))
            assert used["a"] == used["b"] > before["a"]
            assert used["c"] == before["c"]


class TestDecodeMemo:
    """A stored row decodes once per process, keyed by its exact text."""

    def test_a_rewritten_row_reads_back_new(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation())
            assert cache.get("k").seconds == 0.25  # decoded, and memoized
            with sqlite3.connect(tmp_path / "results.sqlite") as other:
                (text,) = other.execute("SELECT value FROM results WHERE key = 'k'").fetchone()
                row = json.loads(text)
                row["seconds"] = 9.5
                other.execute("UPDATE results SET value = ? WHERE key = 'k'", (json.dumps(row),))
            assert cache.get("k") == replace(make_evaluation(), seconds=9.5)
            (restored,) = cache.get_many(["k"])
            assert restored.seconds == 9.5

    def test_a_memoized_row_of_another_schema_is_a_miss(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation())
            assert cache.get("k") == make_evaluation()
            cache._conn.execute(
                "UPDATE results SET schema = ? WHERE key = 'k'",
                (ResultCache.SCHEMA_VERSION + 1,),
            )
            cache._conn.commit()
            assert cache.get("k") is None
            assert "k" not in cache
            assert (cache.hits, cache.misses) == (1, 1)

    def test_stores_holding_one_text_share_its_evaluation(self, tmp_path):
        for name in "ab":
            with ResultCache(tmp_path / name) as cache:
                cache.put("k", make_evaluation(("ry", "rz"), ratio=0.625))
        with ResultCache(tmp_path / "a") as a, ResultCache(tmp_path / "b") as b:
            first = a.get("k")
            assert b.get("k") is first
            assert a.get_many(["k", "k"]) == [first, first]
        assert first == make_evaluation(("ry", "rz"), ratio=0.625)

    def test_the_memo_stays_at_its_bound(self, tmp_path):
        keys = [f"k{i}" for i in range(DECODE_MEMO + 10)]
        with ResultCache(tmp_path, flush_every=len(keys)) as cache:
            for i, key in enumerate(keys):
                cache.put(key, make_evaluation(ratio=i / len(keys)))
            cache.flush()
            cache_module._decode.cache_clear()
            found = cache.get_many(keys)
        assert [e.ratio for e in found] == [i / len(keys) for i in range(len(keys))]
        info = cache_module._decode.cache_info()
        assert info.maxsize == DECODE_MEMO
        assert info.currsize == DECODE_MEMO


def is_closed(conn):
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


#: two cached sweeps of one ``cache_dir`` (the second all hits), then a plain exit
SEARCHES_THEN_EXIT = """
import sys
from repro.api import Config, search
config = Config(k_min=1, k_max=1, steps=4, optimizer="spsa", cache_dir=sys.argv[1])
search("er:1", depths=1, config=config)
assert search("er:1", depths=1, config=config).config["cache_misses"] == 0
"""


class TestParkedStores:
    """A closed store parks its connection for the next store on its file."""

    @pytest.fixture(autouse=True)
    def empty_slot(self):
        cache_module.close_parked_stores()
        yield
        cache_module.close_parked_stores()

    def test_a_reopen_takes_the_parked_connection(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation())
            conn = cache._conn
        with ResultCache(tmp_path) as cache:
            assert cache._conn is conn
            assert cache.get("k") == make_evaluation()
        assert list(cache_module._parked.values()) == [(str(tmp_path / "results.sqlite"), conn)]

    def test_a_recreated_directory_gets_a_fresh_connection(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResultCache(cache_dir) as cache:
            cache.put("k", make_evaluation())
            old = cache._conn
        shutil.rmtree(cache_dir)
        with ResultCache(cache_dir) as cache:
            assert cache._conn is not old
            assert is_closed(old)
            assert cache.get_many(["k"]) == [None]
            assert (cache.hits, cache.misses) == (0, 1)

    def test_a_legacy_store_moved_onto_a_parked_path_is_migrated(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResultCache(cache_dir) as cache:
            cache.put("parked", make_evaluation(("ry",)))  # its -wal keeps the row
        with sqlite3.connect(tmp_path / "legacy.sqlite") as legacy:  # no last_used
            legacy.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY,"
                " value TEXT NOT NULL, schema INTEGER NOT NULL)"
            )
            legacy.execute(
                "INSERT INTO results VALUES ('k', ?, ?)",
                (json.dumps(make_evaluation().to_dict()), ResultCache.SCHEMA_VERSION),
            )
        legacy.close()
        os.replace(tmp_path / "legacy.sqlite", cache_dir / "results.sqlite")
        with ResultCache(cache_dir) as cache:
            assert cache.get_many(["k", "parked"]) == [make_evaluation(), None]
        with sqlite3.connect(cache_dir / "results.sqlite") as store:
            assert [row[1] for row in store.execute("PRAGMA table_info(results)")] == COLUMNS
            assert store.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        store.close()

    def test_a_parked_connection_pins_no_snapshot(self, tmp_path):
        with ResultCache(tmp_path, max_entries=10) as cache:
            checkpoint = SweepCheckpoint(cache)
            keys, depth = stored_depth(cache, (make_evaluation(), make_evaluation(("ry",))))
            checkpoint.save_depth("fp1", depth, keys)
            assert checkpoint.load_depth("fp1") == depth
            assert checkpoint.stored_qasm("fp1", keys) is None
            assert cache.get_many(keys) == list(depth.evaluations)
            assert len(cache) == 2 and keys[0] in cache
        other = sqlite3.connect(tmp_path / "results.sqlite")
        assert other.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone() == (0, 0, 0)
        rewritten = replace(make_evaluation(), seconds=9.5)
        with other:
            other.execute(
                "UPDATE results SET value = ? WHERE key = ?",
                (json.dumps(rewritten.to_dict()), keys[0]),
            )
        other.close()
        with ResultCache(tmp_path) as cache:
            assert SweepCheckpoint(cache).load_depth("fp1").evaluations[0] == rewritten
            assert cache.get(keys[0]) == rewritten

    def test_a_closed_store_keeps_no_handle(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", make_evaluation())
        cache.close()
        with pytest.raises(sqlite3.ProgrammingError):
            cache.get("k")
        with pytest.raises(sqlite3.ProgrammingError):
            cache.close()
        with ResultCache(tmp_path) as reopened:
            assert reopened.get("k") == make_evaluation()

    def test_the_slot_stays_at_its_bound(self, tmp_path):
        conns = []
        for index in range(cache_module.PARKED_STORES + 2):
            with ResultCache(tmp_path / str(index)) as cache:
                conns.append(cache._conn)
        parked = [conn for _, conn in cache_module._parked.values()]
        assert parked == conns[2:]
        assert [is_closed(conn) for conn in conns] == [True, True] + [False] * len(parked)

    def test_a_deleted_directory_is_closed_at_the_next_park(self, tmp_path):
        with ResultCache(tmp_path / "gone") as cache:
            gone = cache._conn
        with ResultCache(tmp_path / "kept") as cache:
            kept = cache._conn
            shutil.rmtree(tmp_path / "gone")
        assert is_closed(gone) and not is_closed(kept)
        assert [conn for _, conn in cache_module._parked.values()] == [kept]

    def test_a_forked_child_finds_the_slot_empty(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("parent", make_evaluation())
            conn = cache._conn
        child = os.fork()
        if child == 0:
            code = 1
            try:
                if not cache_module._parked:
                    with ResultCache(tmp_path) as cache:
                        code = 0 if cache.get("parent") == make_evaluation() else 2
                        cache.put("child", make_evaluation(("ry",)))
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
        with ResultCache(tmp_path) as cache:
            assert cache._conn is conn
            assert cache.get_many(["parent", "child"]) == [
                make_evaluation(), make_evaluation(("ry",)),
            ]

    def test_threads_cycling_one_path_keep_every_row(self, tmp_path):
        barrier = threading.Barrier(4)
        errors = []

        def cycle(index):
            barrier.wait()
            try:
                for step in range(50):
                    with ResultCache(tmp_path) as cache:
                        cache.put(f"{index}-{step}", make_evaluation(ratio=step / 50))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=cycle, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache_module._parked) == 1
        with ResultCache(tmp_path) as cache:
            assert len(cache) == 200

    def test_an_exiting_process_leaves_one_file(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", SEARCHES_THEN_EXIT, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stdout
        assert [path.name for path in tmp_path.iterdir()] == ["results.sqlite"]
        with sqlite3.connect(tmp_path / "results.sqlite") as store:
            assert store.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        store.close()


def stored_depth(cache, evaluations, seconds=1.5, qasm=None):
    """Put ``evaluations`` under keys of their own: the keys, and the
    depth they make up."""
    keys = [f"{'-'.join(e.tokens)}@{e.ratio}" for e in evaluations]
    for key, evaluation in zip(keys, evaluations):
        cache.put(key, evaluation)
    return keys, DepthResult(1, tuple(evaluations), seconds, qasm)


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            evaluations = (make_evaluation(), make_evaluation(("ry",)), make_evaluation())
            keys, depth = stored_depth(cache, evaluations, qasm="OPENQASM 2.0;")
            SweepCheckpoint(cache).save_depth("fp1", depth, keys)
        with ResultCache(tmp_path) as cache:
            assert SweepCheckpoint(cache).load_depth("fp1") == depth
            assert (cache.hits, cache.misses) == (0, 0)  # a restore is no lookup

    def test_unknown_key_misses(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            keys, depth = stored_depth(cache, (make_evaluation(),))
            SweepCheckpoint(cache).save_depth("fp1", depth, keys)
            assert SweepCheckpoint(cache).load_depth("other-sweep") is None

    def test_a_row_with_an_evicted_candidate_misses(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            keys, depth = stored_depth(cache, (make_evaluation(), make_evaluation(("ry",))))
            SweepCheckpoint(cache).save_depth("fp1", depth, keys)
            cache._conn.execute("DELETE FROM results WHERE key = ?", (keys[1],))
            cache._conn.commit()
            assert SweepCheckpoint(cache).load_depth("fp1") is None

    def test_the_row_commits_with_the_depths_last_puts(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as writer, ResultCache(tmp_path) as reader:
            keys, depth = stored_depth(writer, (make_evaluation(), make_evaluation(("ry",))))
            assert reader.get_many(keys) == [None, None]  # still buffered
            commits = []
            writer._conn.set_trace_callback(
                lambda sql: commits.append(sql) if sql == "COMMIT" else None
            )
            SweepCheckpoint(writer).save_depth("fp1", depth, keys)
            assert commits == ["COMMIT"]
            assert SweepCheckpoint(reader).load_depth("fp1") == depth

    def test_a_warm_resave_writes_nothing(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            keys, depth = stored_depth(cache, (make_evaluation(),), qasm="OPENQASM 2.0;")
            SweepCheckpoint(cache).save_depth("fp1", depth, keys)
        with ResultCache(tmp_path) as cache:
            checkpoint = SweepCheckpoint(cache)
            assert checkpoint.stored_qasm("fp1", keys) == "OPENQASM 2.0;"
            written = cache._conn.total_changes
            # the same keys and QASM, timed again: nothing to record
            checkpoint.save_depth("fp1", replace(depth, seconds=0.001), keys)
            assert cache._conn.total_changes == written
            assert SweepCheckpoint(cache).load_depth("fp1").seconds == 1.5

    def test_changed_keys_or_qasm_are_rewritten(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            checkpoint = SweepCheckpoint(cache)
            keys, depth = stored_depth(cache, (make_evaluation(),), qasm="OPENQASM 2.0;")
            checkpoint.save_depth("fp1", depth, keys)
            changed = replace(depth, seconds=0.5, best_qasm="changed")
            checkpoint.save_depth("fp1", changed, keys)
            assert SweepCheckpoint(cache).load_depth("fp1") == changed
            assert SweepCheckpoint(cache).stored_qasm("fp1", keys) == "changed"
            other_keys, other = stored_depth(cache, (make_evaluation(("ry",)),), qasm="changed")
            assert checkpoint.stored_qasm("fp1", other_keys) is None  # another depth's keys
            checkpoint.save_depth("fp1", other, other_keys)
            assert SweepCheckpoint(cache).load_depth("fp1") == other

    def test_writers_sharing_a_store_keep_every_row(self, tmp_path):
        # two runtimes on one cache dir (two api.search threads, two CLI
        # processes) each hold a view; every writer's rows must survive
        errors = []

        def writer(index):
            try:
                with ResultCache(tmp_path) as cache:
                    checkpoint = SweepCheckpoint(cache)
                    for step in range(25):
                        evaluation = make_evaluation((f"w{index}",), ratio=step / 100)
                        keys, depth = stored_depth(cache, (evaluation,))
                        checkpoint.save_depth(f"w{index}-{step}", depth, keys)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        with ResultCache(tmp_path) as cache:
            checkpoint = SweepCheckpoint(cache)
            for index in range(4):
                for step in range(25):
                    restored = checkpoint.load_depth(f"w{index}-{step}")
                    assert restored.evaluations[0].ratio == step / 100
