#!/usr/bin/env python
"""Benchmark-smoke: tiny end-to-end runs of the search stack and the service.

Five independent checks (select one with ``--only
search|service|chaos|workloads|surrogate``):

**search** — one tiny cold + warm search through the full Algorithm 1
stack (enumeration → QBuilder → training → selection), the fault-tolerant
runtime, a persistent cache, and the compiled fast-path engine (requested
explicitly, so a broken ``engine="compiled"`` flag fails here rather than
in a user run). Asserts:

* the search finds a winner with a sane approximation ratio,
* the compiled engine agrees with the statevector oracle to 1e-10 on the
  winning candidate's energy (spot equivalence outside the unit suite),
* a repeated run with the warm cache performs zero candidate trainings,
* after one stored row's ``seconds`` is rewritten through ``sqlite3``, the
  next warm run in the same process reads the new value and every other
  field unchanged (rows are memoized by their text, never by their key),
* a ``resume=True`` run beside a garbage ``checkpoint.json`` (the retired
  depth-checkpoint file) restores every depth from the store's depth rows,
  submits no job, finds the same winner and leaves that file untouched,
* after ``shutil.rmtree`` of the warm ``cache_dir`` — whose connection
  the process keeps parked — a sweep on the same path misses every
  candidate and trains it again, to the cold run's results, and the next
  sweep is all hits,
* a child interpreter that runs two cached ``api.search`` sweeps of one
  ``cache_dir`` and exits leaves exactly ``results.sqlite`` there (the
  parked connection closed at exit, ``-wal`` folded back), which passes
  ``PRAGMA integrity_check``,
* a child interpreter that runs two ``api.search(workers=2)`` sweeps — the
  second on the worker processes the first one parked — and then one
  ``Config(workers=2, shards=2)`` sweep (two one-process lanes of one
  scheduler) whose evaluations equal the serial sweep's, exits 0 within
  10 s with no thread alive but the pools' collectors, and leaves none of
  those processes behind,
* the cold run stays inside a generous wall-clock budget, so order-of-
  magnitude runtime regressions fail CI without full-bench cost.

**service** — boots a :class:`~repro.service.server.SearchService`
in-process (HTTP server on an ephemeral port), submits the *same* sweep
from two clients concurrently, and asserts the ISSUE-6 acceptance
property: both sweeps complete with identical results, and the cache-hit
accounting proves every candidate was trained exactly once across the two
sweeps (one pays the misses, the fleet shares the hits). It then submits
ten specs none of whose candidates are stored (fresh seeds) and asserts the
wake-up: the median time a job waits for its claim is under half of the
multiplexer's ``POLL_INTERVAL``. Last, it re-submits the finished spec ten
times and asserts the stored path: each re-submit is ``done`` at its first
``/status`` with the first sweep's results, and no slot claimed any of them.
Then it starts two ``python -m repro serve --dir D --port 0`` processes at
once on one fresh ``D`` and asserts both answer ``/healthz``, a sweep
submitted to one is read ``done`` through the other with the in-process
sweep's results, and both drain and exit 0.

**chaos** — the ISSUE-7 hardening gate: runs the same two-sweep workload
through a deterministically fault-injected queue + the service's process
fleet (seeded worker raises, hangs, SIGKILLed worker processes, and sqlite
lock errors — see :mod:`repro.parallel.faults`) and asserts every job reaches a terminal
state, no candidate is trained twice, and the results match a fault-free
run exactly.

**workloads** — the workload-registry gate: for every registered problem
(maxcut, wmaxcut, maxsat, ising) it runs one tiny sweep through the CLI
entry point *and* one through the service's HTTP submit path, asserting
each finds a winner with a defined ratio, records its workload key in the
result config, and exports the winning circuit as OpenQASM equal byte for
byte to the flat export (the whole circuit built, bound and serialized)
that :func:`~repro.circuits.qasm.from_qasm` reads back.

**surrogate** — the surrogate-assisted-search gate: runs one sweep with
``--surrogate`` through the CLI and one through the service's HTTP
submit, asserting the trained ranker actually pruned candidates (the
skipped counter is nonzero in the result config and in the service's
``repro_surrogate_*`` metric families). Then it runs the CLI's
multi-process recipe with ``--surrogate --init-strategy interp`` on one
``--cache-dir``: ``--shards 2 --shard-index 0``, then ``--shard-index 1``,
then the merge run, which must have 0 misses and the plain run's winner
tokens, depth and energy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_SRC = "src"
sys.path.insert(0, REPO_SRC)

from repro.core.evaluator import EvaluationConfig  # noqa: E402
from repro.core.runtime import RuntimeConfig  # noqa: E402
from repro.core.search import SearchConfig, search_mixer  # noqa: E402
from repro.graphs.datasets import paper_er_dataset  # noqa: E402

#: generous ceiling — the run takes ~5 s on 2 CPU-throttled CI cores
COLD_BUDGET_SECONDS = 120.0


#: two sweeps on one parked fleet, a sharded one on a fleet of its own shape,
#: then a plain exit; prints the worker pids after each and the threads left
SEARCHES_THEN_EXIT = """
import threading
from dataclasses import replace
from repro.api import Config, search
from repro.parallel import executor
config = Config(k_min=2, k_max=2, steps=10, num_samples=4, optimizer="spsa", workers=2)
def fleet():
    print(*[pid for pool in executor._parked[0] for pid in pool.worker_pids()])
def trained(result):
    depths = result.depth_results
    return [(e.tokens, e.p, e.energy, e.best_params) for d in depths for e in d.evaluations]
for seed in (0, 1):
    search("er:2", depths=1, config=config)
    fleet()
sharded = search("er:2", depths=2, config=replace(config, shards=2))
assert trained(sharded) == trained(search("er:2", depths=2, config=replace(config, workers=0)))
assert sharded.config["executor"] == "sharded[multiprocessing]", sharded.config
assert sharded.config["dead_shards"] == [] and sharded.config["jobs_retried"] == 0
fleet()
print(*[t.name for t in threading.enumerate() if t is not threading.main_thread()])
"""


#: two cached sweeps of one ``cache_dir`` (the second all hits), then a plain exit
CACHED_SEARCHES_THEN_EXIT = """
import sys
from repro.api import Config, search
config = Config(k_min=1, k_max=1, steps=4, optimizer="spsa", cache_dir=sys.argv[1])
search("er:1", depths=1, config=config)
assert search("er:1", depths=1, config=config).config["cache_misses"] == 0
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def smoke_parked_fleet() -> None:
    child = subprocess.run(
        [sys.executable, "-c", SEARCHES_THEN_EXIT],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.PIPE, text=True, timeout=10,
    )
    assert child.returncode == 0, f"searches then exit: code {child.returncode}"
    first, second, lanes, threads = (line.split() for line in child.stdout.splitlines())
    assert first == second and len(first) == 2, (
        f"the second sweep must run on the first one's workers: {first} then {second}"
    )
    assert len(lanes) == 2 and not set(lanes) & set(first), (
        f"the sharded sweep runs on two pools of its own: {lanes} after {first}"
    )
    assert threads == ["mp-exec-collector"] * 2, (
        f"only the two pools' collectors may outlive a sharded sweep: {threads}"
    )
    deadline = time.monotonic() + 5
    while (
        orphans := [pid for pid in first + lanes if _running(int(pid))]
    ) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not orphans, f"worker processes outlived their interpreter: {orphans}"
    print(
        f"parked fleet: 2 sweeps on workers {first}, a 2-lane sharded sweep on "
        f"{lanes} equal to the serial one, none left after exit"
    )


def trained(result) -> list:
    """Every evaluation of ``result`` minus its wall-clock ``seconds``."""
    return [replace(e, seconds=0.0) for d in result.depth_results for e in d.evaluations]


def smoke_store_exit() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        child = subprocess.run(
            [sys.executable, "-c", CACHED_SEARCHES_THEN_EXIT, cache_dir],
            env={**os.environ, "PYTHONPATH": REPO_SRC}, timeout=60,
        )
        assert child.returncode == 0, f"cached searches then exit: code {child.returncode}"
        left = sorted(os.listdir(cache_dir))
        assert left == ["results.sqlite"], f"an exited process left {left} in its cache_dir"
        conn = sqlite3.connect(Path(cache_dir) / "results.sqlite")
        (check,) = conn.execute("PRAGMA integrity_check").fetchone()
        conn.close()
    assert check == "ok", f"the store an exited process left fails integrity_check: {check}"
    print("store exit: two cached sweeps, then only results.sqlite left, integrity ok")


def smoke_rewritten_row(graphs, config, runtime, warm) -> None:
    """Rewrite one stored row's ``seconds`` behind the store's back: the next
    warm sweep in this process must read the new value, not the decoded
    row it already holds, and every other field as before."""
    store = Path(runtime.cache_dir) / "results.sqlite"
    with sqlite3.connect(store) as conn:
        key, text = conn.execute("SELECT key, value FROM results ORDER BY key LIMIT 1").fetchone()
        row = json.loads(text)
        row["seconds"] += 1000.5
        conn.execute("UPDATE results SET value = ? WHERE key = ?", (json.dumps(row), key))
    conn.close()
    rewarmed = search_mixer(graphs, config, runtime=runtime)
    changed = 0
    for before, after in zip(warm.depth_results, rewarmed.depth_results):
        for old, new in zip(before.evaluations, after.evaluations):
            if (new.tokens, new.p) == (tuple(row["tokens"]), row["p"]):
                assert new.seconds == row["seconds"], "a rewritten row read back stale"
                new = replace(new, seconds=old.seconds)
                changed += 1
            assert new == old, f"{new.tokens} at p={new.p} changed beyond its seconds"
    assert changed == 1, f"the rewritten row was read {changed} times"
    print(f"rewritten row: seconds read back as {row['seconds']:.2f}, nothing else moved")


def smoke_search() -> int:
    graphs = paper_er_dataset(2)
    config = SearchConfig(
        p_max=2,
        k_min=2,
        k_max=2,
        mode="combinations",
        evaluation=EvaluationConfig(max_steps=20, seed=0, engine="compiled"),
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        runtime = RuntimeConfig(cache_dir=cache_dir)

        start = time.perf_counter()
        cold = search_mixer(graphs, config, runtime=runtime)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = search_mixer(graphs, config, runtime=runtime)
        warm_seconds = time.perf_counter() - start
        smoke_rewritten_row(graphs, config, runtime, warm)

        legacy = Path(cache_dir) / "checkpoint.json"
        legacy.write_bytes(b"\x00 not a checkpoint {")
        resumed = search_mixer(graphs, config, runtime=replace(runtime, resume=True))
        assert legacy.read_bytes() == b"\x00 not a checkpoint {", "checkpoint.json was touched"

        # The warm store's connection is parked; a new directory on the
        # same path must not be served by it.
        shutil.rmtree(cache_dir)
        refilled = search_mixer(graphs, config, runtime=runtime)
        rewarmed = search_mixer(graphs, config, runtime=runtime)

    print(
        f"cold: {cold.num_candidates} candidates in {cold_seconds:.1f}s; "
        f"winner {cold.best_tokens} at p={cold.best_p} "
        f"(ratio {cold.best_ratio:.4f})"
    )
    print(
        f"warm: {warm.config['cache_hits']} hits in {warm_seconds:.2f}s "
        f"({warm.config['jobs_submitted']} jobs submitted)"
    )

    assert cold.best_tokens, "search must produce a winner"
    assert 0.0 < cold.best_ratio <= 1.0 + 1e-9, "ratio out of range"

    # Spot-check the fast path against the oracle on the actual winner.
    from repro.qaoa.ansatz import build_qaoa_ansatz
    from repro.qaoa.energy import AnsatzEnergy

    ansatz = build_qaoa_ansatz(graphs[0], cold.best_p, cold.best_tokens)
    probe = [0.3] * ansatz.num_parameters
    fast = AnsatzEnergy(ansatz, engine="compiled").value(probe)
    dense = AnsatzEnergy(ansatz, engine="statevector").value(probe)
    assert abs(fast - dense) < 1e-10, (
        f"compiled engine drifted from the statevector oracle "
        f"({fast!r} vs {dense!r})"
    )
    print(f"engine parity on winner {cold.best_tokens}: |delta|={abs(fast - dense):.2e}")

    assert cold_seconds < COLD_BUDGET_SECONDS, (
        f"cold search took {cold_seconds:.1f}s — runtime regression "
        f"(budget {COLD_BUDGET_SECONDS:.0f}s)"
    )
    assert warm.config["cache_hits"] == warm.num_candidates, (
        "warm run must be served entirely from cache"
    )
    assert warm.config["jobs_submitted"] == 0
    assert warm.best_tokens == cold.best_tokens
    print(f"resume: {resumed.config['restored_depths']} depths restored")
    assert resumed.config["restored_depths"] == config.p_max, "resume must restore every depth"
    assert resumed.config["jobs_submitted"] == 0
    assert resumed.best_tokens == cold.best_tokens
    assert refilled.config["cache_hits"] == 0, "a recreated cache_dir must miss every candidate"
    assert refilled.config["jobs_submitted"] == refilled.num_candidates
    assert trained(refilled) == trained(cold), "a recreated cache_dir's sweep differs"
    assert rewarmed.config["cache_misses"] == 0, "the sweep after a refill must be all hits"
    print(
        f"recreated cache_dir: {refilled.config['cache_misses']} misses, "
        f"{refilled.config['jobs_submitted']} jobs, then {rewarmed.config['cache_hits']} hits"
    )
    smoke_store_exit()
    smoke_parked_fleet()
    print("benchmark smoke OK")
    return 0


def smoke_service() -> int:
    from repro.api import Config, connect
    from repro.service.multiplexer import POLL_INTERVAL
    from repro.service.server import SearchService, make_http_server

    config = Config(k_min=2, k_max=2, steps=10, num_samples=6, seed=1)

    with tempfile.TemporaryDirectory() as service_dir:
        service = SearchService(service_dir, max_concurrent=2, workers=2)
        server = make_http_server(service)  # ephemeral port
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]

        with service:
            client = connect(f"http://{host}:{port}")
            health = client.healthz()
            assert health["ok"] and health["executor"] == "multiprocessing"

            start = time.perf_counter()
            # Two identical sweeps in flight at once, one fleet, one cache.
            first = client.submit("er:2:7", depths=1, config=config)
            second = client.submit("er:2:7", depths=1, config=config)
            # /metrics must answer while sweeps are in flight
            midsweep = client.metrics()
            assert "repro_service_uptime_seconds" in midsweep
            assert "# TYPE repro_queue_jobs gauge" in midsweep
            results = [client.wait(j, timeout=300) for j in (first, second)]
            seconds = time.perf_counter() - start
            metrics_text = client.metrics()

            # The wake-up as a gate: a spec with nothing stored is claimed
            # when it is announced, not a poll interval later. (A stored one
            # is answered at submit and never claimed.)
            claim_waits = []
            for seed in range(2, 12):
                job = client.submit("er:2:7", depths=1, config=replace(config, seed=seed))
                client.wait(job, timeout=300)
                status = client.status(job)
                claim_waits.append(status["started_at"] - status["submitted_at"])
            metrics_after = client.metrics()

            # The stored path as a gate: a re-submit of the finished spec is
            # done at its first /status, with the same results, unclaimed.
            stored = []
            for _ in range(10):
                job = client.submit("er:2:7", depths=1, config=config)
                stored.append((client.status(job)["state"], client.result(job)))
            metrics_stored = client.metrics()

        server.shutdown()
        server.server_close()

    def series_value(name: str, text: str = metrics_text) -> float:
        for line in text.splitlines():
            if line.startswith(name + " ") or line.startswith(name + "{"):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    claim_wait = statistics.median(claim_waits)
    print(
        f"service: median claim wait of 10 unstored submits {claim_wait * 1e3:.1f} ms "
        f"(POLL_INTERVAL {POLL_INTERVAL * 1e3:.0f} ms)"
    )
    assert claim_wait < POLL_INTERVAL / 2, (
        f"a submit must wake an idle slot: median claim wait {claim_wait:.4f}s "
        f">= half of POLL_INTERVAL={POLL_INTERVAL}s"
    )
    claims = "repro_queue_claim_wait_seconds_count"
    assert series_value(claims, metrics_after) == series_value(claims) + 10

    def energies(result) -> list[float]:
        return [e.energy for d in result.depth_results for e in d.evaluations]

    for state, result in stored:
        assert state == "done", f"a stored re-submit read {state!r} at its first /status"
        assert (result.best_tokens, result.best_p, result.best_energy) == (
            results[0].best_tokens, results[0].best_p, results[0].best_energy
        ), "a sweep answered at submit must return the slot run's result"
        assert energies(result) == energies(results[0])
    assert series_value(claims, metrics_stored) == series_value(claims, metrics_after), (
        "a stored re-submit must complete at submit, never claimed by a slot"
    )
    print("service: 10 stored re-submits done at their first /status, unclaimed")

    # every instrumented layer must have reported: scheduler histogram +
    # counters, cache hit/miss, sweep outcomes
    assert series_value("repro_job_run_seconds_count") > 0
    assert series_value("repro_jobs_completed_total") > 0
    assert series_value("repro_cache_misses_total") > 0
    assert series_value("repro_cache_hits_total") > 0
    assert 'repro_sweeps_total{outcome="completed"} 2' in metrics_text

    hits = [r.config["cache_hits"] for r in results]
    misses = [r.config["cache_misses"] for r in results]
    candidates = results[0].num_candidates
    print(
        f"service: 2 concurrent sweeps x {candidates} candidates in "
        f"{seconds:.1f}s; hits per sweep {hits}, misses per sweep {misses}"
    )

    assert results[0].best_tokens == results[1].best_tokens
    assert results[0].best_energy == results[1].best_energy, (
        "concurrent sweeps over one cache must be single-sweep-identical"
    )
    assert sum(misses) == candidates, (
        f"every candidate must be trained exactly once across both sweeps "
        f"(trained {sum(misses)}, expected {candidates})"
    )
    assert sum(hits) == candidates, (
        f"cross-sweep sharing must serve the other sweep's lookups "
        f"(shared {sum(hits)}, expected {candidates})"
    )
    smoke_shared_dir(config)
    print("service smoke OK")
    return 0


def smoke_shared_dir(config) -> None:
    """Two ``repro serve`` processes started at once on one fresh ``--dir``
    share its queue and store: both come up, and a sweep submitted to one
    is read done through the other with the in-process sweep's results."""
    import re
    import signal

    from repro.api import connect, search

    env = {**os.environ, "PYTHONPATH": os.path.abspath(REPO_SRC)}
    with tempfile.TemporaryDirectory() as service_dir:
        command = [
            sys.executable, "-m", "repro", "serve", "--dir", service_dir,
            "--port", "0", "--workers", "1",
        ]
        servers = [
            subprocess.Popen(
                command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
            )
            for _ in range(2)
        ]
        try:
            banners = [server.stdout.readline() for server in servers]
            urls = [re.search(r"http://[\d.]+:\d+", banner) for banner in banners]
            assert all(urls), f"both services must start on one fresh --dir: {banners}"
            submitter, reader = (connect(url.group(0)) for url in urls)
            assert submitter.healthz()["ok"] and reader.healthz()["ok"]
            job = submitter.submit("er:2:7", depths=1, config=config)
            shared = reader.wait(job, timeout=300)
            assert reader.status(job)["state"] == "done"
        finally:
            for server in servers:
                server.send_signal(signal.SIGTERM)
            codes = [server.wait(timeout=60) for server in servers]
    alone = search("er:2:7", depths=1, config=config)
    assert (shared.best_tokens, shared.best_p, shared.best_energy) == (
        alone.best_tokens, alone.best_p, alone.best_energy
    ), "a sweep read through a sibling service must equal the in-process sweep"
    assert trained(shared) == trained(alone)
    assert codes == [0, 0], f"both services must drain and exit 0, got {codes}"
    print("service: two services started at once on one fresh --dir share its queue and store")


def smoke_chaos() -> int:
    import sqlite3

    from repro.api import Config, workload_to_wire
    from repro.core.cache import ResultCache
    from repro.core.results import SearchResult
    from repro.parallel.executor import MultiprocessingExecutor
    from repro.parallel.faults import (
        FaultInjectingExecutor,
        FaultInjectingJobQueue,
        FaultPlan,
    )
    from repro.service.jobs import TERMINAL_STATES, JobQueue
    from repro.service.multiplexer import SweepMultiplexer

    spec = {
        "workload": workload_to_wire("er:2:7"),
        "depths": 1,
        "config": Config(
            k_min=2, k_max=2, steps=10, num_samples=6, seed=1, retries=3
        ).to_dict(),
    }

    def run(root: Path, plan: FaultPlan | None):
        queue_args = dict(
            lease_seconds=1.0, max_attempts=5, backoff_base=0.02, backoff_cap=0.1
        )
        # the fleet the service runs, forked before any sqlite handle exists
        executor = MultiprocessingExecutor(2)
        if plan is None:
            queue = JobQueue(root, **queue_args)
        else:
            queue = FaultInjectingJobQueue(root, plan, **queue_args)
            executor = FaultInjectingExecutor(executor, plan)
        cache = ResultCache(root / "cache", flush_every=4, shared=True)

        def patient(fn, *args):
            for _ in range(60):
                try:
                    return fn(*args)
                except sqlite3.OperationalError:
                    time.sleep(0.02)
            return fn(*args)

        job_ids = [patient(queue.submit, spec) for _ in range(2)]
        multiplexer = SweepMultiplexer(
            queue, executor=executor, cache=cache, max_concurrent=2
        )
        multiplexer.start()
        deadline = time.monotonic() + 300
        try:
            while time.monotonic() < deadline:
                records = [patient(queue.get, job_id) for job_id in job_ids]
                if all(r.state in TERMINAL_STATES for r in records):
                    break
                time.sleep(0.05)
        finally:
            multiplexer.stop()
            executor.close()
            cache.close()
            if plan is not None:
                queue._plan = None
            records = [queue.get(job_id) for job_id in job_ids]
            queue.close()
        return records, executor

    plan = FaultPlan(
        11,
        worker_raises=0.15,
        worker_hangs=0.1,
        worker_kills=0.2,
        queue_locks=0.1,
        hang_seconds=0.02,
        max_faults_per_kind=12,
    )
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        chaotic, executor = run(Path(tmp) / "chaos", plan)
        calm, _ = run(Path(tmp) / "calm", None)
        seconds = time.perf_counter() - start

    injected = plan.injected
    print(
        f"chaos: 2 sweeps under {sum(injected.values())} injected faults "
        f"{injected} in {seconds:.1f}s; states "
        f"{[record.state for record in chaotic]}"
    )
    assert sum(injected.values()) > 0, "the chaos run must inject something"
    assert injected["kill"] > 0, "the chaos run must lose a worker process"
    assert all(record.state in TERMINAL_STATES for record in chaotic), (
        f"every job must terminate, got {[r.state for r in chaotic]}"
    )
    assert [record.state for record in chaotic] == ["done", "done"], (
        "this retry budget must absorb the injected faults cleanly"
    )
    assert executor.completed == 6, (
        f"candidates trained {executor.completed}, expected 6 (no double work)"
    )
    for noisy, quiet in zip(chaotic, calm):
        a = SearchResult.from_dict(noisy.result)
        b = SearchResult.from_dict(quiet.result)
        assert a.best_tokens == b.best_tokens
        assert a.best_energy == b.best_energy, (
            "faults must not change the science"
        )
    print("chaos smoke OK")
    return 0


def smoke_workloads() -> int:
    import json
    from pathlib import Path

    from repro.api import Config, connect, resolve_workload
    from repro.circuits.qasm import from_qasm, to_qasm
    from repro.cli import main as cli_main
    from repro.core.results import SearchResult
    from repro.qaoa.ansatz import build_qaoa_ansatz
    from repro.service.server import SearchService, make_http_server
    from repro.workloads import available_workloads, get_workload

    keys = available_workloads()
    config = Config(k_min=1, k_max=1, steps=10, seed=1)

    def check_export(key: str, result: SearchResult) -> None:
        """The shipped export is the flat one: the winner's whole circuit
        built on the first graph, bound and serialized gate by gate."""
        graph = resolve_workload(f"{get_workload(key).family}:1:5")[0]
        depth = result.depth_results[0]
        best = depth.best
        ansatz = build_qaoa_ansatz(graph, depth.p, best.tokens, workload=key)
        assert depth.best_qasm == to_qasm(ansatz.bind(best.best_params[0])), (
            f"{key}: the exported QASM differs from the flat export"
        )
        assert from_qasm(depth.best_qasm).num_qubits == graph.num_nodes

    # -- CLI path: one tiny sweep per problem family ------------------------
    with tempfile.TemporaryDirectory() as out_dir:
        for key in keys:
            out = Path(out_dir) / f"{key}.json"
            code = cli_main([
                "search", "--dataset", get_workload(key).family,
                "--graphs", "1", "--dataset-seed", "5", "--steps", "10",
                "--p-max", "1", "--k-min", "1", "--k-max", "1",
                "--out", str(out),
            ])
            assert code == 0, f"CLI sweep failed for workload {key!r}"
            saved = json.loads(out.read_text())
            assert saved["config"]["workload"] == key
            assert 0.0 < saved["best_ratio"] <= 1.0 + 1e-9, (
                f"{key}: ratio {saved['best_ratio']} out of range"
            )
            check_export(key, SearchResult.from_dict(saved))
            print(f"cli[{key}]: winner {tuple(saved['best_tokens'])} "
                  f"ratio {saved['best_ratio']:.4f}")

    # -- service path: submit the same families over HTTP -------------------
    with tempfile.TemporaryDirectory() as service_dir:
        service = SearchService(service_dir, max_concurrent=2, workers=2)
        server = make_http_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        with service:
            client = connect(f"http://{host}:{port}")
            jobs = {
                key: client.submit(
                    f"{get_workload(key).family}:1:5", depths=1, config=config
                )
                for key in keys
            }
            for key, job_id in jobs.items():
                result = client.wait(job_id, timeout=300)
                assert result.config["workload"] == key
                assert 0.0 < result.best_ratio <= 1.0 + 1e-9
                check_export(key, result)
                print(f"service[{key}]: winner {result.best_tokens} "
                      f"ratio {result.best_ratio:.4f}")
        server.shutdown()
        server.server_close()

    print(f"workloads smoke OK ({len(keys)} problems x 2 entry points)")
    return 0


def smoke_surrogate() -> int:
    import json
    from pathlib import Path

    from repro.api import Config, connect
    from repro.cli import main as cli_main
    from repro.service.server import SearchService, make_http_server

    # -- CLI path: a surrogate-assisted sweep must actually prune ----------
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir) / "surrogate.json"
        code = cli_main([
            "search", "--dataset", "er", "--graphs", "2", "--dataset-seed",
            "7", "--steps", "10", "--p-max", "3", "--k-min", "1", "--k-max",
            "2", "--mode", "combinations", "--surrogate", "--surrogate-keep",
            "0.4", "--explore-floor", "0.1", "--out", str(out),
        ])
        assert code == 0, "surrogate CLI sweep failed"
        saved = json.loads(out.read_text())
        assert saved["config"]["surrogate"] is True
        assert saved["config"]["surrogate_skipped"] > 0, (
            "the trained ranker must skip candidates at the later depths"
        )
        assert saved["config"]["surrogate_kept"] > 0
        assert 0.0 < saved["best_ratio"] <= 1.0 + 1e-9
        print(
            f"cli[surrogate]: winner {tuple(saved['best_tokens'])} "
            f"ratio {saved['best_ratio']:.4f}; "
            f"{saved['config']['surrogate_kept']} kept / "
            f"{saved['config']['surrogate_skipped']} skipped"
        )

    # -- CLI path: the ranker and INTERP compose with --shard-index ---------
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir)
        recipe = [
            "search", "--dataset", "er", "--graphs", "2", "--dataset-seed", "7",
            "--steps", "10", "--p-max", "3", "--k-min", "1", "--k-max", "2",
            "--surrogate", "--init-strategy", "interp",
        ]

        def sweep(name: str, *flags: str) -> dict:
            assert cli_main([*recipe, "--out", str(out / name), *flags]) == 0, name
            return json.loads((out / name).read_text())

        plain = sweep("plain.json")
        store = ("--cache-dir", str(out / "store"))
        for index in ("0", "1"):
            sweep(f"shard-{index}.json", *store, "--shards", "2", "--shard-index", index)
        merged = sweep("merged.json", *store)
        assert merged["config"]["cache_misses"] == 0, merged["config"]
        for field in ("best_tokens", "best_p", "best_energy"):
            assert merged[field] == plain[field], (field, merged[field], plain[field])
        print(
            f"cli[surrogate+interp, 2 shard processes]: merge of "
            f"{merged['config']['cache_hits']} hits, 0 misses; winner "
            f"{tuple(merged['best_tokens'])} at p={merged['best_p']}, as the plain run"
        )

    # -- service path: same sweep over HTTP submit -------------------------
    config = Config(
        k_min=1, k_max=2, mode="combinations", steps=10, seed=7,
        surrogate=True, surrogate_keep=0.4, explore_floor=0.1,
    )
    with tempfile.TemporaryDirectory() as service_dir:
        service = SearchService(service_dir, max_concurrent=2, workers=2)
        server = make_http_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        with service:
            client = connect(f"http://{host}:{port}")
            job_id = client.submit("er:2:7", depths=3, config=config)
            result = client.wait(job_id, timeout=300)
            metrics_text = client.metrics()
        server.shutdown()
        server.server_close()

    assert result.config["surrogate"] is True
    assert result.config["surrogate_skipped"] > 0
    print(
        f"service[surrogate]: winner {result.best_tokens} "
        f"ratio {result.best_ratio:.4f}; "
        f"{result.config['surrogate_kept']} kept / "
        f"{result.config['surrogate_skipped']} skipped"
    )

    def series_value(name: str) -> float:
        for line in metrics_text.splitlines():
            if line.startswith(name + " ") or line.startswith(name + "{"):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    assert series_value("repro_surrogate_candidates_kept_total") > 0
    assert series_value("repro_surrogate_candidates_skipped_total") > 0
    assert series_value("repro_surrogate_ranking_seconds_count") > 0
    print("surrogate smoke OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        choices=["search", "service", "chaos", "workloads", "surrogate"],
        default=None,
        help="run just one smoke (default: all)",
    )
    args = parser.parse_args()
    if args.only in (None, "search"):
        smoke_search()
    if args.only in (None, "service"):
        smoke_service()
    if args.only in (None, "chaos"):
        smoke_chaos()
    if args.only in (None, "workloads"):
        smoke_workloads()
    if args.only in (None, "surrogate"):
        smoke_surrogate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
