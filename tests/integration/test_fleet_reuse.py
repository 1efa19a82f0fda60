"""The fleet outlives the call: ``api.search(workers=N)`` parks its worker
processes for the next sweep (``repro.parallel.executor.leased_fleet``).

What must hold across that reuse: the same processes serve the next call, a
different shape or a failed sweep leaves none behind, nothing survives the
interpreter — and no result can tell a reused worker from a fresh one.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from tests.conftest import parked_pids

from repro.api import Config, resolve_workload, search
from repro.core import runtime
from repro.core.search import search_mixer
from repro.obs.progress import SweepProgress
from repro.parallel.executor import MultiprocessingExecutor, leased_fleet
from repro.parallel.jobs import JobFailedError

SRC = Path(__file__).resolve().parents[2] / "src"
TINY = Config(k_min=2, k_max=2, steps=5, num_samples=4, seed=3, optimizer="spsa", workers=2)


def exact(result, *, config: bool = True) -> dict:
    """``asdict`` minus the wall clocks, floats as ``float.hex``; without
    ``config``, what a ``workers=0`` twin must share."""

    def walk(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items() if k not in ("seconds", "total_seconds")}
        if isinstance(value, list | tuple):
            return [walk(v) for v in value]
        return value

    dump = walk(asdict(result))
    if not config:
        del dump["config"]
    return dump


def children() -> int:
    return len(mp.active_children())


@pytest.fixture
def pools_built(monkeypatch):
    """Sizes of the pools forked while the test runs, in order."""
    built = []
    init = MultiprocessingExecutor.__init__

    def spy(self, num_workers=None, **kwargs):
        built.append(num_workers)
        init(self, num_workers, **kwargs)

    monkeypatch.setattr(MultiprocessingExecutor, "__init__", spy)
    return built


class TestTheSameProcessesServeTheNextCall:
    def test_sequential_searches_run_on_one_fleet(self, pools_built):
        first = search("er:1", depths=1, config=TINY)
        pids = parked_pids()
        second = search("er:1", depths=1, config=replace(TINY, seed=4))
        assert parked_pids() == pids and len(pids) == 2
        assert pools_built == [2]
        for result in (first, second):
            assert result.config["executor"] == "multiprocessing"
            assert result.config["num_workers"] == 2
            assert result.config["jobs_submitted"] == 4

    def test_twenty_searches_leave_exactly_two_children(self, pools_built):
        before = children()
        for seed in range(20):
            search("er:1", depths=1, config=replace(TINY, seed=seed))
        assert children() - before == 2 and pools_built == [2]

    @pytest.mark.parametrize(
        "workers, shards, pools",
        [(2, 3, [1, 1, 1]), (5, 2, [3, 2]), (4, 2, [2, 2]), (1, 2, None), (3, 1, [3])],
    )
    def test_num_workers_is_what_was_forked_and_every_shape_is_reused(
        self, workers, shards, pools, pools_built
    ):
        """One process per shard is the floor (``workers=2, shards=3`` runs
        three) and a remainder goes to the first shards; under the lease a
        list of pools parks and is taken again like a single one."""
        config = replace(TINY, workers=workers, shards=shards)
        first = search("er:1", depths=1, config=config)
        pids = parked_pids()
        second = search("er:1", depths=1, config=config)
        assert pools_built == (pools or []) and parked_pids() == pids
        assert len(pids) == sum(pools or [])
        assert first.config["num_workers"] == second.config["num_workers"] == (
            sum(pools) if pools else shards  # serial: one inline executor per shard
        )
        assert exact(first) == exact(second)

    def test_another_workers_or_shards_replaces_the_parked_fleet(self, pools_built, still_running):
        before = children()
        seen = []
        for workers, shards in ((2, 1), (2, 2), (3, 1), (2, 1)):
            config = replace(TINY, workers=workers, shards=shards)
            result = search("er:1", depths=1, config=config)
            assert children() - before == result.config["num_workers"]
            seen.append(parked_pids())
        assert pools_built == [2, 1, 1, 3, 2]
        assert still_running([pid for pids in seen[:-1] for pid in pids]) == []

    def test_an_explicit_executor_is_left_alone(self, pools_built):
        search("er:1", depths=1, config=TINY)
        pids = parked_pids()
        with MultiprocessingExecutor(1) as own:
            result = search("er:1", depths=1, config=TINY, executor=own)
            assert parked_pids() == pids  # neither taken nor replaced
        assert result.config["num_workers"] == 1 and pools_built == [2, 1]


class TestAFailedSweepLeavesNothingBehind:
    def test_a_sweep_that_raises(self, still_running):
        search("er:1", depths=1, config=TINY)
        pids = parked_pids()
        before = children()
        with pytest.raises(JobFailedError):  # no candidate trains in 0.1 ms
            search("er:1", depths=1, config=replace(TINY, retries=0, job_timeout=1e-4))
        assert parked_pids() == [] and still_running(pids) == []
        assert children() == before - 2

    def test_a_cancelled_sweep(self, still_running):
        token = runtime.CancellationToken("cancelled after depth 1")

        class CancelAfterDepthOne(SweepProgress):
            def finish_depth(self, p):
                super().finish_depth(p)
                token.cancel()

        with pytest.raises(runtime.SweepCancelled, match="cancelled after depth 1"):
            with leased_fleet([2]) as (pool,):
                pids = pool.worker_pids()
                search_mixer(
                    resolve_workload("er:1"), TINY.search_config(2), executor=pool,
                    cancel=token, progress=CancelAfterDepthOne(),
                )
        assert parked_pids() == [] and still_running(pids) == []

    def test_a_child_interpreter_takes_its_workers_with_it(self, still_running):
        """Two searches, then a plain exit: the ``atexit`` hook stops the
        parked workers. The second search trains with COBYLA on workers
        forked before the parent had imported scipy — each imports it
        itself — and both equal their serial twins here."""
        script = (
            "import json, sys\n"
            "from repro.api import search\n"
            "from tests.conftest import parked_pids\n"
            "from tests.integration.test_fleet_reuse import TINY, exact\n"
            "from dataclasses import replace\n"
            "out = []\n"
            "for optimizer in ('spsa', 'cobyla'):\n"
            "    loaded = 'scipy.optimize' in sys.modules\n"
            "    result = search('er:1', depths=1, config=replace(TINY, optimizer=optimizer))\n"
            "    out.append([loaded, parked_pids(), exact(result, config=False)])\n"
            "print(json.dumps(out))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], cwd=SRC.parent,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, text=True, timeout=30,
        )
        assert child.returncode == 0
        (_, spsa_pids, spsa), (scipy_loaded, cobyla_pids, cobyla) = json.loads(child.stdout)
        assert not scipy_loaded  # the fleet was forked without it
        assert spsa_pids == cobyla_pids and len(spsa_pids) == 2
        assert still_running(spsa_pids) == []
        for optimizer, dump in (("spsa", spsa), ("cobyla", cobyla)):
            twin = search("er:1", depths=1, config=replace(TINY, optimizer=optimizer, workers=0))
            assert dump == json.loads(json.dumps(exact(twin, config=False)))


def test_results_cannot_tell_a_reused_fleet_from_a_fresh_pool(pools_built):
    """``spsa`` → ``cobyla`` → ``nelder_mead`` on ONE parked fleet: each
    sweep equals its serial twin evaluation for evaluation and a per-call
    pool of its own in every field but the clocks."""
    base = replace(TINY, num_samples=None, steps=12, restarts=2)
    on_the_fleet = {
        optimizer: search("er:2", depths=2, config=replace(base, optimizer=optimizer))
        for optimizer in ("spsa", "cobyla", "nelder_mead")
    }
    assert pools_built == [2]
    for optimizer, result in on_the_fleet.items():
        config = replace(base, optimizer=optimizer)
        serial = search("er:2", depths=2, config=replace(config, workers=0))
        assert exact(result, config=False) == exact(serial, config=False)
        with MultiprocessingExecutor(2) as own:
            per_call = search("er:2", depths=2, config=config, executor=own)
        assert exact(result) == exact(per_call)
