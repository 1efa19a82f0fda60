"""The composition matrix (ROADMAP aim 3), driven through ``api.search`` only
(the one leg it cannot reach — a cancel token — goes through the same configs).

Every search feature × every execution feature either reproduces the same
search feature's un-decorated run, evaluation for evaluation, or is
rejected with exactly one message: a row of ``repro.core.runtime.REJECTED``.
The column the matrix still lacks: a shared (multi-tenant) cache.
"""

import re
from dataclasses import replace
from functools import lru_cache

import pytest
from tests.conftest import evaluations, parked_pids

from repro.api import Config, ConfigError, resolve_workload, search
from repro.core import runtime
from repro.core.search import search_mixer
from repro.obs.progress import SweepProgress
from repro.parallel.executor import MultiprocessingExecutor
from repro.parallel.faults import FaultInjectingExecutor, FaultPlan

WORKLOAD, DEPTHS = "er:1", 2
BASE = Config(k_max=2, steps=8)

SEARCH_FEATURES = {
    "plain": {},
    "surrogate": dict(surrogate=True),
    "interp": dict(init_strategy="interp"),
    "surrogate+interp": dict(surrogate=True, init_strategy="interp"),
}

MESSAGE = {row.features: row.message for row in runtime.REJECTED}
#: the cells that land on a row of the table (both open today; closing them
#: is a ROADMAP item)
REJECTED = {
    ("surrogate", "shard_index"): MESSAGE["predictor or surrogate", "shard_index"],
    ("interp", "shard_index"): MESSAGE["init_strategy=interp", "shard_index"],
    ("surrogate+interp", "shard_index"): MESSAGE["init_strategy=interp", "shard_index"],
}


def run(feature, workload=WORKLOAD, base=BASE, executor=None, **execution):
    config = replace(base, **SEARCH_FEATURES[feature], **execution)
    return search(workload, depths=DEPTHS, config=config, executor=executor)


def workers(feature, tmp_path=None, **execution):
    """Twice: the second sweep runs on the workers the first one parked
    (with ``shards=2``: two one-process pools, a scheduler lane each)."""
    first = run(feature, **execution, workers=2)
    fleet = parked_pids()
    again = run(feature, **execution, workers=2)
    assert parked_pids() == fleet and len(fleet) == 2
    assert evaluations(again) == evaluations(first)
    return again


@lru_cache(maxsize=None)
def undecorated(feature):
    return evaluations(run(feature))


def cache_dir(feature, tmp_path):
    return run(feature, cache_dir=str(tmp_path))


def resume(feature, tmp_path):
    run(feature, cache_dir=str(tmp_path))
    resumed = run(feature, cache_dir=str(tmp_path), resume=True)
    assert resumed.config["restored_depths"] == DEPTHS
    return resumed


def shard_index(feature, tmp_path):
    for index in (0, 1):
        run(feature, cache_dir=str(tmp_path), shards=2, shard_index=index)
    merged = run(feature, cache_dir=str(tmp_path))
    assert merged.config["cache_misses"] == 0
    return merged


def cancel_then_resume(feature, tmp_path):
    """A token fired once depth 1 is checkpointed stops the sweep before
    depth 2; ``resume`` restores the one and trains the other."""
    config = replace(BASE, **SEARCH_FEATURES[feature], cache_dir=str(tmp_path))
    token = runtime.CancellationToken()

    class CancelAfterDepthOne(SweepProgress):
        def finish_depth(self, p):
            super().finish_depth(p)
            token.cancel("cancelled after depth 1")

    with pytest.raises(runtime.SweepCancelled, match="cancelled after depth 1"):
        search_mixer(
            resolve_workload(WORKLOAD), config.search_config(DEPTHS),
            runtime=config.runtime_config(), cancel=token, progress=CancelAfterDepthOne(),
        )
    resumed = run(feature, cache_dir=str(tmp_path), resume=True)
    assert resumed.config["restored_depths"] == 1
    assert resumed.config["cache_hits"] == 0 < resumed.config["cache_misses"]
    return resumed


def worker_kill(feature, tmp_path):
    """``SIGKILL`` from inside a candidate costs its attempt, nothing else."""
    plan = FaultPlan(5, worker_kills=0.3, max_faults_per_kind=2)
    with FaultInjectingExecutor(MultiprocessingExecutor(2), plan) as executor:
        result = run(feature, executor=executor)
    assert plan.injected["kill"] > 0  # vacuous otherwise
    assert result.config["jobs_retried"] >= plan.injected["kill"]
    return result


def shards_cancel_then_resume(feature, tmp_path):
    """A token fired *mid-depth* ends a two-lane sweep with three results in
    the store; ``resume`` finds no finished depth, those three as hits, and
    trains the rest."""
    config = replace(BASE, **SEARCH_FEATURES[feature], cache_dir=str(tmp_path), shards=2)
    token = runtime.CancellationToken()

    class CancelAfterThreeResults(SweepProgress):
        def record(self, p, n=1):
            super().record(p, n)
            if self.candidates_done == 3:
                token.cancel("cancelled mid-depth")

    with pytest.raises(runtime.SweepCancelled, match="cancelled mid-depth"):
        search_mixer(
            resolve_workload(WORKLOAD), config.search_config(DEPTHS),
            runtime=config.runtime_config(), cancel=token, progress=CancelAfterThreeResults(),
        )
    resumed = run(feature, cache_dir=str(tmp_path), shards=2, resume=True)
    assert resumed.config["restored_depths"] == 0
    assert resumed.config["cache_hits"] == 3
    assert resumed.config["jobs_submitted"] == resumed.num_candidates - 3
    return resumed


def shards_worker_kill(feature, tmp_path):
    """Kills on one of two one-process lanes are that lane's retries — its
    pool replaces the worker — never a dead shard."""
    plan = FaultPlan(5, worker_kills=0.3, max_faults_per_kind=2)
    with (
        FaultInjectingExecutor(MultiprocessingExecutor(1), plan) as faulty,
        MultiprocessingExecutor(1) as healthy,
    ):
        result = run(feature, executor=[faulty, healthy], shards=2)
    assert plan.injected["kill"] > 0  # vacuous otherwise
    assert result.config["jobs_retried"] >= plan.injected["kill"]
    assert result.config["dead_shards"] == []
    return result


EXECUTION_FEATURES = {
    "shards": lambda feature, tmp_path: run(feature, shards=2),
    "workers": workers,
    "shards+workers": lambda feature, tmp_path: workers(feature, shards=2),
    "shards+worker_kill": shards_worker_kill,
    "shards+cancel_then_resume": shards_cancel_then_resume,
    "cache_dir": cache_dir,
    "resume": resume,
    "shard_index": shard_index,
    "batch_serial": lambda feature, tmp_path: run(feature, batch_mode="serial"),
    "cancel_then_resume": cancel_then_resume,
    "worker_kill": worker_kill,
}


@pytest.mark.parametrize("execution", EXECUTION_FEATURES)
@pytest.mark.parametrize("feature", SEARCH_FEATURES)
def test_cell_composes_or_is_rejected_in_one_place(feature, execution, tmp_path):
    message = REJECTED.get((feature, execution))
    if message is not None:
        with pytest.raises(ConfigError, match=re.escape(message)):
            EXECUTION_FEATURES[execution](feature, tmp_path)
        return
    result = EXECUTION_FEATURES[execution](feature, tmp_path)
    assert evaluations(result) == undecorated(feature)


#: settings that switch on exactly the two features of each table row
TRIGGERS = {
    ("resume", "no cache_dir"): lambda tmp_path: dict(resume=True),
    ("init_strategy=interp", "shard_index"): lambda tmp_path: dict(
        init_strategy="interp", shards=2, shard_index=0, cache_dir=str(tmp_path / "store")
    ),
    ("predictor or surrogate", "shard_index"): lambda tmp_path: dict(
        surrogate=True, shards=2, shard_index=0, cache_dir=str(tmp_path / "store")
    ),
    ("shard_index", "no store"): lambda tmp_path: dict(shards=2, shard_index=0),
}


def test_every_row_of_the_table_has_a_trigger():
    assert set(TRIGGERS) == {row.features for row in runtime.REJECTED}


@pytest.mark.parametrize("row", runtime.REJECTED, ids=lambda row: " x ".join(row.features))
def test_every_rejection_is_its_rows_message(row, tmp_path, monkeypatch):
    """... and a refusal the configs alone decide costs nothing: no
    brute-forced optimum, no file created."""
    optima = []
    monkeypatch.setattr(
        runtime, "classical_optima", lambda *args: optima.append(args) or (1.0,) * len(args[0])
    )
    with pytest.raises(ConfigError) as rejected:
        search(WORKLOAD, depths=DEPTHS, config=replace(BASE, **TRIGGERS[row.features](tmp_path)))
    assert str(rejected.value) == row.message
    if row.checked == "configs":
        assert optima == []
        assert list(tmp_path.iterdir()) == []


def test_the_search_features_are_distinct_sweeps():
    """The matrix would be vacuous if a row silently ran the plain sweep."""
    rows = [undecorated(feature) for feature in SEARCH_FEATURES]
    assert len({tuple(map(str, row)) for row in rows}) == len(rows)


# -- the graph group ---------------------------------------------------------
#
# On ``er:1`` a candidate's group is never wider than one graph, and COBYLA
# (``BASE``'s trainer) never stacks. These rows train two graphs in lockstep.

GROUPED = dict(workload="er:2", base=replace(BASE, optimizer="spsa", restarts=2))


@lru_cache(maxsize=None)
def undecorated_grouped(feature):
    return evaluations(run(feature, **GROUPED))


@pytest.mark.parametrize("execution", ["workers", "cache_dir", "resume", "batched"])
@pytest.mark.parametrize("feature", SEARCH_FEATURES)
def test_grouped_cell_composes(feature, execution, tmp_path):
    if execution == "workers":
        result = workers(feature, **GROUPED)
    elif execution == "batched":
        result = run(feature, **GROUPED, batch_mode="batched")
    else:
        result = run(feature, **GROUPED, cache_dir=str(tmp_path))
        assert result.config["cache_misses"] > 0
        if execution == "resume":
            result = run(feature, **GROUPED, cache_dir=str(tmp_path), resume=True)
            assert result.config["restored_depths"] == DEPTHS
    assert evaluations(result) == undecorated_grouped(feature)


def test_the_grouped_rows_train_both_graphs_apart():
    """Vacuous otherwise: two graphs, two different trained energies."""
    for evaluation in undecorated_grouped("plain"):
        low, high = sorted(evaluation[4])
        assert low < high
