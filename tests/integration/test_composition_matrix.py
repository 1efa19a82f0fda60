"""The composition property (ROADMAP aim 3), driven through ``api.search``
(a cancel token through ``search_mixer``, with the same configs). Hypothesis
draws the search features (surrogate, INTERP), a workload (``er:1`` under
COBYLA, or the ``er:2`` two-graph SPSA group) and a subset of the execution
features. Every draw either reproduces the same search features' plain
serial run, evaluation for evaluation, or is refused with exactly one
message: the first row of ``repro.core.runtime.REJECTED`` whose two features
it switches on. The last sweep's counts must say how it got there: what a
resume restored, what a cancel left stored, that a killed worker cost a
retry and never a lane. Each cell of the grid this property replaced is a
test of its own that runs the same check.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack, closing, nullcontext, suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests.conftest import evaluations, parked_pids

from repro.api import Config, ConfigError, resolve_workload, search
from repro.core import runtime
from repro.core.cache import NotStored, ResultCache, StoredOnly
from repro.core.search import search_mixer
from repro.obs.progress import SweepProgress
from repro.parallel.executor import MultiprocessingExecutor
from repro.parallel.faults import FaultInjectingExecutor, FaultPlan

DEPTHS = 2
#: the two workloads, each with the batch mode ``"auto"`` picks: ``er:1``
#: under COBYLA, which never stacks, and a group that trains two graphs in
#: lockstep (serial restarts differ from batched ones by round-off there)
BASES = {
    False: ("er:1", Config(k_max=2, steps=8), "serial"),
    True: ("er:2", Config(k_max=2, steps=8, optimizer="spsa", restarts=2), "batched"),
}
#: where the first of two runs stops before the second resumes it: not at
#: all, once depth 1 is checkpointed, or mid-depth
STOPS = (None, "sweep", "depth", "3 results")


@dataclass(frozen=True)
class Case:
    surrogate: bool = False
    interp: bool = False
    grouped: bool = False
    batch_mode: bool = False  # spell out the mode "auto" picks
    workers: bool = False  # workers=2: a leased fleet
    shards: bool = False  # shards=2: two scheduler lanes
    shard_index: bool = False  # each index run, then the merge run
    cache_dir: bool = False
    shared: bool = False  # a cache= store
    kill: bool = False  # the first attempt's worker is SIGKILLed
    probe: bool = False  # then a lookup-only (StoredOnly) run
    resume: str | None = None  # one of STOPS


#: a case that switches on exactly the two features of each row
TRIGGERS = {
    ("resume", "no cache_dir"): Case(resume="sweep"),
    ("shard_index", "no store"): Case(shard_index=True),
}

#: the search features, by the names the grid's cells carry: (surrogate, interp)
SEARCH_FEATURES = {
    "plain": (False, False), "surrogate": (True, False),
    "interp": (False, True), "surrogate+interp": (True, True),
}
#: the execution features of the grid this property replaced, per workload
GRID = {
    False: {
        "shards": dict(shards=True), "workers": dict(workers=True),
        "shards+workers": dict(shards=True, workers=True),
        "shards+worker_kill": dict(shards=True, kill=True),
        "shards+cancel_then_resume": dict(shards=True, cache_dir=True, resume="3 results"),
        "cache_dir": dict(cache_dir=True), "resume": dict(cache_dir=True, resume="sweep"),
        "shard_index": dict(cache_dir=True, shard_index=True),
        "batch_serial": dict(batch_mode=True),
        "cancel_then_resume": dict(cache_dir=True, resume="depth"),
        "worker_kill": dict(kill=True),
    },
    True: {
        "workers": dict(workers=True), "cache_dir": dict(cache_dir=True),
        "resume": dict(cache_dir=True, resume="sweep"), "batched": dict(batch_mode=True),
    },
}


def config_of(case, tmp):
    workload, base, spelled = BASES[case.grouped]
    return workload, replace(
        base, surrogate=case.surrogate, resume=case.resume is not None,
        init_strategy="interp" if case.interp else base.init_strategy,
        batch_mode=spelled if case.batch_mode else "auto",
        workers=2 if case.workers else 0, shards=2 if case.shards else 1,
        cache_dir=str(tmp / "dir") if case.cache_dir else None,
    )


@lru_cache(maxsize=None)
def plain(grouped, surrogate, interp):
    workload, config = config_of(Case(surrogate, interp, grouped), None)
    return evaluations(search(workload, depths=DEPTHS, config=config))


class StopAt(SweepProgress):
    def __init__(self, at):
        super().__init__()
        self.at, self.token = at, runtime.CancellationToken()

    def finish_depth(self, p):
        super().finish_depth(p)
        if self.at == "depth":
            self.token.cancel()

    def record(self, p, n=1):
        super().record(p, n)
        if self.at == "3 results" and self.candidates_done >= 3:
            self.token.cancel()


def play(case, tmp, stack):
    """Run the case's sweeps; the last one's result, and the fault plan."""
    workload, config = config_of(case, tmp)
    store = None
    if case.shared:
        store = stack.enter_context(closing(ResultCache(tmp / "shared", shared=True)))
    plan = FaultPlan(5, worker_kills=1.0, max_faults_per_kind=1)
    executor = alone = None
    if case.kill:  # with shards, one of two one-process lanes
        pool = MultiprocessingExecutor(1 if case.shards else 2)
        executor = alone = stack.enter_context(FaultInjectingExecutor(pool, plan))
        if case.shards:
            executor = [alone, stack.enter_context(MultiprocessingExecutor(1))]

    def sweep(config, executor=executor, cache=store):
        killed = plan.injected["kill"]
        result = search(workload, depths=DEPTHS, config=config, executor=executor, cache=cache)
        if plan.injected["kill"] > killed:  # the kill cost this sweep a retry, never a lane
            assert result.config["jobs_retried"] >= 1
            assert result.config.get("dead_shards", []) == []
        return result

    for index in range(2) if case.shard_index else ():
        sweep(replace(config, shards=2, shard_index=index), alone)
    if case.resume == "sweep":
        sweep(config)
    elif case.resume is not None:
        stop = StopAt(case.resume)
        with suppress(runtime.SweepCancelled):
            search_mixer(
                resolve_workload(workload), config.search_config(DEPTHS), executor=executor,
                runtime=config.runtime_config(), cache=store, cancel=stop.token, progress=stop,
            )
        assert stop.token.cancelled or case.shard_index  # a full store trains nothing to stop
    result = sweep(config)
    if case.shard_index:
        assert result.config["cache_misses"] == 0
    if case.workers and executor is None:  # again, on the fleet it parked
        fleet = parked_pids()
        assert evaluations(sweep(config)) == evaluations(result)
        assert parked_pids() == fleet and len(fleet) == 2
    if case.probe:  # lookup-only answers a stored sweep, not a learning proposer
        stored = store or stack.enter_context(closing(ResultCache(tmp / "dir")))
        missing = case.surrogate or not (case.cache_dir or case.shared)
        with pytest.raises(NotStored) if missing else nullcontext():
            assert evaluations(sweep(config, cache=StoredOnly(stored))) == evaluations(result)
    return result, plan


def check(case):
    on = {"resume": case.resume is not None, "no cache_dir": not case.cache_dir,
          "shard_index": case.shard_index, "no store": not (case.cache_dir or case.shared)}
    rows = [row for row in runtime.REJECTED if all(on[f] for f in row.features)]
    with tempfile.TemporaryDirectory() as tmp, ExitStack() as stack:
        try:
            result, plan = play(case, Path(tmp), stack)
        except ConfigError as refused:
            assert rows and str(refused) == rows[0].message
            return
    assert not rows
    assert evaluations(result) == plain(case.grouped, case.surrogate, case.interp)
    assert plan.injected["kill"] == case.kill  # vacuous otherwise
    counts = result.config
    if case.resume is None or case.shard_index:  # nothing ran first, or the shards stored all
        assert counts["cache_misses"] > 0 or case.shard_index
        return
    # Depth rows go only to a store the sweep owns (cache_dir, no cache=).
    owned = not case.shared
    restored = {"sweep": DEPTHS, "depth": 1, "3 results": 0}[case.resume]
    assert counts["restored_depths"] == (restored if owned else 0)
    if case.resume == "depth" and owned:
        assert counts["cache_hits"] == 0
    if case.resume == "3 results":  # cancelled with three results stored
        assert counts["cache_hits"] == 3
        if not case.kill:
            assert counts["jobs_submitted"] == result.num_candidates - 3


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(st.builds(Case, *[st.booleans()] * 11, st.sampled_from(STOPS)))
@example(TRIGGERS["resume", "no cache_dir"])
@example(TRIGGERS["shard_index", "no store"])
def test_every_draw_composes_or_is_refused_by_one_row(case):
    check(case)


@pytest.mark.parametrize("execution", GRID[False])
@pytest.mark.parametrize("feature", SEARCH_FEATURES)
def test_cell_composes_or_is_rejected_in_one_place(feature, execution):
    check(Case(*SEARCH_FEATURES[feature], **GRID[False][execution]))


@pytest.mark.parametrize("execution", GRID[True])
@pytest.mark.parametrize("feature", SEARCH_FEATURES)
def test_grouped_cell_composes(feature, execution):
    check(Case(*SEARCH_FEATURES[feature], grouped=True, **GRID[True][execution]))


def test_every_row_of_the_table_has_a_trigger():
    assert set(TRIGGERS) == {row.features for row in runtime.REJECTED}


@pytest.mark.parametrize("row", runtime.REJECTED, ids=lambda row: " x ".join(row.features))
def test_every_rejection_is_its_rows_message(row, tmp_path, monkeypatch):
    """... decided from the configs alone: no row solves an optimum or
    makes a file."""
    optima = []
    monkeypatch.setattr(runtime, "classical_optima", lambda *a: optima.append(a) or [1] * len(a[0]))
    with pytest.raises(ConfigError) as rejected, ExitStack() as stack:
        play(TRIGGERS[row.features], tmp_path, stack)
    assert str(rejected.value) == row.message
    assert optima == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grouped", BASES)
def test_the_search_features_are_distinct_sweeps(grouped):
    """The property would be vacuous if a feature silently ran the plain sweep."""
    rows = {str(plain(grouped, *feature)) for feature in SEARCH_FEATURES.values()}
    assert len(rows) == len(SEARCH_FEATURES)


def test_the_grouped_rows_train_both_graphs_apart():
    """Vacuous otherwise: two graphs, two different trained energies."""
    for evaluation in plain(True, False, False):
        low, high = sorted(evaluation[4])
        assert low < high
