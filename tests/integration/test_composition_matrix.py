"""The composition matrix (ROADMAP aim 3), driven through ``api.search`` only.

Every search feature × every execution feature either reproduces the same
search feature's un-decorated run, evaluation for evaluation, or is
rejected with exactly one pinned message. Columns the matrix still lacks:
cancel, fault injection, and a shared (multi-tenant) cache.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from tests.conftest import evaluations

from repro.api import Config, ConfigError, search

WORKLOAD, DEPTHS = "er:1", 2
BASE = Config(k_max=2, steps=8)

SEARCH_FEATURES = {
    "plain": {},
    "surrogate": dict(surrogate=True),
    "interp": dict(init_strategy="interp"),
    "surrogate+interp": dict(surrogate=True, init_strategy="interp"),
}

#: the two rejections open today (closing them is a ROADMAP item)
PROPOSER_X_SHARD_INDEX = "shard_index requires a proposer whose pools ignore reward"
INTERP_X_SHARD_INDEX = "init_strategy='interp' cannot run under shard_index"
REJECTED = {
    ("surrogate", "shard_index"): PROPOSER_X_SHARD_INDEX,
    ("interp", "shard_index"): INTERP_X_SHARD_INDEX,
    ("surrogate+interp", "shard_index"): INTERP_X_SHARD_INDEX,
}


def run(feature, workload=WORKLOAD, base=BASE, **execution):
    config = replace(base, **SEARCH_FEATURES[feature], **execution)
    return search(workload, depths=DEPTHS, config=config)


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


EXECUTION_FEATURES = {
    "shards": lambda feature, tmp_path: run(feature, shards=2),
    "workers": lambda feature, tmp_path: run(feature, workers=2),
    "cache_dir": cache_dir,
    "resume": resume,
    "shard_index": shard_index,
    "batch_serial": lambda feature, tmp_path: run(feature, batch_mode="serial"),
}


@pytest.mark.parametrize("execution", EXECUTION_FEATURES)
@pytest.mark.parametrize("feature", SEARCH_FEATURES)
def test_cell_composes_or_is_rejected_in_one_place(feature, execution, tmp_path):
    message = REJECTED.get((feature, execution))
    if message is not None:
        with pytest.raises(ConfigError, match=message):
            EXECUTION_FEATURES[execution](feature, tmp_path)
        return
    result = EXECUTION_FEATURES[execution](feature, tmp_path)
    assert evaluations(result) == undecorated(feature)


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
        result = run(feature, **GROUPED, workers=2)
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
