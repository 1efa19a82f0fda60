"""Sharded execution: the Fig. 2 outer level as lanes of the runtime's one
scheduler — placement, migration, merging, and stopping when the sweep ends."""

import threading
import time
from dataclasses import replace

import pytest

from repro.core import ShardFailedError
from repro.core.evaluator import EvaluationConfig
from repro.core.predictor import FixedPoolProposer, RandomPredictor
from repro.core.runtime import (
    CancellationToken,
    RuntimeConfig,
    SearchRuntime,
    SweepCancelled,
    predicted_cost,
)
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.generators import erdos_renyi_graph
from repro.obs.progress import SweepProgress
from repro.parallel.executor import SerialExecutor, ThreadExecutor
from repro.parallel.jobs import JobFailedError


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (3, 4)]


@pytest.fixture(scope="module")
def tiny_config():
    return SearchConfig(
        p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
    )


#: the one message every shard_index x feedback-driven-proposer pair gets
#: (tests/surrogate/test_search_equivalence.py pins the surrogate pair)
SHARD_INDEX_REJECTION = "shard_index requires a proposer whose pools ignore reward"


def evaluation_payload(result):
    """Everything evaluation-defining in a SearchResult (timings excluded)."""
    return (
        result.best_tokens,
        result.best_p,
        result.best_energy,
        result.best_ratio,
        [
            [replace(e, seconds=0.0) for e in d.evaluations]
            for d in result.depth_results
        ],
    )


class DeadExecutor(SerialExecutor):
    """A node that falls over after ``survive`` submissions."""

    def __init__(self, survive=0):
        self.survive = survive
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        if self.count > self.survive:
            raise RuntimeError("node unreachable")
        return super().submit(fn, *args)


class FailingFutureExecutor(SerialExecutor):
    """Every job's future resolves to an error (worker raises every time)."""

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        failed = type(future)()
        failed.set_exception(RuntimeError("worker raises on every attempt"))
        return failed


class HangingExecutor(SerialExecutor):
    """Futures that never complete — a node whose workers went away."""

    def submit(self, fn, *args):
        from concurrent.futures import Future

        return Future()


class CountingSerial(SerialExecutor):
    """Counts what it is handed — the evidence of who is still working."""

    def __init__(self):
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        return super().submit(fn, *args)


class CountingThread(ThreadExecutor):
    def __init__(self):
        super().__init__(1)
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        return super().submit(fn, *args)


def shard_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("shard-")]


class TestShardedMatchesSingleNode:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_identical_search_result(self, graphs, tiny_config, num_shards):
        """Acceptance: K shards, same seed -> same best tokens/p/energy and
        the same evaluations as the single-node runtime."""
        reference = search_mixer(graphs, tiny_config)
        sharded = search_mixer(
            graphs, tiny_config, runtime=RuntimeConfig(shards=num_shards)
        )
        assert evaluation_payload(sharded) == evaluation_payload(reference)
        assert sharded.config["shards"] == num_shards
        assert sharded.config["dead_shards"] == []
        assert sharded.config["jobs_migrated"] == 0

    def test_stats_merged_across_shards(self, graphs, tiny_config):
        sharded = search_mixer(graphs, tiny_config, runtime=RuntimeConfig(shards=2))
        # Every candidate trained exactly once, summed over both shards.
        assert sharded.config["jobs_submitted"] == sharded.num_candidates
        assert sharded.config["executor"] == "sharded[serial]"

    def test_every_shard_gets_work(self, graphs, tiny_config):
        lanes = [CountingSerial(), CountingSerial()]
        with SearchRuntime(
            graphs, tiny_config, executor=lanes, runtime=RuntimeConfig(shards=2)
        ) as runtime:
            runtime.run(FixedPoolProposer([("rx",), ("ry",), ("h",), ("rz",)]))
        assert all(lane.count > 0 for lane in lanes)
        # ...and each completion is attributed to the lane that ran it.
        per_shard = runtime.progress.to_dict()["per_shard"]
        assert [per_shard[str(i)]["done"] for i in range(2)] == [lane.count for lane in lanes]

    def test_placement_is_least_loaded_by_predicted_cost(self, graphs):
        """Heavier candidates spread first: two 2-gate mixers never share a
        shard while a 1-gate one could have balanced them."""
        config = SearchConfig(p_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1))
        pool = [("rx",), ("ry",), ("rx", "ry"), ("ry", "rz")]
        with SearchRuntime(graphs, config, runtime=RuntimeConfig(shards=2)) as runtime:
            runtime.run(FixedPoolProposer(pool))
        lane_of = runtime.scheduler.lane_of  # job index -> lane; jobs are in pool order
        assert lane_of[2] != lane_of[3]
        assert sorted(lane_of.values()) == [0, 0, 1, 1]

    def test_shared_executor_across_shards(self, graphs, tiny_config):
        reference = search_mixer(graphs, tiny_config)
        with ThreadExecutor(2) as executor:
            sharded = search_mixer(
                graphs,
                tiny_config,
                executor=executor,
                runtime=RuntimeConfig(shards=2),
            )
        assert evaluation_payload(sharded) == evaluation_payload(reference)
        # One pool shared by both shards: counted once in the merge.
        assert sharded.config["num_workers"] == 2

    def test_warm_cache_shortcuts_sharded_run(self, graphs, tiny_config, tmp_path):
        runtime = RuntimeConfig(cache_dir=str(tmp_path), shards=2)
        cold = search_mixer(graphs, tiny_config, runtime=runtime)
        warm = search_mixer(graphs, tiny_config, runtime=runtime)
        assert warm.config["jobs_submitted"] == 0
        assert evaluation_payload(warm) == evaluation_payload(cold)

    def test_predictor_search_supports_shards(self, graphs):
        config = SearchConfig(
            p_max=2, k_max=2, evaluation=EvaluationConfig(max_steps=10, seed=1)
        )
        result = search_mixer(
            graphs,
            config,
            predictor=RandomPredictor(config.alphabet, k_max=2, seed=5),
            candidates_per_depth=4,
            runtime=RuntimeConfig(shards=2),
        )
        assert result.config["shards"] == 2
        assert result.num_candidates > 0


class TestShardFailure:
    def test_dead_shard_migrates_to_survivor(self, graphs, tiny_config):
        """Acceptance: candidates on a shard that dies mid-depth migrate to
        the surviving shards and the search result is unchanged."""
        reference = search_mixer(graphs, tiny_config)
        dead = DeadExecutor(survive=2)  # dies partway through depth 1
        survivor = SerialExecutor()
        sharded = search_mixer(
            graphs,
            tiny_config,
            executor=[dead, survivor],
            runtime=RuntimeConfig(shards=2),
        )
        assert evaluation_payload(sharded) == evaluation_payload(reference)
        assert sharded.config["dead_shards"] == [0]
        assert sharded.config["jobs_migrated"] > 0

    def test_timeout_exhaustion_marks_shard_dead_and_migrates(
        self, graphs, tiny_config
    ):
        """Retries exhausted purely on timeouts mean the node is
        unreachable/hanging: the shard dies and its bag completes on the
        survivor."""
        reference = search_mixer(graphs, tiny_config)
        sharded = search_mixer(
            graphs,
            tiny_config,
            executor=[HangingExecutor(), SerialExecutor()],
            runtime=RuntimeConfig(shards=2, max_retries=0, job_timeout=0.1),
        )
        assert evaluation_payload(sharded) == evaluation_payload(reference)
        assert sharded.config["dead_shards"] == [0]
        assert sharded.config["jobs_migrated"] > 0

    def test_poisoned_candidate_aborts_instead_of_cascading(
        self, graphs, tiny_config
    ):
        """A candidate whose evaluation raises on every retry is a
        candidate problem, not a node problem: the search fails with
        JobFailedError (single-node semantics) instead of burning every
        shard's retry budget and killing healthy executors."""
        survivor = SerialExecutor()
        with pytest.raises(JobFailedError):
            search_mixer(
                graphs,
                tiny_config,
                executor=[FailingFutureExecutor(), survivor],
                runtime=RuntimeConfig(shards=2, max_retries=1),
            )
        assert not survivor.tainted

    def test_all_shards_dead_raises(self, graphs, tiny_config):
        with pytest.raises(ShardFailedError, match="all 2 shard"):
            search_mixer(
                graphs,
                tiny_config,
                executor=[DeadExecutor(), DeadExecutor()],
                runtime=RuntimeConfig(shards=2),
            )

    def test_cause_preserved(self, graphs, tiny_config):
        try:
            search_mixer(
                graphs,
                tiny_config,
                executor=[DeadExecutor(), DeadExecutor()],
                runtime=RuntimeConfig(shards=2),
            )
        except ShardFailedError as error:
            assert isinstance(error.cause, RuntimeError)
            assert "node unreachable" in str(error.cause)
        else:  # pragma: no cover
            pytest.fail("expected ShardFailedError")


class CancelOnFirstResult(SweepProgress):
    """Fires ``token`` as the first streamed result is recorded, noting
    which ``shard-*`` threads are alive at that moment (mid-sweep)."""

    def __init__(self, token):
        super().__init__()
        self.token = token
        self.threads_seen = None

    def record(self, p, n=1):
        super().record(p, n)
        if self.threads_seen is None:
            self.threads_seen = shard_threads()
        self.token.cancel()


@pytest.mark.parametrize("lane_type", [CountingSerial, CountingThread])
class TestEndedSweepStopsWorking:
    """Regression (PR 24): the per-shard drain threads kept submitting after
    the sweep had ended — cancelled after its first result, a 30-candidate
    depth went from 9 submits to all 30 within seconds; after a poisoned
    lane's JobFailedError the healthy lane went from 1 to 15. One loop, no
    threads: what is submitted when the exception arrives is all there is."""

    @pytest.fixture
    def wide_config(self):
        return SearchConfig(
            p_max=2, k_max=2, mode="combinations",
            evaluation=EvaluationConfig(max_steps=10, seed=1),
        )

    @staticmethod
    def settled_counts(lanes):
        before = [lane.count for lane in lanes]
        time.sleep(0.5)
        assert [lane.count for lane in lanes] == before
        assert shard_threads() == []
        return before

    def test_cancel_on_first_result_submits_nothing_more(self, graphs, wide_config, lane_type):
        lanes = [lane_type(), lane_type()]
        token = CancellationToken()
        progress = CancelOnFirstResult(token)
        try:
            with pytest.raises(SweepCancelled):
                search_mixer(
                    graphs, wide_config, executor=lanes, cancel=token,
                    progress=progress, runtime=RuntimeConfig(shards=2),
                )
            counts = self.settled_counts(lanes)
        finally:
            for lane in lanes:
                lane.close()
        assert progress.threads_seen == []
        # At most the in-flight bound (4 x 1 worker) per lane, of a 15-wide depth.
        assert all(0 < count <= 4 for count in counts)

    def test_poisoned_lane_failure_submits_nothing_more(self, graphs, wide_config, lane_type):
        healthy = lane_type()
        try:
            with pytest.raises(JobFailedError):
                search_mixer(
                    graphs, wide_config, executor=[FailingFutureExecutor(), healthy],
                    runtime=RuntimeConfig(shards=2, max_retries=0),
                )
            [count] = self.settled_counts([healthy])
        finally:
            healthy.close()
        assert count <= 4


class TestShardIndexProcesses:
    """The CLI's --shard-index mode: one SearchRuntime process per shard,
    meeting in a shared cache; a final merge run re-trains nothing."""

    def test_shard_processes_cover_bag_exactly_once(
        self, graphs, tiny_config, tmp_path
    ):
        reference = search_mixer(graphs, tiny_config)
        total_jobs = 0
        for index in range(2):
            partial = search_mixer(
                graphs,
                tiny_config,
                runtime=RuntimeConfig(
                    cache_dir=str(tmp_path),
                    shards=2,
                    shard_index=index,
                    cache_flush_every=1,
                ),
            )
            assert partial.config["shard_index"] == index
            total_jobs += partial.config["jobs_submitted"]
        # Disjoint + complete: the shard processes trained the whole bag
        # between them, nothing twice.
        assert total_jobs == reference.num_candidates

        merged = search_mixer(
            graphs, tiny_config, runtime=RuntimeConfig(cache_dir=str(tmp_path))
        )
        assert merged.config["jobs_submitted"] == 0
        assert evaluation_payload(merged) == evaluation_payload(reference)

    def test_shard_process_skips_depth_checkpoint(
        self, graphs, tiny_config, tmp_path
    ):
        """A shard process must never checkpoint a partial depth as if it
        were the whole depth."""
        search_mixer(
            graphs,
            tiny_config,
            runtime=RuntimeConfig(cache_dir=str(tmp_path), shards=2, shard_index=0),
        )
        resumed = search_mixer(
            graphs,
            tiny_config,
            runtime=RuntimeConfig(cache_dir=str(tmp_path), resume=True),
        )
        assert resumed.config["restored_depths"] == 0
        assert evaluation_payload(resumed) == evaluation_payload(
            search_mixer(graphs, tiny_config)
        )


    def test_predictor_rejected_in_shard_index_mode(self, graphs, tmp_path):
        """Predictor proposals depend on per-shard reward feedback, so
        sibling shard processes would silently diverge — refuse upfront."""
        config = SearchConfig(
            p_max=2, k_max=2, evaluation=EvaluationConfig(max_steps=10, seed=1)
        )
        with pytest.raises(ValueError, match=SHARD_INDEX_REJECTION):
            search_mixer(
                graphs,
                config,
                predictor=RandomPredictor(config.alphabet, k_max=2, seed=5),
                candidates_per_depth=4,
                runtime=RuntimeConfig(
                    cache_dir=str(tmp_path), shards=2, shard_index=0
                ),
            )

    def test_more_shards_than_candidates_gives_clear_error(
        self, graphs, tiny_config, tmp_path
    ):
        """A shard whose slice is empty at every depth reports a
        configuration error, not a bare 'no evaluations' crash."""
        with pytest.raises(ValueError, match="received no candidates"):
            search_mixer(
                graphs,
                tiny_config,
                runtime=RuntimeConfig(
                    cache_dir=str(tmp_path), shards=50, shard_index=49
                ),
            )


class TestValidation:
    def test_executor_count_must_match_shards(self, graphs, tiny_config):
        with pytest.raises(ValueError, match="3 executors for 2 shards"):
            SearchRuntime(
                graphs,
                tiny_config,
                executor=[SerialExecutor()] * 3,
                runtime=RuntimeConfig(shards=2),
            )

    def test_one_shard_process_is_not_sharded_execution(self, graphs, tiny_config, tmp_path):
        """``shard_index`` pins the process to one shard: one lane, the
        single-node result keys, whatever ``shards`` says."""
        result = search_mixer(
            graphs, tiny_config,
            runtime=RuntimeConfig(cache_dir=str(tmp_path), shards=2, shard_index=0),
        )
        assert result.config["executor"] == "serial"
        assert "dead_shards" not in result.config

    def test_executor_sequence_list_selects_sharded_execution(self, graphs, tiny_config):
        """A bare executor sequence is enough to opt in: one shard per
        executor (here 1 — useful as the K=1 baseline in benches)."""
        result = search_mixer(graphs, tiny_config, executor=[SerialExecutor()])
        assert result.config["executor"] == "sharded[serial]"

    def test_executor_sequence_rejected_for_shard_index_process(
        self, graphs, tiny_config, tmp_path
    ):
        """A process pinned to one shard is single-node execution; handing
        it a per-shard executor list is a configuration error."""
        with pytest.raises(ValueError, match="sharded execution"):
            search_mixer(
                graphs,
                tiny_config,
                executor=[SerialExecutor(), SerialExecutor()],
                runtime=RuntimeConfig(
                    cache_dir=str(tmp_path), shards=2, shard_index=0
                ),
            )

    def test_runtime_config_validates_shards(self):
        with pytest.raises(ValueError, match="shards"):
            RuntimeConfig(shards=0)
        with pytest.raises(ValueError, match="shard_index"):
            RuntimeConfig(shards=2, shard_index=2)
        with pytest.raises(ValueError, match="cache_flush_every"):
            RuntimeConfig(cache_flush_every=0)


class TestPredictedCost:
    def test_scales_with_tokens_and_depth(self):
        assert predicted_cost(("rx", "ry"), 2) > predicted_cost(("rx",), 2)
        assert predicted_cost(("rx",), 3) > predicted_cost(("rx",), 1)
