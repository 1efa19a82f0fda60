"""SearchRuntime: warm-cache reuse, checkpoint/resume, fault tolerance."""

import json
import time
from dataclasses import replace

import pytest

from repro.core.cache import (
    NullStore,
    ResultCache,
    SweepCheckpoint,
    candidate_key,
    config_fingerprint,
    workload_fingerprint,
)
from repro.core.evaluator import EvaluationConfig
from repro.core.predictor import FixedPoolProposer, Predictor, PredictorProposer
from repro.core.runtime import CancellationToken, RuntimeConfig, SearchRuntime, SweepCancelled
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.generators import erdos_renyi_graph
from repro.obs.progress import SweepProgress
from repro.parallel.executor import SerialExecutor, ThreadExecutor


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (3, 4)]


@pytest.fixture(scope="module")
def tiny_config():
    return SearchConfig(
        p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
    )


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


class CountingExecutor(SerialExecutor):
    """Serial executor that records every job submitted to it."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        return super().submit(fn, *args)


class FailAtExecutor(SerialExecutor):
    """Simulates a hard kill: dies on the Nth submitted job."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        if self.count == self.fail_at:
            raise KeyboardInterrupt("simulated kill")
        return super().submit(fn, *args)


class RecordingPredictor(Predictor):
    name = "recording"

    def __init__(self):
        self.updates = []

    def propose(self, num):
        return [("rx",), ("ry",)][:num]

    def update(self, tokens, reward):
        self.updates.append((tuple(tokens), reward))


class TestWarmCache:
    def test_warm_run_is_all_hits_and_identical(self, graphs, tiny_config, tmp_path):
        runtime = RuntimeConfig(cache_dir=str(tmp_path / "cache"))
        cold = search_mixer(graphs, tiny_config, runtime=runtime)
        warm = search_mixer(graphs, tiny_config, runtime=runtime)

        # Acceptance: a repeated run with a warm cache trains nothing —
        # every candidate is a cache hit.
        assert warm.config["cache_hits"] == warm.num_candidates
        assert warm.config["cache_misses"] == 0
        assert warm.config["jobs_submitted"] == 0
        assert evaluation_payload(warm) == evaluation_payload(cold)

    def test_cold_cache_counts_misses(self, graphs, tiny_config, tmp_path):
        runtime = RuntimeConfig(cache_dir=str(tmp_path / "cache"))
        cold = search_mixer(graphs, tiny_config, runtime=runtime)
        assert cold.config["cache_hits"] == 0
        assert cold.config["cache_misses"] == cold.num_candidates

    def test_cached_matches_uncached(self, graphs, tiny_config, tmp_path):
        plain = search_mixer(graphs, tiny_config)
        cached = search_mixer(
            graphs, tiny_config, runtime=RuntimeConfig(cache_dir=str(tmp_path))
        )
        assert evaluation_payload(cached) == evaluation_payload(plain)

    def test_config_change_invalidates(self, graphs, tiny_config, tmp_path):
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        search_mixer(graphs, tiny_config, runtime=runtime)
        changed = SearchConfig(
            p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=11, seed=1)
        )
        rerun = search_mixer(graphs, changed, runtime=runtime)
        assert rerun.config["cache_hits"] == 0
        assert rerun.config["cache_misses"] == rerun.num_candidates

    def test_workload_change_invalidates(self, graphs, tiny_config, tmp_path):
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        search_mixer(graphs, tiny_config, runtime=runtime)
        other = [erdos_renyi_graph(5, 0.6, seed=9, require_connected=True)]
        rerun = search_mixer(other, tiny_config, runtime=runtime)
        assert rerun.config["cache_hits"] == 0

    def test_cache_shared_across_depths(self, graphs, tmp_path):
        """p is part of the key, so depths never collide — but an RL-style
        repeat proposal within one depth is served from cache."""
        config = SearchConfig(
            p_max=1, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
        )
        with SearchRuntime(
            graphs, config, runtime=RuntimeConfig(cache_dir=str(tmp_path))
        ) as runtime:
            result = runtime.run(FixedPoolProposer([("rx",), ("ry",), ("rx",)]))
        assert runtime.cache_hits == 1  # third candidate repeats the first
        assert runtime.cache_misses == 2
        assert len(result.depth_results[0].evaluations) == 3


class TestCheckpointResume:
    def test_killed_after_depth1_resumes_without_reevaluating(
        self, graphs, tiny_config, tmp_path
    ):
        cache_dir = str(tmp_path / "ckpt")
        reference = search_mixer(graphs, tiny_config)
        num_per_depth = reference.num_candidates // 2  # k_max=1: 5 per depth

        # First attempt dies on the first depth-2 evaluation (after the
        # depth-1 checkpoint was written).
        failing = FailAtExecutor(fail_at=num_per_depth + 1)
        with pytest.raises(KeyboardInterrupt):
            search_mixer(
                graphs,
                tiny_config,
                executor=failing,
                runtime=RuntimeConfig(cache_dir=cache_dir),
            )

        counting = CountingExecutor()
        resumed = search_mixer(
            graphs,
            tiny_config,
            executor=counting,
            runtime=RuntimeConfig(cache_dir=cache_dir, resume=True),
        )
        # Depth 1 came from the checkpoint: not a single depth-1 candidate
        # was re-submitted, and no cache lookups were needed for it.
        assert resumed.config["restored_depths"] == 1
        assert len(counting.submitted) == num_per_depth
        assert all(args[2] == 2 for args in counting.submitted)  # job p == 2
        assert evaluation_payload(resumed) == evaluation_payload(reference)

    def test_resume_of_completed_run_restores_every_depth(
        self, graphs, tiny_config, tmp_path
    ):
        runtime_cfg = RuntimeConfig(cache_dir=str(tmp_path))
        first = search_mixer(graphs, tiny_config, runtime=runtime_cfg)
        counting = CountingExecutor()
        resumed = search_mixer(
            graphs,
            tiny_config,
            executor=counting,
            runtime=RuntimeConfig(cache_dir=str(tmp_path), resume=True),
        )
        assert resumed.config["restored_depths"] == tiny_config.p_max
        assert counting.submitted == []
        assert resumed.config["cache_hits"] == 0  # checkpoint, not cache
        assert evaluation_payload(resumed) == evaluation_payload(first)

    def test_cold_warm_and_resumed_payloads_agree(self, graphs, tiny_config, tmp_path):
        """A resumed sweep's wire object is the sweep it resumes — the
        winner's QASM included — down to timings and run counters."""

        def payload(result):
            wire = result.to_dict()
            del wire["total_seconds"], wire["config"]
            for depth in wire["depth_results"]:
                del depth["seconds"]
            return wire

        def run(**settings):
            runtime = RuntimeConfig(cache_dir=str(tmp_path), **settings)
            return search_mixer(graphs, tiny_config, runtime=runtime)

        cold, warm = run(), run()
        assert all(d.best_qasm for d in cold.depth_results)
        assert payload(cold) == payload(warm) == payload(run(resume=True))
        # A checkpoint written before the QASM was stored regenerates it.
        document = json.loads((tmp_path / SweepCheckpoint.FILENAME).read_text())
        for entry in document["depths"].values():
            del entry["best_qasm"]
        (tmp_path / SweepCheckpoint.FILENAME).write_text(json.dumps(document))
        assert payload(run(resume=True)) == payload(cold)

    def test_checkpoint_ignored_when_config_changes(self, graphs, tiny_config, tmp_path):
        runtime_cfg = RuntimeConfig(cache_dir=str(tmp_path))
        search_mixer(graphs, tiny_config, runtime=runtime_cfg)
        changed = SearchConfig(
            p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=12, seed=1)
        )
        rerun = search_mixer(
            graphs, changed, runtime=RuntimeConfig(cache_dir=str(tmp_path), resume=True)
        )
        assert rerun.config["restored_depths"] == 0

    def test_resume_replays_rewards_to_predictor(self, graphs, tmp_path):
        config = SearchConfig(
            p_max=1, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
        )
        with SearchRuntime(
            graphs, config, runtime=RuntimeConfig(cache_dir=str(tmp_path))
        ) as runtime:
            first = RecordingPredictor()
            runtime.run(PredictorProposer(first, 2))

        with SearchRuntime(
            graphs, config, runtime=RuntimeConfig(cache_dir=str(tmp_path), resume=True)
        ) as runtime:
            replayed = RecordingPredictor()
            runtime.run(PredictorProposer(replayed, 2))
        assert runtime.restored_depths == 1
        assert len(first.updates) == 2
        assert replayed.updates == first.updates


class TestPartialDepthResume:
    def test_mid_depth_kill_resubmits_only_unfinished(self, graphs, tmp_path):
        """Acceptance: kill a sweep partway through a wide depth; resume
        re-submits only the candidates that never reached the cache — not
        the whole depth — and the final result matches an uninterrupted
        run."""
        config = SearchConfig(
            p_max=1, k_min=1, k_max=2, mode="combinations",
            evaluation=EvaluationConfig(max_steps=10, seed=1),
        )
        cache_dir = str(tmp_path / "partial")
        reference = search_mixer(graphs, config)
        width = reference.num_candidates
        assert width >= 8  # a "wide" depth: the kill lands mid-depth

        with pytest.raises(KeyboardInterrupt):
            search_mixer(
                graphs,
                config,
                executor=FailAtExecutor(fail_at=8),
                runtime=RuntimeConfig(cache_dir=cache_dir, cache_flush_every=1),
            )

        # The incremental per-evaluation persistence is the partial-depth
        # checkpoint: some (not all) of the depth survived the kill.
        from repro.core.cache import ResultCache

        with ResultCache(cache_dir) as cache:
            persisted = len(cache)
        assert 0 < persisted < width

        counting = CountingExecutor()
        resumed = search_mixer(
            graphs,
            config,
            executor=counting,
            runtime=RuntimeConfig(cache_dir=cache_dir, resume=True),
        )
        assert resumed.config["restored_depths"] == 0  # depth never finished
        assert resumed.config["jobs_submitted"] == width - persisted
        assert resumed.config["cache_hits"] == persisted
        assert len(counting.submitted) == width - persisted
        assert evaluation_payload(resumed) == evaluation_payload(reference)

    def test_flush_batching_bounds_loss_to_unflushed_tail(self, graphs, tmp_path):
        """With batched commits (flush_every=4), a kill can only lose the
        evaluations after the last flush boundary."""
        config = SearchConfig(
            p_max=1, k_min=1, k_max=2, mode="combinations",
            evaluation=EvaluationConfig(max_steps=10, seed=1),
        )
        cache_dir = str(tmp_path / "batched")
        with pytest.raises(KeyboardInterrupt):
            search_mixer(
                graphs,
                config,
                executor=FailAtExecutor(fail_at=11),
                runtime=RuntimeConfig(cache_dir=cache_dir, cache_flush_every=4),
            )
        from repro.core.cache import ResultCache

        with ResultCache(cache_dir) as cache:
            persisted = len(cache)
        # Full flush batches survived; only the tail since the last
        # commit was lost.
        assert persisted >= 4
        assert persisted % 4 == 0


class TestFaultTolerance:
    def test_search_survives_transient_worker_faults(self, graphs, tiny_config):
        class FlakySubmitExecutor(SerialExecutor):
            """Every third submit fails once before the retry succeeds."""

            def __init__(self):
                self.count = 0

            def submit(self, fn, *args):
                self.count += 1
                if self.count % 3 == 0:
                    future = super().submit(fn, *args)
                    failed = type(future)()
                    failed.set_exception(RuntimeError("transient worker fault"))
                    return failed
                return super().submit(fn, *args)

        reference = search_mixer(graphs, tiny_config)
        flaky = search_mixer(
            graphs,
            tiny_config,
            executor=FlakySubmitExecutor(),
            runtime=RuntimeConfig(max_retries=2),
        )
        assert flaky.config["jobs_retried"] > 0
        assert evaluation_payload(flaky) == evaluation_payload(reference)

    def test_threaded_runtime_matches_serial(self, graphs, tiny_config, tmp_path):
        serial = search_mixer(graphs, tiny_config)
        with ThreadExecutor(2) as executor:
            threaded = search_mixer(
                graphs,
                tiny_config,
                executor=executor,
                runtime=RuntimeConfig(cache_dir=str(tmp_path)),
            )
        assert evaluation_payload(threaded) == evaluation_payload(serial)


class TestSharedCacheDedup:
    def test_claim_won_after_the_owners_put_does_not_retrain(
        self, graphs, tiny_config, tmp_path
    ):
        """Two tenants, one shared store, the losing interleaving forced:
        tenant B looks every candidate up (all miss), then tenant A runs
        its whole sweep — claims, trains, puts — and only then does B
        claim. B wins every claim (A's puts released them), and must
        notice the results are already stored instead of training them
        again: across both tenants each candidate is trained once."""

        class ClaimsLate(ResultCache):
            def claim(self, key):
                hook, self.before_first_claim = self.before_first_claim, None
                if hook is not None:
                    hook()
                return super().claim(key)

        results = {}
        executor = CountingExecutor()
        with ClaimsLate(tmp_path, shared=True) as cache:

            def sweep(tenant):
                results[tenant] = search_mixer(
                    graphs, tiny_config, executor=executor, cache=cache
                )

            cache.before_first_claim = lambda: sweep("a")
            sweep("b")
        candidates = results["a"].num_candidates
        assert results["b"].num_candidates == candidates
        misses = {t: r.config["cache_misses"] for t, r in results.items()}
        hits = {t: r.config["cache_hits"] for t, r in results.items()}
        # depth 1 is the forced race; at depth 2 B simply finds A's results
        assert misses == {"a": candidates, "b": 0}
        assert hits == {"a": 0, "b": candidates}
        assert len(executor.submitted) == candidates
        assert evaluation_payload(results["a"]) == evaluation_payload(results["b"])

    @staticmethod
    def depth_keys(graphs, config, result, p=1):
        return [
            candidate_key(
                workload_fingerprint(graphs), e.tokens, p, config_fingerprint(config.evaluation)
            )
            for e in result.depth_results[p - 1].evaluations
        ]

    def test_mid_depth_cancel_leaves_no_claim_behind(self, graphs, tiny_config, tmp_path):
        """A tenant waiting on a key the cancelled sweep claimed but never
        delivered is released at once — while the exception (and with it
        every frame of the cancelled sweep) is still alive, as it is in a
        service slot that is busy reporting it — not after ``job_timeout``."""
        reference = search_mixer(graphs, tiny_config)
        keys = self.depth_keys(graphs, tiny_config, reference)
        token = CancellationToken()

        class CancelOnFirstResult(SweepProgress):
            def record(self, p, n=1, **kwargs):
                super().record(p, n, **kwargs)
                token.cancel("tenant left")

        with ResultCache(tmp_path, shared=True, flush_every=2) as cache:
            with pytest.raises(SweepCancelled, match="tenant left") as cancelled:
                search_mixer(
                    graphs, tiny_config, cache=cache, cancel=token,
                    progress=CancelOnFirstResult(),
                )
            assert cancelled.traceback  # the sweep's frames are still referenced
            undelivered = [key for key in keys if key not in cache]
            assert 0 < len(undelivered) < len(keys)
            start = time.monotonic()
            assert [cache.wait_for(key, timeout=5.0) for key in undelivered] == [None] * len(
                undelivered
            )
            assert time.monotonic() - start < 2.0
            # ... and the keys are claimable again: the next tenant trains them
            rerun = search_mixer(graphs, tiny_config, cache=cache)
        assert rerun.config["cache_hits"] == len(keys) - len(undelivered)
        assert evaluation_payload(rerun) == evaluation_payload(reference)

    def test_a_claim_its_owner_abandons_is_evaluated_here(self, graphs, tiny_config, tmp_path):
        """``wait_for`` answering ``None`` (the owner failed or timed out)
        costs the waiting sweep a training run, never the candidate."""
        config = replace(tiny_config, p_max=1)
        reference = search_mixer(graphs, config)
        with ResultCache(tmp_path, shared=True) as cache:
            for key in self.depth_keys(graphs, config, reference):
                assert cache.claim(key)  # another tenant's, never delivered
            waited = search_mixer(
                graphs, config, cache=cache, runtime=RuntimeConfig(job_timeout=0.05)
            )
        assert waited.config["cache_misses"] == reference.num_candidates
        assert waited.config["cache_hits"] == 0
        assert evaluation_payload(waited) == evaluation_payload(reference)


class TestRuntimeValidation:
    def test_needs_graphs(self, tiny_config):
        with pytest.raises(ValueError, match="at least one graph"):
            SearchRuntime([], tiny_config)

    def test_no_cache_dir_disables_persistence(self, graphs, tiny_config):
        with SearchRuntime(graphs, tiny_config) as runtime:
            assert isinstance(runtime.cache, NullStore)
            assert runtime.checkpoint is None
            result = runtime.run(FixedPoolProposer([("rx",)]))
        assert result.config["cache_dir"] is None
        assert result.config["cache_hits"] == 0
