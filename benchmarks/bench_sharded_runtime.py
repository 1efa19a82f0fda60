"""Sharded runtime ablation — outer-level scaling and the partial-resume win.

Not a paper figure: this bench guards sharded execution (the Fig. 2 outer
level made real: one ``JobScheduler`` lane per shard). Two structural claims:

* **Shard scaling** — K shards, each backed by its own single-worker
  process pool (the in-process model of one pool per node), complete a
  depth sweep faster than one shard with one pool, approaching linear as
  the bags are embarrassingly parallel and placement is balanced.
* **Partial-depth resume** — a sweep killed partway through a wide depth
  restarts by re-submitting only the candidates that never reached the
  cache; the resumed run trains a strict fraction of the depth and the
  combined result matches an uninterrupted run.
"""

from __future__ import annotations

import tempfile
import time

from repro.core.evaluator import EvaluationConfig
from repro.core.runtime import RuntimeConfig
from repro.core.search import SearchConfig, search_mixer
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import paper_er_dataset
from repro.parallel.executor import (
    MultiprocessingExecutor,
    SerialExecutor,
    available_cores,
)


def _workload(scale):
    graphs = paper_er_dataset(max(1, scale.num_graphs // 3))
    config = SearchConfig(
        p_max=1,
        k_min=1,
        k_max=2,
        mode="combinations",
        evaluation=EvaluationConfig(max_steps=scale.max_steps, seed=0),
    )
    return graphs, config


def _warm(value):
    return value


def run_scaling():
    scale = get_scale()
    graphs, config = _workload(scale)
    cores = available_cores()
    max_shards = min(4, max(2, cores))

    def timed(num_shards):
        executors = [MultiprocessingExecutor(1) for _ in range(num_shards)]
        try:
            # Fork + import cost stays outside the timed region: the claim
            # is steady-state shard scaling, not pool startup.
            for executor in executors:
                executor.starmap(_warm, [(0,)])
            start = time.perf_counter()
            result = search_mixer(
                graphs,
                config,
                executor=executors,
                runtime=RuntimeConfig(shards=num_shards),
            )
            return time.perf_counter() - start, result
        finally:
            for executor in executors:
                executor.close()

    single_seconds, single = timed(1)
    sharded_seconds, sharded = timed(max_shards)

    speedup = single_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
    print(f"\n=== Sharded runtime: 1 vs {max_shards} shards (1 worker each) ===")
    print(f"1 shard:  {single_seconds:8.2f}s  ({single.num_candidates} candidates)")
    print(f"{max_shards} shards: {sharded_seconds:8.2f}s  (speedup {speedup:.2f}x)")

    # Sharding changes where work runs, never what it computes.
    assert sharded.best_tokens == single.best_tokens
    assert sharded.best_p == single.best_p
    assert abs(sharded.best_energy - single.best_energy) < 1e-12
    assert sharded.config["dead_shards"] == []
    if cores >= 2:
        # Conservative fraction of ideal so busy 2-core CI boxes pass;
        # near-linear headroom shows on real nodes (laptop/paper scales).
        min_expected = 1.15 if cores == 2 else 0.45 * max_shards
        assert speedup >= min_expected, (
            f"{max_shards}-shard speedup {speedup:.2f}x below {min_expected:.2f}x"
        )
    else:
        print("(single core available: shard-scaling gate skipped)")

    ExperimentRecord(
        experiment="sharded_runtime_scaling",
        paper_claim="Fig. 2 outer level: candidate bags shard across nodes",
        parameters={
            "scale": scale.name,
            "num_graphs": len(graphs),
            "num_candidates": single.num_candidates,
            "shards": max_shards,
            "cores": available_cores(),
        },
        measured={
            "single_seconds": single_seconds,
            "sharded_seconds": sharded_seconds,
            "speedup": speedup,
        },
        verdict=(
            f"{max_shards} shards run the depth sweep {speedup:.2f}x faster "
            f"than one"
        ),
    ).save()


class _KillAt(SerialExecutor):
    """Dies (KeyboardInterrupt, as a real kill would surface) on the Nth
    submitted job."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        if self.count == self.fail_at:
            raise KeyboardInterrupt("simulated mid-depth kill")
        return super().submit(fn, *args)


def run_resume():
    scale = get_scale()
    graphs, config = _workload(scale)

    with tempfile.TemporaryDirectory() as cache_dir:
        runtime = RuntimeConfig(cache_dir=cache_dir, cache_flush_every=1)

        start = time.perf_counter()
        full = search_mixer(graphs, config)
        full_seconds = time.perf_counter() - start
        width = full.num_candidates

        kill_at = max(3, (2 * width) // 3)
        try:
            search_mixer(
                graphs, config, executor=_KillAt(kill_at), runtime=runtime
            )
        except KeyboardInterrupt:
            pass

        start = time.perf_counter()
        resumed = search_mixer(
            graphs,
            config,
            runtime=RuntimeConfig(cache_dir=cache_dir, resume=True),
        )
        resume_seconds = time.perf_counter() - start

    resubmitted = resumed.config["jobs_submitted"]
    recovered = resumed.config["cache_hits"]
    print("\n=== Partial-depth resume after a mid-depth kill ===")
    print(f"uninterrupted: {full_seconds:8.2f}s  ({width} candidates)")
    print(
        f"resume:        {resume_seconds:8.2f}s  "
        f"({recovered} recovered from cache, {resubmitted} re-trained)"
    )

    # The win: resume re-trains only the unfinished tail of the depth.
    assert 0 < resubmitted < width, "resume must re-submit a strict subset"
    assert resubmitted + recovered == width
    assert resumed.best_tokens == full.best_tokens
    assert resume_seconds < full_seconds, "partial resume must beat re-running"

    ExperimentRecord(
        experiment="partial_depth_resume",
        paper_claim="checkpoint granularity: resume mid-depth, not per-depth",
        parameters={
            "scale": scale.name,
            "num_candidates": width,
            "killed_after": recovered,
        },
        measured={
            "full_seconds": full_seconds,
            "resume_seconds": resume_seconds,
            "resubmitted": resubmitted,
            "recovered": recovered,
        },
        verdict=(
            f"resume re-trained {resubmitted}/{width} candidates "
            f"({resume_seconds:.2f}s vs {full_seconds:.2f}s uninterrupted)"
        ),
    ).save()


def bench_sharded_scaling(once):
    once(run_scaling)


def bench_partial_depth_resume(once):
    once(run_resume)


if __name__ == "__main__":
    run_scaling()
    run_resume()
