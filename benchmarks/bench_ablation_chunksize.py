"""Ablation — process-pool dispatch granularity (starmap_async chunksize).

The paper's parallel loop hands one gate combination per task to
``starmap_async``. Chunking trades per-task dispatch overhead against load
balance: big chunks amortize pickling but let one slow chunk straggle.
This bench runs the same candidate bag at several chunk sizes on the real
pool.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.evaluator import EvaluationConfig, evaluate_candidate
from repro.experiments.figures import render_table
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import profiling_graph
from repro.parallel.executor import MultiprocessingExecutor

CHUNK_SIZES = (1, 2, 5)


def bench_ablation_chunksize(once):
    scale = get_scale()
    graph = profiling_graph()
    space = enumerate_search_space(GateAlphabet(), 2, mode="sequences")
    candidates = space[: scale.num_candidates]
    config = EvaluationConfig(max_steps=scale.max_steps, seed=0)
    jobs = [([graph], tokens, 1, config) for tokens in candidates]

    def run():
        rows = []
        reference = None
        for chunk in CHUNK_SIZES:
            with MultiprocessingExecutor(2, chunksize=chunk) as pool:
                start = time.perf_counter()
                results = pool.starmap(evaluate_candidate, jobs)
                elapsed = time.perf_counter() - start
            energies = [r.energy for r in results]
            if reference is None:
                reference = energies
            else:
                np.testing.assert_allclose(energies, reference, atol=1e-12)
            rows.append([chunk, elapsed])
        return rows

    rows = once(run)

    print("\n=== Ablation: starmap_async chunksize (2 workers, seconds) ===")
    print(render_table(["chunksize", "wall time"], rows))

    measured = [r[1] for r in rows]
    # results must exist for every chunk size and stay in the same regime
    # (no pathological blow-up from chunking on a uniform bag)
    assert len(measured) == len(CHUNK_SIZES)
    assert max(measured) < min(measured) * 3

    ExperimentRecord(
        experiment="ablation_chunksize",
        paper_claim="per-combination dispatch (chunksize 1) is the paper's configuration",
        parameters={"chunks": list(CHUNK_SIZES), "tasks": len(jobs)},
        measured={"rows": [[str(r[0]), float(r[1])] for r in rows]},
        verdict="identical results at all chunk sizes; timings in one regime",
    ).save()
