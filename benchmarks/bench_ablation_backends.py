"""Ablation — simulation engines: dense state vector vs tensor network.

Times one full max-cut energy evaluation (all edges) at p=1 on 3-regular
graphs of growing size with (a) the dense state-vector engine, (b) the
tensor-network engine with lightcone pruning on the NumPy array backend,
and (c) the ``mock_gpu`` array backend's *modelled* device time.

The expected shape: dense wins at small n (tiny state, one pass), the
tensor network overtakes as n grows because each edge term only touches a
constant-size lightcone while the dense state doubles per qubit — the
scaling argument for QTensor as the search's backend.

A second table times the tensor network alone at p=2 on graphs no dense
engine holds (n up to 64), in raw and in reference-box seconds
(``benchmarks/e2e/speed.py``), with the contraction width: the measurement
the ROADMAP ``qtensor/`` item's decision rule reads. The seconds are reported, not gated.
"""

from __future__ import annotations

import time

from e2e.speed import Stretch

from repro.experiments.figures import render_table
from repro.experiments.records import ExperimentRecord
from repro.graphs.generators import random_regular_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qtensor.simulator import QTensorSimulator
from repro.simulators.expectation import maxcut_expectation
from repro.simulators.statevector import simulate, zero_state

SIZES = (10, 14, 18, 20)
#: tensor-network-only sizes, past what a dense state vector holds
LARGE_SIZES = (24, 32, 48, 64)
LARGE_ANGLES = [0.4, 0.7, 0.2, 0.5]  # p = 2


def bench_ablation_backends(once):
    def run():
        rows = []
        crossover_seen = False
        for n in SIZES:
            graph = random_regular_graph(n, 3, seed=3)
            bound = build_qaoa_ansatz(graph, 1).bind([0.4, 0.7])

            start = time.perf_counter()
            dense_energy = maxcut_expectation(simulate(bound, zero_state(n)), graph)
            dense_time = time.perf_counter() - start

            tn = QTensorSimulator()
            start = time.perf_counter()
            tn_energy = tn.maxcut_energy(bound, graph, initial_state="0")
            tn_time = time.perf_counter() - start

            gpu = QTensorSimulator(backend="mock_gpu")
            gpu_energy = gpu.maxcut_energy(bound, graph, initial_state="0")
            gpu_device_time = gpu.backend.stats()["device_seconds"]

            assert abs(dense_energy - tn_energy) < 1e-8
            assert abs(dense_energy - gpu_energy) < 1e-8
            if tn_time < dense_time:
                crossover_seen = True
            rows.append([n, dense_time, tn_time, gpu_device_time, max(tn.last_widths)])

        large_rows = []
        before = None
        for n in LARGE_SIZES:
            graph = random_regular_graph(n, 3, seed=3)
            bound = build_qaoa_ansatz(graph, 2).bind(LARGE_ANGLES)
            tn = QTensorSimulator()
            with Stretch(before=before) as stretch:
                energy = tn.maxcut_energy(bound, graph, initial_state="0")
            before = stretch.handover()
            assert 0.0 <= energy <= graph.num_edges
            large_rows.append(
                [n, stretch.wall * stretch.slowdown, stretch.wall, max(tn.last_widths)]
            )
        return rows, large_rows, crossover_seen

    rows, large_rows, crossover_seen = once(run)

    print("\n=== Ablation: engine timing per full energy evaluation (s) ===")
    print(
        render_table(
            ["n", "dense", "tensor_net", "gpu(model)", "max width"],
            rows,
            float_format="{:.4f}",
        )
    )
    print("\n=== Tensor network alone, p=2: seconds per maxcut_energy ===")
    print(
        render_table(
            ["n", "seconds", "reference-box s", "max width"],
            large_rows,
            float_format="{:.3f}",
        )
    )

    # Shape assertions: dense cost explodes with n while TN widths stay
    # flat; by the largest size the TN engine must have overtaken dense.
    dense_times = [r[1] for r in rows]
    widths = [r[4] for r in rows] + [r[3] for r in large_rows]
    assert dense_times[-1] > dense_times[0] * 4, "dense cost must grow steeply"
    assert max(widths) <= 10, "lightcone widths must stay graph-local"
    assert rows[-1][2] < rows[-1][1], "tensor network must win at the largest size"

    ExperimentRecord(
        experiment="ablation_backends",
        paper_claim="tensor-network simulation scales past dense statevector for local observables",
        parameters={
            "sizes": list(SIZES), "p": 1, "degree": 3,
            "large_sizes": list(LARGE_SIZES), "large_p": 2,
        },
        measured={
            "rows": [[float(x) for x in r] for r in rows],
            "large_rows": [[float(x) for x in r] for r in large_rows],
        },
        verdict=f"TN overtakes dense by n={SIZES[-1]}; crossover observed: {crossover_seen}",
    ).save()
