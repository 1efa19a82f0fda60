"""Workload scaling presets for the benches.

The paper's workloads (20 graphs x 2500 candidates x 200 COBYLA steps) ran
on Polaris nodes; regenerating every figure at that scale on a laptop CI
box would take days. Each bench therefore reads a scale preset:

* ``ci``      — minutes on 2 cores; enough to reproduce every *shape*;
* ``laptop``  — tens of minutes; tighter statistics;
* ``paper``   — the full §3 workload (needs a real node).

Select via the ``QARCH_BENCH_SCALE`` environment variable (default ``ci``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "ExperimentScale",
    "get_scale",
    "measure_array_backends",
    "paper_probe_workload",
    "seconds_per_eval",
    "SCALES",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Per-figure workload knobs."""

    name: str
    #: graphs per dataset (paper: 20)
    num_graphs: int
    #: optimizer steps per candidate (paper: 200)
    max_steps: int
    #: candidate mixers per depth in profiling runs (paper: 625 sequences)
    num_candidates: int
    #: independent repetitions for averaged figures (paper: 5)
    num_runs: int
    #: maximum QAOA depth in the Fig. 4 sweep (paper: 4)
    p_max: int


SCALES = {
    "ci": ExperimentScale(
        name="ci", num_graphs=3, max_steps=30, num_candidates=10, num_runs=2, p_max=3
    ),
    "laptop": ExperimentScale(
        name="laptop", num_graphs=8, max_steps=60, num_candidates=40, num_runs=3, p_max=4
    ),
    "paper": ExperimentScale(
        name="paper", num_graphs=20, max_steps=200, num_candidates=625, num_runs=5, p_max=4
    ),
}


def paper_probe_workload():
    """The single-candidate probe the engine benches time: a 10-qubit ER
    graph with the winning ``('rx', 'ry')`` mixer at p=4, plus a fixed
    probe parameter vector.

    Shared by ``benchmarks/bench_compiled_engine.py`` (the CI speedup
    gate) and ``scripts/bench_report.py`` (the committed throughput
    artifact) so the two can never drift onto different workloads.
    Returns ``(graph, ansatz, x)``.
    """
    import numpy as np

    from repro.graphs.generators import erdos_renyi_graph
    from repro.qaoa.ansatz import build_qaoa_ansatz

    graph = erdos_renyi_graph(10, 0.5, seed=3, require_connected=True)
    ansatz = build_qaoa_ansatz(graph, 4, ("rx", "ry"))
    x = np.random.default_rng(0).uniform(-1.0, 1.0, ansatz.num_parameters)
    return graph, ansatz, x


def seconds_per_eval(energy, x, rounds: int) -> float:
    """Shared per-evaluation timing loop for the engine benches: one
    warm-up call (which also triggers any lazy compilation), then
    ``rounds`` timed calls. Lives next to :func:`paper_probe_workload` so
    the CI speedup gate and the throughput report measure the same way.
    """
    import time

    energy.value(x)
    start = time.perf_counter()
    for _ in range(rounds):
        energy.value(x)
    return (time.perf_counter() - start) / rounds


def measure_array_backends(ansatz, x, timed_evals: int) -> dict:
    """Compiled-engine per-eval timing for every registered array backend.

    The per-backend axis the engine benches share: ``numpy`` is the gated
    baseline, ``mock_gpu`` proves the dispatch seam stays exercised (and
    bit-identical) on CPU-only runners, and a box with CuPy installed
    contributes a ``cupy`` row with no bench change — the GPU trajectory
    ``BENCH_evaluator.json`` exists to track. Every backend must
    reproduce the numpy backend's probe energy to 1e-10 or this raises.
    Timings bracket with ``synchronize`` so devices are charged for
    work, not launches. One definition, called by both
    ``benchmarks/bench_compiled_engine.py`` and
    ``scripts/bench_report.py``, so the row shape can never drift
    between the gate and the committed artifact.
    """
    from repro.qaoa.energy import AnsatzEnergy
    from repro.simulators.backends import available_array_backends, get_array_backend

    rows: dict = {}
    reference = None
    for name in available_array_backends():
        backend = get_array_backend(name)
        energy = AnsatzEnergy(ansatz, engine="compiled", array_backend=backend)
        value = energy.value(x)
        if reference is None:
            reference = value  # "numpy" registers first
        drift = abs(value - reference)
        assert drift < 1e-10, (
            f"array backend {name!r} disagrees with the numpy backend at "
            f"the probe point (|delta|={drift:.3g}) — the dispatch seam "
            "is broken"
        )
        backend.synchronize()
        seconds = seconds_per_eval(energy, x, timed_evals)
        backend.synchronize()
        rows[name] = {
            "seconds_per_eval": seconds,
            "evals_per_sec": 1.0 / seconds,
            "energy_at_probe": value,
            "stats": backend.stats(),
        }
    return rows


def get_scale() -> ExperimentScale:
    """Resolve the active preset (env ``QARCH_BENCH_SCALE``, default ``ci``)."""
    name = os.environ.get("QARCH_BENCH_SCALE", "ci")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; options: {sorted(SCALES)}"
        ) from None
