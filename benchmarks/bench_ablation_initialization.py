"""Ablation — QAOA parameter initialization at depth.

The paper trains from random starts. As p grows, random COBYLA starts fall
into local optima and the depth sweep stops paying off; the ramp (annealing
schedule) start and INTERP warm-started sweeps are the standard remedies.
This bench trains the baseline mixer on ER graphs at p = 1..3 under all
three protocols with the same optimizer budget per depth.
"""

from __future__ import annotations

from repro.core.alphabet import GateAlphabet
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.search import SearchConfig, search_mixer
from repro.experiments.figures import render_series
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import paper_er_dataset

P_VALUES = (1, 2, 3)


def bench_ablation_initialization(once):
    scale = get_scale()
    graphs = paper_er_dataset(min(scale.num_graphs, 3))
    steps = scale.max_steps

    def run():
        series = {}
        for strategy in ("uniform", "ramp"):
            config = EvaluationConfig(
                max_steps=steps, restarts=1, seed=0, init_strategy=strategy
            )
            evaluator = Evaluator(graphs, config)
            series[strategy] = [
                evaluator.evaluate(("rx",), p).ratio for p in P_VALUES
            ]
        # INTERP is a property of a sweep, not of one evaluation: the
        # runtime hands each depth the previous depth's optimum, so this
        # series is a search over the single-candidate pool ("rx",)
        sweep = search_mixer(
            graphs,
            SearchConfig(
                alphabet=GateAlphabet(("rx",)), k_max=1, p_max=max(P_VALUES),
                evaluation=EvaluationConfig(
                    max_steps=steps, restarts=1, seed=0, init_strategy="interp"
                ),
            ),
        )
        series["interp"] = [depth.best.ratio for depth in sweep.depth_results]
        return series

    series = once(run)

    print("\n=== Ablation: init strategy -> mean energy ratio vs p ===")
    print(render_series("p", list(P_VALUES), series))

    # Shape assertions: a warm-started sweep keeps paying off with depth
    # (the runtime's hand-off has no lifted-point fallback, so this is
    # measured, not by construction); ramp/interp must be at least
    # competitive with random starts at the deepest point.
    interp = series["interp"]
    assert all(b >= a - 1e-9 for a, b in zip(interp, interp[1:]))
    best_informed = max(series["ramp"][-1], series["interp"][-1])
    assert best_informed >= series["uniform"][-1] - 0.02

    ExperimentRecord(
        experiment="ablation_initialization",
        paper_claim="random-start COBYLA (paper) vs annealing-ramp and INTERP warm starts",
        parameters={"p_values": list(P_VALUES), "max_steps": steps,
                    "graphs": len(graphs)},
        measured={k: [float(x) for x in v] for k, v in series.items()},
        verdict=(
            f"at p={P_VALUES[-1]}: uniform {series['uniform'][-1]:.4f}, "
            f"ramp {series['ramp'][-1]:.4f}, interp {series['interp'][-1]:.4f}"
        ),
    ).save()
