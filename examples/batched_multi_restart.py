"""Multi-restart training as one batch on the compiled engine.

Quickstart for the batch-native optimizer stack: train the paper's
winning ``('rx', 'ry')`` mixer with K random restarts where every SPSA
iteration evaluates all 2K +- probes in a *single* vectorized
``energies`` call (compare ``batch_mode="serial"`` — the historical
loop of K independent trainings). The same knobs ride the Evaluator:
``EvaluationConfig(optimizer="spsa", restarts=8, batch_mode="auto")``
trains every candidate of a search this way, and the CLI exposes them as
``--optimizer/--restarts/--batch-mode``.

Run from the repo root::

    PYTHONPATH=src python examples/batched_multi_restart.py
"""

import time

import numpy as np

from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.graphs.datasets import paper_er_dataset
from repro.optimizers import SPSA, MultiRestart
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy

RESTARTS = 8
P = 2
STEPS = 40

graph = paper_er_dataset(1)[0]
ansatz = build_qaoa_ansatz(graph, P, ("rx", "ry"))
negated = AnsatzEnergy(ansatz, engine="compiled").negative_objective()
seeds = np.random.default_rng(7).uniform(-0.5, 0.5, (RESTARTS, ansatz.num_parameters))

print(f"training {RESTARTS} restarts of ('rx','ry') at p={P} "
      f"on a {graph.num_nodes}-node graph\n")
for mode in ("serial", "batched"):
    optimizer = MultiRestart(SPSA(maxiter=STEPS, seed=0), batch_mode=mode)
    start = time.perf_counter()
    result = optimizer.minimize_population(negated, seeds)
    seconds = time.perf_counter() - start
    print(f"{mode:>8}: best <C> = {-result.fun:.4f} "
          f"({result.nfev} trained points, {seconds:.2f}s)")

# The same path through the Evaluator — one config knob:
config = EvaluationConfig(
    optimizer="spsa", max_steps=2 * STEPS, restarts=RESTARTS, batch_mode="auto"
)
evaluation = Evaluator([graph], config).evaluate(("rx", "ry"), P)
print(f"\nEvaluator reward (mean ratio): {evaluation.ratio:.4f} "
      f"in {evaluation.seconds:.2f}s ({evaluation.nfev} evaluations)")
