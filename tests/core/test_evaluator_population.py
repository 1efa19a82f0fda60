"""One population per candidate: ``Evaluator.evaluate`` trains every graph's
restarts in lockstep — pinned, field for field and bit for bit, to the
per-graph population path it replaced (one ``MultiRestart`` run per graph,
each with its own optimizer and objective)."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.evaluator import EvaluationConfig, Evaluator, warm_start_rows
from repro.core.results import CandidateEvaluation
from repro.graphs.datasets import paper_er_dataset
from repro.optimizers import SPSA, Adam, Cobyla, MultiRestart, NelderMead
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.maxcut import approximation_ratio

TOKENS, P = ("rz", "rx"), 2  # a fused head: the program has a k >= 2 block
BUDGET = {"spsa": 8, "nelder_mead": 12, "adam": 2}


def per_graph_optimizer(config: EvaluationConfig):
    if config.optimizer == "spsa":
        return SPSA(maxiter=config.max_steps // 2, seed=config.seed)
    if config.optimizer == "nelder_mead":
        return NelderMead(maxiter=config.max_steps)
    if config.optimizer == "cobyla":
        return Cobyla(maxiter=config.max_steps)
    return Adam(maxiter=config.max_steps)  # reads this graph's objective's gradients


def per_graph_path(evaluator: Evaluator, tokens, p, warm) -> CandidateEvaluation:
    """The evaluation as it was before graphs trained together."""
    config = evaluator.config
    X0 = evaluator._initial_points(p, tokens, warm)
    energies, ratios, best_params, nfev = [], [], [], 0
    for index, graph in enumerate(evaluator.graphs):
        objective = AnsatzEnergy(
            evaluator.builder.build_qaoa(graph, tokens, p), engine=config.engine
        )
        negated = objective.negative_objective()
        result = MultiRestart(
            per_graph_optimizer(config), batch_mode=config.batch_mode
        ).minimize_population(negated, X0[index * config.restarts:(index + 1) * config.restarts])
        energies.append(float(-result.fun))
        best_params.append(tuple(float(v) for v in result.x))
        nfev += result.nfev
        numerator = energies[-1]
        if config.metric == "best_sampled":
            numerator = evaluator._best_sampled_value(objective, result.x)
        ratios.append(
            approximation_ratio(numerator, graph, classical_value=evaluator._classical[index])
        )
    return CandidateEvaluation(
        tokens=tokens,
        p=p,
        energy=float(np.mean(energies)),
        ratio=float(np.mean(ratios)),
        per_graph_energy=tuple(energies),
        per_graph_ratio=tuple(ratios),
        nfev=nfev,
        seconds=0.0,
        best_params=tuple(best_params),
    )


def minus_seconds(evaluation: CandidateEvaluation) -> dict:
    fields = asdict(evaluation)
    del fields["seconds"]
    return fields


@pytest.fixture(scope="module")
def datasets():
    """``er:2`` and ``er:3``, as ``repro.api`` resolves them."""
    return {count: paper_er_dataset(count) for count in (2, 3)}


@pytest.mark.parametrize("metric", ["energy", "best_sampled"])
@pytest.mark.parametrize("init", ["uniform", "interp"])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("optimizer", ["spsa", "nelder_mead", "adam"])
def test_one_population_equals_the_per_graph_path(
    datasets, optimizer, count, restarts, init, metric
):
    """Adam is the trap: a gradient bound to one graph's energy would
    descend graph 0's gradient on every row and still return *a* result."""
    config = EvaluationConfig(
        optimizer=optimizer,
        max_steps=BUDGET[optimizer],
        restarts=restarts,
        init_strategy=init,
        metric=metric,
        shots=16,
        seed=4,
    )
    evaluator = Evaluator(datasets[count], config)
    warm = None
    if init == "interp":
        rng = np.random.default_rng(count)
        warm = tuple(tuple(row) for row in rng.uniform(-0.4, 0.4, (count, 2 * (P - 1))))
        assert warm_start_rows(warm, count, P) == warm
    together = evaluator.evaluate(TOKENS, P, warm_start=warm)
    assert minus_seconds(together) == minus_seconds(per_graph_path(evaluator, TOKENS, P, warm))
    assert len(set(together.per_graph_energy)) == count  # the graphs do differ


@pytest.mark.parametrize("engine", ["compiled", "statevector"])
@pytest.mark.parametrize(
    "optimizer, mode",
    [("cobyla", "auto"), ("spsa", "serial"), ("adam", "serial"), ("nelder_mead", "batched")],
)
def test_the_serial_walk_and_the_dense_engine_train_each_row_on_its_own_graph(
    datasets, optimizer, mode, engine
):
    """COBYLA, ``batch_mode="serial"`` and the dense engine walk the same
    population row by row (the dense ``values`` point by point)."""
    config = EvaluationConfig(
        optimizer=optimizer,
        max_steps={"cobyla": 10, "adam": 1}.get(optimizer, 8),
        restarts=2,
        batch_mode=mode,
        engine=engine,
        seed=9,
    )
    evaluator = Evaluator(datasets[3], config)
    together = evaluator.evaluate(("rx", "ry"), 1)
    assert minus_seconds(together) == minus_seconds(
        per_graph_path(evaluator, ("rx", "ry"), 1, None)
    )
    assert len(set(together.per_graph_energy)) == 3
