"""The Evaluator module: train a candidate ansatz, emit its reward.

§2.1: "responsible for training the generated quantum circuit on the QAOA
cost function in Equation 1. The trained circuit is then evaluated and the
reward is propagated back to the predictor module." Training follows the
paper exactly by default — COBYLA for 200 steps — and the reward is the
approximation ratio of Eq. (3).

The module-level :func:`evaluate_candidate` is the unit of work the
parallel search fans out: it is picklable (plain function + dataclass
arguments), deterministic given its config seed, and self-contained so a
worker process needs no shared state.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.core.qbuilder import QBuilder
from repro.core.results import CandidateEvaluation
from repro.graphs.generators import Graph
from repro.optimizers import (
    BATCH_MODES,
    TRAINING_OPTIMIZERS,
    MultiRestart,
    OptimizeResult,
    preload_optimizer,
    training_optimizer,
)
from repro.qaoa.energy import ENGINES, AnsatzEnergy, NegatedPopulation
from repro.qaoa.maxcut import approximation_ratio
from repro.simulators.backends import available_array_backends
from repro.utils.rng import as_rng, stable_seed
from repro.utils.validation import check_choice, check_positive
from repro.workloads import available_workloads, get_workload

__all__ = [
    "EvaluationConfig",
    "Evaluator",
    "INIT_STRATEGIES",
    "METRICS",
    "classical_optima",
    "evaluate_candidate",
    "warm_start_rows",
]

#: initial-parameter strategies the evaluator accepts; "interp" seeds
#: restart 0 from the INTERP lift of the previous depth's optimum when the
#: runtime threads one through (repro.qaoa.initialization.interp_init) and
#: falls back to ramp draws otherwise
INIT_STRATEGIES = ("uniform", "ramp", "interp")
#: how Eq. (3)'s numerator is scored (see ``EvaluationConfig.metric``)
METRICS = ("energy", "best_sampled")


def classical_optima(
    graphs: Sequence[Graph], workload: str = "maxcut"
) -> tuple[float, ...]:
    """The workload's exact classical optimum of every instance.

    This is the expensive, candidate-independent part of scoring (``2^n``
    per graph): compute it once per search and ship the values to workers
    instead of paying it inside every candidate evaluation. The oracle is
    per-workload (brute force over the objective table by default).
    """
    oracle = get_workload(workload)
    return tuple(oracle.classical_optimum(g) for g in graphs)


def warm_start_rows(
    warm_start: Sequence[Sequence[float]] | None, num_graphs: int, p: int
) -> tuple[tuple[float, ...], ...] | None:
    """The INTERP hand-off normalized — one depth ``p - 1`` parameter vector
    per graph — or ``None`` for shapes that cannot seed depth ``p``. The one
    place its shape is judged: the runtime keys the cache by what this
    returns and the evaluator trains from it."""
    if warm_start is None or len(warm_start) != num_graphs or p < 2:
        return None
    rows = tuple(tuple(float(v) for v in row) for row in warm_start)
    if any(len(row) != 2 * (p - 1) for row in rows):
        return None
    return rows


@dataclass(frozen=True)
class EvaluationConfig:
    """Everything that fixes how one candidate is trained and scored."""

    #: classical optimizer: cobyla (paper), nelder_mead, spsa, adam
    optimizer: str = "cobyla"
    #: optimizer evaluation budget (paper: 200)
    max_steps: int = 200
    #: independent optimizer restarts per graph; best result kept
    restarts: int = 1
    #: simulation engine: "compiled" (pre-lowered array program, the fast
    #: default) or "statevector" (per-gate dense oracle)
    engine: str = "compiled"
    #: array backend the compiled engine runs under: "numpy" (default),
    #: "mock_gpu" (metered CPU stand-in), or "cupy" when installed — see
    #: repro.simulators.backends; part of the cache fingerprint like engine
    array_backend: str = "numpy"
    #: base seed for initial-parameter draws (stably combined per graph/restart)
    seed: int = 7
    #: how Eq. (3)'s ratio is scored: "energy" uses the trained <C>;
    #: "best_sampled" uses E[best cut of `shots` measurements] — the
    #: paper's "<C_max> ... largest cut discovered" reading, which places
    #: ratios in its reported 0.98..1.0 band
    metric: str = "energy"
    #: measurement budget for the best_sampled metric
    shots: int = 128
    #: initial-parameter strategy: "uniform" (paper), "ramp" (annealing
    #: schedule; better conditioned at depth, see repro.qaoa.initialization),
    #: or "interp" (warm-start each depth from the INTERP lift of the
    #: previous depth's optimum when the runtime provides one, ramp draws
    #: for the remaining restarts)
    init_strategy: str = "uniform"
    #: how restart populations train: "auto" batches all restarts' per-step
    #: proposals into single vectorized energy calls whenever the optimizer
    #: is batch-native (spsa, nelder_mead, adam), "batched" forces the
    #: population path, "serial" forces one optimizer run per restart
    batch_mode: str = "auto"
    #: which problem the candidates optimize — a repro.workloads registry
    #: key. Part of the cache fingerprint (like engine/array_backend), so
    #: two workloads can never share cached candidate results.
    workload: str = "maxcut"

    def __post_init__(self) -> None:
        check_positive(self.max_steps, "max_steps")
        check_positive(self.restarts, "restarts")
        check_positive(self.shots, "shots")
        check_choice(self.optimizer, "optimizer", TRAINING_OPTIMIZERS)
        preload_optimizer(self.optimizer)
        check_choice(self.engine, "engine", ENGINES)
        check_choice(self.array_backend, "array backend", available_array_backends())
        check_choice(self.batch_mode, "batch mode", BATCH_MODES)
        check_choice(self.metric, "metric", METRICS)
        check_choice(self.init_strategy, "init strategy", INIT_STRATEGIES)
        check_choice(self.workload, "workload", available_workloads())


class Evaluator:
    """Scores candidate mixers on a workload of graphs.

    Classical optima (brute force) are computed once per graph and cached;
    an in-memory result cache makes repeat proposals free, which matters
    for the RL controller (it re-proposes good sequences often).
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        config: EvaluationConfig | None = None,
        *,
        classical_values: Sequence[float] | None = None,
    ) -> None:
        if not graphs:
            raise ValueError("evaluator needs at least one graph")
        self.graphs = list(graphs)
        # built here, not as a default argument: constructing a config is
        # what loads its optimizer, and importing this module must not
        self.config = config = config if config is not None else EvaluationConfig()
        self.builder = QBuilder()
        self._workload = get_workload(config.workload)
        if classical_values is not None:
            if len(classical_values) != len(self.graphs):
                raise ValueError(
                    f"got {len(classical_values)} classical values for "
                    f"{len(self.graphs)} graphs"
                )
            self._classical = [float(v) for v in classical_values]
        else:
            self._classical = list(classical_optima(self.graphs, config.workload))
        self._cache: dict[tuple, CandidateEvaluation] = {}
        self.cache_hits = 0

    # -- public API ---------------------------------------------------------------

    def evaluate(
        self,
        tokens: Sequence[str],
        p: int,
        warm_start: Sequence[Sequence[float]] | None = None,
    ) -> CandidateEvaluation:
        """Train the candidate on every graph; return aggregate record.

        ``warm_start`` optionally carries one per-graph parameter vector
        from depth ``p - 1`` (the runtime's INTERP hand-off): with
        ``init_strategy="interp"`` each graph's restart 0 starts from the
        :func:`~repro.qaoa.initialization.interp_init` lift of its vector.
        """
        tokens = tuple(tokens)
        warm = None
        if self.config.init_strategy == "interp":
            warm = warm_start_rows(warm_start, len(self.graphs), p)
        key = (tokens, int(p), warm)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        start = time.perf_counter()
        # One ansatz (and one compiled program) per graph, shared by training
        # and best_sampled scoring; under the compiled engine the program is
        # stitched from memoized layer fragments and the ansatz never builds
        # its circuit. All are built first: they train as one population.
        config = self.config
        objectives = [
            AnsatzEnergy(
                self.builder.build_qaoa(graph, tokens, p, workload=config.workload),
                engine=config.engine,
                array_backend=config.array_backend,
            )
            for graph in self.graphs
        ]
        trained = self._train(objectives, self._initial_points(p, tokens, warm))
        energies: list[float] = []
        ratios: list[float] = []
        best_params: list[tuple[float, ...]] = []
        for graph_index, (graph, objective) in enumerate(zip(self.graphs, objectives)):
            mine = trained[graph_index * config.restarts:(graph_index + 1) * config.restarts]
            best = min(mine, key=lambda r: r.fun)
            energies.append(float(-best.fun))
            best_params.append(tuple(float(v) for v in best.x))
            if config.metric == "best_sampled":
                numerator = self._best_sampled_value(objective, best.x)
            else:
                numerator = energies[-1]
            ratios.append(
                approximation_ratio(
                    numerator, graph, classical_value=self._classical[graph_index]
                )
            )
        result = CandidateEvaluation(
            tokens=tokens,
            p=int(p),
            energy=float(np.mean(energies)),
            ratio=float(np.mean(ratios)),
            per_graph_energy=tuple(energies),
            per_graph_ratio=tuple(ratios),
            nfev=sum(r.nfev for r in trained),
            seconds=time.perf_counter() - start,
            best_params=tuple(best_params),
        )
        self._cache[key] = result
        return result

    def reward(self, tokens: Sequence[str], p: int) -> float:
        """Scalar reward for predictor feedback (mean approximation ratio)."""
        return self.evaluate(tokens, p).reward

    # -- internals ------------------------------------------------------------------

    def _initial_points(
        self,
        p: int,
        tokens: tuple[str, ...],
        warm: tuple[tuple[float, ...], ...] | None = None,
    ) -> np.ndarray:
        """The ``graphs x restarts`` start points, graph-major: one seeded
        row per graph and restart (the draws the per-graph path always
        used). Under ``init_strategy="interp"`` a validated ``warm`` row (the
        graph's previous-depth optimum) replaces its restart 0 with the INTERP
        lift; fresh rows fall back to ramp draws, well conditioned at depth."""
        from repro.qaoa.initialization import interp_init, ramp_init, uniform_init

        rows = []
        for graph_index, restart in product(range(len(self.graphs)), range(self.config.restarts)):
            rng = as_rng(
                stable_seed(self.config.seed, "init", graph_index, p, restart, *tokens)
            )
            if restart == 0 and warm is not None:
                rows.append(np.asarray(interp_init(np.asarray(warm[graph_index])), dtype=float))
            elif self.config.init_strategy in ("ramp", "interp"):
                rows.append(ramp_init(p, rng=rng, jitter=0.05))
            else:
                rows.append(uniform_init(p, rng=rng))
        return np.stack(rows)

    def _train(
        self, objectives: Sequence[AnsatzEnergy], X0: np.ndarray
    ) -> list[OptimizeResult]:
        """Every graph's restarts — the rows of the graph-major start block
        ``X0`` — trained as one population; one result per row. With a
        batch-native optimizer (and ``batch_mode`` "auto"/"batched") each
        step's proposals across graphs and restarts ride one grouped engine
        call, bit-identical to training graph after graph; otherwise
        :class:`MultiRestart` walks the rows, one serial run each on its own
        graph — the same results on an exact objective, equal to round-off
        only on the compiled engine (the ROADMAP results-epoch item)."""
        config = self.config
        owner = np.repeat(np.arange(len(objectives)), config.restarts)
        base = training_optimizer(config.optimizer, max_steps=config.max_steps, seed=config.seed)
        meta = MultiRestart(base, batch_mode=config.batch_mode)
        return meta.minimize_population(NegatedPopulation(objectives, owner), X0).sub_results

    def _best_sampled_value(
        self, objective: AnsatzEnergy, params: np.ndarray
    ) -> float:
        """Eq. (3) numerator: exact E[best objective value over `shots`
        measurements] of the trained circuit's output distribution, against
        the workload's table. Reuses the objective (and its compiled
        program) that training just used."""
        from repro.qaoa.maxcut import expected_best_value

        state = objective.final_state(params)
        return expected_best_value(
            np.abs(state) ** 2,
            self._workload.objective_values(objective.ansatz.graph),
            self.config.shots,
        )


def evaluate_candidate(
    graphs: Sequence[Graph],
    tokens: Sequence[str],
    p: int,
    config: EvaluationConfig,
    classical_values: Sequence[float] | None = None,
    warm_start: Sequence[Sequence[float]] | None = None,
) -> CandidateEvaluation:
    """Stateless worker entry point for process pools (Fig. 3's unit of
    parallel work): builds a fresh Evaluator and scores one candidate.

    Pass ``classical_values`` (from :func:`classical_optima`, computed once
    in the parent) to spare every worker the per-candidate brute-force
    solve, and optionally ``warm_start`` — per-graph depth ``p - 1``
    optima the runtime threads through for ``init_strategy="interp"``.
    """
    return Evaluator(graphs, config, classical_values=classical_values).evaluate(
        tokens, p, warm_start=warm_start
    )
