"""The built-in workloads: MaxCut, weighted MaxCut, Max-2-SAT, spin-glass
Ising.

All four are diagonal-Hamiltonian encodings over the existing engine —
each workload's cost layer is 1- and 2-local Z rotations, which the
compiled engine fuses into a single per-layer phase diagonal, and each
objective table is a vectorized function of :func:`~repro.simulators.
expectation.bit_table`.

Encoding conventions (``RZ(t) = exp(-i t Z/2)``, ``RZZ(t) = exp(-i t ZZ/2)``,
``z_i = 1 - 2 b_i``):

* **maxcut / wmaxcut** — ``C = sum_e w_e (1 - z_u z_v)/2``; per edge
  ``rzz(-gamma * w)`` (the seed encoding, kept gate-identical).
* **maxsat** (Max-2-SAT) — each edge is one 2-literal clause with stable
  pseudo-random polarities ``s in {+1, -1}``. A clause contributes
  ``w * [3/4 - (s_u z_u + s_v z_v + s_u s_v z_u z_v)/4]``, so the phase
  separator is ``rz(-gamma * w s_u / 2)``, ``rz(-gamma * w s_v / 2)``,
  ``rzz(-gamma * w s_u s_v / 2)`` per clause (constants are global phase).
* **ising** (spin glass / portfolio) — couplings ``J_e = w_e`` (signed);
  the search maximizes ``C = -H = -sum_e J_e z_u z_v``, i.e. finds the
  ground state of ``H``; per bond ``rzz(-2 gamma * J)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import ParameterValue
from repro.graphs.datasets import (
    paper_er_dataset,
    paper_maxsat_dataset,
    paper_spin_glass_dataset,
    paper_weighted_dataset,
)
from repro.graphs.generators import Graph
from repro.qaoa.cost_operator import append_cost_layer as append_maxcut_layer
from repro.qaoa.maxcut import brute_force_maxcut
from repro.simulators.expectation import TABLE_MEMO_MAX_NODES, bit_table, cut_values
from repro.utils.rng import stable_seed
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

__all__ = [
    "MaxCutWorkload",
    "WeightedMaxCutWorkload",
    "MaxSatWorkload",
    "IsingWorkload",
    "clause_signs",
]

class MaxCutWorkload(Workload):
    """Unweighted MaxCut — the paper's driver application (Eq. 1).

    This is the seed behavior, bit-identical to the pre-registry code
    paths: the objective table *is* the memoized :func:`cut_values` array
    and the cost layer delegates to :mod:`repro.qaoa.cost_operator`.
    """

    name = "maxcut"
    family = "er"
    summary = "unweighted MaxCut on ER/regular graphs (the paper's Eq. 1)"

    def objective_values(self, graph: Graph) -> np.ndarray:
        return cut_values(graph)

    def append_cost_layer(
        self, circuit: QuantumCircuit, graph: Graph, gamma: ParameterValue
    ) -> QuantumCircuit:
        return append_maxcut_layer(circuit, graph, gamma)

    def classical_optimum(self, graph: Graph) -> float:
        # exact same call the seed evaluator made, so optima (and therefore
        # approximation ratios) are bit-identical
        return brute_force_maxcut(graph).value

    def dataset(
        self, count: int, *, num_nodes: int = 10, dataset_seed: int = 2023
    ) -> Sequence[Graph]:
        return paper_er_dataset(count, num_nodes, dataset_seed=dataset_seed)


class WeightedMaxCutWorkload(MaxCutWorkload):
    """Weighted MaxCut: same cut objective and phase separator (both already
    weight-aware), drawn over instances with non-unit edge weights."""

    name = "wmaxcut"
    family = "wmaxcut"
    summary = "weighted MaxCut (uniform [0.25, 1.75] edge weights)"

    def dataset(
        self, count: int, *, num_nodes: int = 10, dataset_seed: int = 2023
    ) -> Sequence[Graph]:
        return paper_weighted_dataset(count, num_nodes, dataset_seed=dataset_seed)


def clause_signs(u: int, v: int) -> tuple[int, int]:
    """Stable per-edge literal polarities for the Max-2-SAT encoding.

    A pure function of the (canonical) edge so the objective table, the
    cost layer, and the classical oracle always agree — no clause state is
    stored anywhere.
    """
    h = stable_seed("maxsat-clause", u, v)
    return (1 if h & 1 else -1, 1 if h & 2 else -1)


@lru_cache(maxsize=256)
def _maxsat_table(graph: Graph) -> np.ndarray:
    bits = bit_table(graph.num_nodes)
    values = np.zeros(2**graph.num_nodes)
    for (u, v), w in zip(graph.edges, graph.weights):
        s_u, s_v = clause_signs(u, v)
        lit_u = bits[:, u] if s_u > 0 else 1 - bits[:, u]
        lit_v = bits[:, v] if s_v > 0 else 1 - bits[:, v]
        values += w * (1.0 - (1 - lit_u) * (1 - lit_v))
    values.setflags(write=False)
    return values


class MaxSatWorkload(Workload):
    """Weighted Max-2-SAT: every edge is one 2-literal clause whose
    polarities derive stably from the edge endpoints; the objective is the
    total weight of satisfied clauses."""

    name = "maxsat"
    family = "maxsat"
    summary = "weighted Max-2-SAT (one clause per edge, stable polarities)"

    def objective_values(self, graph: Graph) -> np.ndarray:
        if graph.num_nodes > TABLE_MEMO_MAX_NODES:
            return _maxsat_table.__wrapped__(graph)
        return _maxsat_table(graph)

    def append_cost_layer(
        self, circuit: QuantumCircuit, graph: Graph, gamma: ParameterValue
    ) -> QuantumCircuit:
        for (u, v), w in zip(graph.edges, graph.weights):
            s_u, s_v = clause_signs(u, v)
            circuit.rz(gamma * (-0.5 * w * s_u), u)
            circuit.rz(gamma * (-0.5 * w * s_v), v)
            circuit.rzz(gamma * (-0.5 * w * s_u * s_v), u, v)
        return circuit

    def validate_instance(self, graph: Graph) -> None:
        if any(w <= 0 for w in graph.weights):
            raise ValueError("maxsat clause weights must be positive")

    def dataset(
        self, count: int, *, num_nodes: int = 10, dataset_seed: int = 2023
    ) -> Sequence[Graph]:
        return paper_maxsat_dataset(count, num_nodes, dataset_seed=dataset_seed)


@lru_cache(maxsize=256)
def _ising_table(graph: Graph) -> np.ndarray:
    bits = bit_table(graph.num_nodes)
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        values = np.zeros(2**graph.num_nodes)
    else:
        z = 1.0 - 2.0 * bits
        values = -(z[:, edges[:, 0]] * z[:, edges[:, 1]]) @ graph.weight_array()
    values.setflags(write=False)
    return values


class IsingWorkload(Workload):
    """Spin-glass / portfolio Ising: signed couplings ``J_e`` on the edges;
    the search maximizes ``-H = -sum_e J_e z_u z_v``, i.e. finds the ground
    state of the glass Hamiltonian."""

    name = "ising"
    family = "ising"
    summary = "spin-glass Ising ground state (signed couplings in [-1, 1])"

    def objective_values(self, graph: Graph) -> np.ndarray:
        if graph.num_nodes > TABLE_MEMO_MAX_NODES:
            return _ising_table.__wrapped__(graph)
        return _ising_table(graph)

    def append_cost_layer(
        self, circuit: QuantumCircuit, graph: Graph, gamma: ParameterValue
    ) -> QuantumCircuit:
        for (u, v), w in zip(graph.edges, graph.weights):
            circuit.rzz(gamma * (-2.0 * w), u, v)
        return circuit

    def dataset(
        self, count: int, *, num_nodes: int = 10, dataset_seed: int = 2023
    ) -> Sequence[Graph]:
        return paper_spin_glass_dataset(count, num_nodes, dataset_seed=dataset_seed)


register_workload(MaxCutWorkload())
register_workload(WeightedMaxCutWorkload())
register_workload(MaxSatWorkload())
register_workload(IsingWorkload())
