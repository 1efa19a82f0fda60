"""The graph max-cut problem: objective, classical solvers, ratios.

Max-cut supplies QArchSearch's driver application (§1): the cost function
``C_MC(z) = 1/2 sum_{(u,v) in E} (1 - z_u z_v)`` of Eq. (1), classical
reference optima for the approximation ratio of Eq. (3), and cheap
heuristic baselines.

The paper's instances are 10 nodes, so the classical optimum is exact brute
force (vectorized over all 1024 assignments). For larger examples the
greedy/local-search heuristics below keep the approximation ratio defined.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphs.generators import Graph
from repro.simulators.expectation import cut_values
from repro.utils.rng import as_rng

__all__ = [
    "cut_value",
    "CutSolution",
    "brute_force_maxcut",
    "greedy_maxcut",
    "local_search_maxcut",
    "expected_best_value",
    "approximation_ratio",
]


def cut_value(graph: Graph, assignment: Sequence[int]) -> float:
    """Cut weight of a ±1 or 0/1 assignment (Eq. 1)."""
    arr = np.asarray(assignment)
    if arr.shape != (graph.num_nodes,):
        raise ValueError(
            f"assignment length {arr.shape} does not match {graph.num_nodes} nodes"
        )
    bits = np.where(arr <= 0, 0, 1) if arr.min() < 0 else arr.astype(np.int64)
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return 0.0
    crossing = bits[edges[:, 0]] != bits[edges[:, 1]]
    return float(crossing @ graph.weight_array())


@dataclass(frozen=True)
class CutSolution:
    """A cut: bitstring (qubit k = bit k), its weight, and how it was found."""

    bitstring: int
    value: float
    method: str


def brute_force_maxcut(graph: Graph) -> CutSolution:
    """Exact optimum by enumerating all ``2^n`` assignments (n <= ~22)."""
    if graph.num_nodes > 24:
        raise ValueError(
            f"brute force over {graph.num_nodes} nodes is intractable; "
            "use local_search_maxcut"
        )
    values = cut_values(graph)
    best = int(np.argmax(values))
    return CutSolution(best, float(values[best]), "brute_force")


def greedy_maxcut(graph: Graph, *, seed=None) -> CutSolution:
    """Place nodes one by one on the side that cuts more incident weight."""
    rng = as_rng(seed)
    order = rng.permutation(graph.num_nodes)
    side = np.zeros(graph.num_nodes, dtype=np.int64)
    placed = np.zeros(graph.num_nodes, dtype=bool)
    adj = graph.adjacency_matrix()
    for node in order:
        placed_mask = placed.copy()
        w_side0 = float(adj[node, placed_mask] @ (side[placed_mask] == 1))
        w_side1 = float(adj[node, placed_mask] @ (side[placed_mask] == 0))
        side[node] = 0 if w_side0 >= w_side1 else 1
        placed[node] = True
    bitstring = int((side * (1 << np.arange(graph.num_nodes))).sum())
    return CutSolution(bitstring, cut_value(graph, side), "greedy")


def local_search_maxcut(graph: Graph, *, seed=None) -> CutSolution:
    """1-flip local search from a greedy start (classical baseline for
    graphs too large to brute force), at most 100 flips."""
    start = greedy_maxcut(graph, seed=seed)
    n = graph.num_nodes
    side = ((start.bitstring >> np.arange(n)) & 1).astype(np.int64)
    adj = graph.adjacency_matrix()
    for _ in range(100):
        # gain of flipping node i: (weight to same side) - (weight to other side)
        same = (side[None, :] == side[:, None]).astype(float)
        gains = (adj * same).sum(axis=1) - (adj * (1 - same)).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            break
        side[best] ^= 1
    bitstring = int((side * (1 << np.arange(n))).sum())
    return CutSolution(bitstring, cut_value(graph, side), "local_search")


def expected_best_value(
    probabilities: np.ndarray,
    values: np.ndarray,
    shots: int,
) -> float:
    """Exact ``E[max objective among N measurement samples]`` for an
    arbitrary ``(2^n,)`` objective diagonal ``values``.

    Computed in closed form from the output distribution instead of by
    Monte Carlo: with ``F(c) = P(value <= c)`` for one sample, the maximum
    of ``N`` iid samples has CDF ``F(c)^N``, so
    ``E[max] = sum_c c * (F(c)^N - F(c-)^N)``. Deterministic, vectorized,
    and free of sampling noise. Workload-agnostic: any problem in the
    :mod:`repro.workloads` registry supplies its table here.
    """
    from repro.utils.validation import check_positive

    check_positive(shots, "shots")
    values = np.asarray(values)
    if probabilities.shape != values.shape:
        raise ValueError(
            f"distribution over {probabilities.shape[0]} outcomes does not "
            f"match {values.shape[0]} bitstrings"
        )
    order = np.argsort(values)
    sorted_values = values[order]
    sorted_probs = probabilities[order]
    unique_values, first_index = np.unique(sorted_values, return_index=True)
    cdf = np.add.reduceat(sorted_probs, first_index).cumsum()
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)  # renormalize away float drift
    cdf_pow = cdf**shots
    prev = np.concatenate([[0.0], cdf_pow[:-1]])
    return float((unique_values * (cdf_pow - prev)).sum())


def approximation_ratio(
    quantum_energy: float,
    graph: Graph,
    *,
    classical_value: float | None = None,
) -> float:
    """Eq. (3): ``r = <C_max> / C_classical``.

    ``classical_value`` defaults to the exact brute-force optimum; pass a
    heuristic value for large graphs. Zero-weight graphs define ``r = 1``.
    """
    if classical_value is None:
        classical_value = brute_force_maxcut(graph).value
    if classical_value == 0.0:
        return 1.0
    return quantum_energy / classical_value
