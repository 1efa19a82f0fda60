"""The pinned graph datasets used by the paper's experiments.

§3.1: "All search profiling was performed on a dataset of 20, 10-node
Erdos-Renyi graphs with varying degrees of connectivity."
§3.2: "... evaluated the possible discovered combinations of the mixer layer
on a separate dataset of 20, 10 node random 4-regular graphs."

The authors do not publish their instances, so we fix seeded equivalents:
deterministic functions of a dataset seed, stable across processes and
sessions. "Varying degrees of connectivity" is realized by sweeping the ER
edge probability over a ladder spanning sparse-but-connected to dense.
"""

from __future__ import annotations

from repro.graphs.generators import Graph, erdos_renyi_graph, random_regular_graph
from repro.utils.rng import as_rng, stable_seed
from repro.utils.validation import check_positive

__all__ = [
    "DATASET_FAMILIES",
    "paper_er_dataset",
    "paper_regular_dataset",
    "paper_weighted_dataset",
    "paper_maxsat_dataset",
    "paper_spin_glass_dataset",
    "profiling_graph",
]

#: Edge-probability ladder for "varying degrees of connectivity". 20 graphs
#: cycle through these 5 densities four times (with different seeds).
ER_PROBABILITIES = (0.3, 0.4, 0.5, 0.6, 0.7)


def _connected_er(num_graphs: int, num_nodes: int, dataset_seed: int, tag: str) -> list[Graph]:
    """Connected ER graphs over the density ladder: graph ``i`` has edge
    probability ``ER_PROBABILITIES[i % 5]`` and a seed derived stably from
    ``(dataset_seed, tag, i)``."""
    check_positive(num_graphs, "num_graphs")
    check_positive(num_nodes, "num_nodes")
    return [
        erdos_renyi_graph(
            num_nodes,
            ER_PROBABILITIES[i % len(ER_PROBABILITIES)],
            seed=stable_seed(dataset_seed, tag, i),
            require_connected=True,
        )
        for i in range(num_graphs)
    ]


def _reweighted(graphs: list[Graph], low: float, high: float, *key) -> list[Graph]:
    """The same topologies with i.i.d. uniform weights in ``[low, high]``
    (canonical edge order), graph ``i``'s drawn from ``(*key, i)``."""
    draws = (as_rng(stable_seed(*key, i)) for i in range(len(graphs)))
    return [
        Graph(g.num_nodes, g.edges, tuple(rng.uniform(low, high, g.num_edges).tolist()))
        for g, rng in zip(graphs, draws)
    ]


def paper_er_dataset(
    num_graphs: int = 20,
    num_nodes: int = 10,
    *,
    dataset_seed: int = 2023,
) -> list[Graph]:
    """The 20 ten-node Erdős–Rényi profiling/comparison graphs (§3.1, Fig. 8).

    Graph ``i`` uses edge probability ``ER_PROBABILITIES[i % 5]`` and a seed
    derived stably from ``(dataset_seed, "er", i)``. All instances are
    required to be connected so max-cut energies are comparable.
    """
    return _connected_er(num_graphs, num_nodes, dataset_seed, "er")


#: the degree of §3.2's regular graphs
REGULAR_DEGREE = 4


def paper_regular_dataset(
    num_graphs: int = 20,
    num_nodes: int = 10,
    *,
    dataset_seed: int = 2023,
) -> list[Graph]:
    """The 20 ten-node random 4-regular evaluation graphs (§3.2, Figs. 7, 9)."""
    check_positive(num_graphs, "num_graphs")
    check_positive(num_nodes, "num_nodes")
    return [
        random_regular_graph(
            num_nodes,
            REGULAR_DEGREE,
            seed=stable_seed(dataset_seed, "regular", REGULAR_DEGREE, i),
        )
        for i in range(num_graphs)
    ]


def paper_weighted_dataset(
    num_graphs: int = 20,
    num_nodes: int = 10,
    *,
    dataset_seed: int = 2023,
) -> list[Graph]:
    """Weighted-MaxCut instances: the ER topologies of
    :func:`paper_er_dataset` with i.i.d. uniform edge weights in
    ``[0.25, 1.75]`` (mean 1, so energies stay comparable with the
    unweighted dataset). Weight draws are keyed by
    ``(dataset_seed, "wmaxcut", i)`` — stable across processes.
    """
    er = paper_er_dataset(num_graphs, num_nodes, dataset_seed=dataset_seed)
    return _reweighted(er, 0.25, 1.75, dataset_seed, "wmaxcut")


def paper_maxsat_dataset(
    num_graphs: int = 20,
    num_nodes: int = 10,
    *,
    dataset_seed: int = 2023,
) -> list[Graph]:
    """Max-2-SAT instances: connected ER interaction graphs whose edges are
    read as 2-literal clauses (polarities derived stably per edge by the
    workload), with clause weights uniform in ``[0.5, 1.5]``.
    """
    er = _connected_er(num_graphs, num_nodes, dataset_seed, "maxsat")
    return _reweighted(er, 0.5, 1.5, dataset_seed, "maxsat", "weights")


def paper_spin_glass_dataset(
    num_graphs: int = 20,
    num_nodes: int = 10,
    *,
    dataset_seed: int = 2023,
) -> list[Graph]:
    """Spin-glass Ising instances: connected ER topologies with signed
    couplings ``J_e`` uniform in ``[-1, 1]`` (ferro- and antiferromagnetic
    bonds mixed, the portfolio-Ising regime).
    """
    er = _connected_er(num_graphs, num_nodes, dataset_seed, "ising")
    return _reweighted(er, -1.0, 1.0, dataset_seed, "ising", "couplings")


#: Dataset family -> (implied workload registry key, instance factory).
#: The single source of truth for every spec-string surface (``repro.api``
#: workload specs, the CLI's ``--dataset`` choices, the service's submit
#: validation). Factories share the ``(num_graphs, num_nodes=..., *,
#: dataset_seed=...)`` calling convention.
DATASET_FAMILIES = {
    "er": ("maxcut", paper_er_dataset),
    "regular": ("maxcut", paper_regular_dataset),
    "wmaxcut": ("wmaxcut", paper_weighted_dataset),
    "maxsat": ("maxsat", paper_maxsat_dataset),
    "ising": ("ising", paper_spin_glass_dataset),
}


#: the dataset seed of :func:`profiling_graph`'s ER instance
PROFILING_SEED = 2023


def profiling_graph() -> Graph:
    """The single ER graph used for the Fig. 5 core-count sweep.

    The paper profiles "a graph" at p=2; we pin the first instance of the ER
    dataset so the Fig. 4 and Fig. 5 benches share a workload.
    """
    return paper_er_dataset(1, dataset_seed=PROFILING_SEED)[0]
