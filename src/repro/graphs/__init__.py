"""Graph substrate: generators, paper datasets, and serialization.

The paper's evaluation uses two datasets of simple undirected graphs:

* 20 ten-node Erdős–Rényi graphs with varying connectivity (profiling, §3.1
  and Fig. 8), and
* 20 ten-node random 4-regular graphs (discovered-circuit evaluation,
  Figs. 7 and 9).

:mod:`repro.graphs.generators` implements both models from scratch (with
networkx used only in tests as a cross-check), and
:mod:`repro.graphs.datasets` pins the exact seeded instances used by the
experiment harness.
"""

from repro.graphs.datasets import (
    DATASET_FAMILIES,
    paper_er_dataset,
    paper_maxsat_dataset,
    paper_regular_dataset,
    paper_spin_glass_dataset,
    paper_weighted_dataset,
    profiling_graph,
)
from repro.graphs.generators import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.io import graph_from_dict, graph_to_dict

__all__ = [
    "Graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "DATASET_FAMILIES",
    "paper_er_dataset",
    "paper_regular_dataset",
    "paper_weighted_dataset",
    "paper_maxsat_dataset",
    "paper_spin_glass_dataset",
    "profiling_graph",
    "graph_from_dict",
    "graph_to_dict",
]
