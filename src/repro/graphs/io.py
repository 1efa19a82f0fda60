"""Graph (de)serialization.

Experiment records persist their workloads so a figure can be regenerated
from the saved run without re-deriving seeds. The format is a JSON-safe
dict — small graphs, human-inspectable, no pickle across versions.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.generators import Graph

__all__ = ["graph_to_dict", "graph_from_dict"]


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """JSON-safe dict representation of a graph."""
    out: dict[str, Any] = {
        "num_nodes": graph.num_nodes,
        "edges": [list(e) for e in graph.edges],
    }
    if any(w != 1.0 for w in graph.weights):
        out["weights"] = list(graph.weights)
    return out


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """Inverse of :func:`graph_to_dict`."""
    edges = tuple((int(u), int(v)) for u, v in data["edges"])
    weights = tuple(float(w) for w in data.get("weights", ()))
    return Graph(int(data["num_nodes"]), edges, weights)

