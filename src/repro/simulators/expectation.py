"""Observable expectation values on state vectors.

The quantities the evaluator needs every optimizer step:

* :func:`cut_values` — the max-cut objective of Eq. (1) evaluated for all
  ``2^n`` bitstrings at once (vectorized bit tricks, cached per graph);
* :func:`maxcut_expectation` — ``<psi| C |psi> = p . cut_values`` where
  ``p = |psi|^2``.

Bit convention matches :mod:`repro.simulators.statevector`: qubit ``k`` is
bit ``k`` of the basis index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graphs.generators import Graph

__all__ = [
    "TABLE_MEMO_MAX_NODES",
    "bit_table",
    "cut_values",
    "maxcut_expectation",
]


@lru_cache(maxsize=32)
def bit_table(num_qubits: int) -> np.ndarray:
    """``(2^n, n)`` array: entry ``[i, k]`` is bit ``k`` of index ``i``.

    Cached — every expectation on ``n`` qubits reuses the same table.
    """
    indices = np.arange(2**num_qubits, dtype=np.int64)
    return ((indices[:, None] >> np.arange(num_qubits)) & 1).astype(np.int8)


#: largest node count whose ``2^n``-sized tables are worth pinning in a
#: process-wide memo (2^16 floats = 512 KiB per array; beyond that,
#: recompute on demand). The one bound for every such memo: the cut table
#: here, the workload objective tables, the compiled engine's layer tables.
TABLE_MEMO_MAX_NODES = 16


def _compute_cut_values(graph: Graph) -> np.ndarray:
    bits = bit_table(graph.num_nodes)
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return np.zeros(2**graph.num_nodes)
    crossing = bits[:, edges[:, 0]] ^ bits[:, edges[:, 1]]  # (2^n, m)
    return crossing @ graph.weight_array()


@lru_cache(maxsize=256)
def _cut_values_table(graph: Graph) -> np.ndarray:
    """The memoized cut table of one graph (read-only; see cut_values)."""
    values = _compute_cut_values(graph)
    values.setflags(write=False)
    return values


def cut_values(graph: Graph) -> np.ndarray:
    """Cut weight of every bitstring: ``C(z)`` from Eq. (1) for all z.

    ``C(z) = sum_{(u,v) in E} w_uv * (1 - z_u z_v) / 2`` with
    ``z_i = 1 - 2 b_i``; the ``(1 - z_u z_v)/2`` factor is exactly
    ``b_u XOR b_v``, so the whole table is one XOR + one matvec.

    Memoized per graph up to 16 nodes: :class:`~repro.graphs.generators.
    Graph` hashes by edge/weight content, so the ``(2^n, m)`` XOR + matvec
    runs once per distinct graph instead of on every one of the ~200 x
    graphs x candidates energy calls of a search. The memoized array is
    shared and marked read-only — copy before mutating. Larger graphs
    (brute-force callers go to 24 nodes, 134 MB per table) are computed
    on demand so the cache cannot pin gigabytes.
    """
    if graph.num_nodes > TABLE_MEMO_MAX_NODES:
        return _compute_cut_values(graph)
    return _cut_values_table(graph)


def maxcut_expectation(state: np.ndarray, graph: Graph) -> float:
    """``<C>`` of Eq. (1) for the given state."""
    probs = np.abs(state) ** 2
    return float(probs @ cut_values(graph))

