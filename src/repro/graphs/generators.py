"""Simple undirected graphs and random graph generators.

A tiny immutable-ish graph type is enough for QAOA max-cut: nodes are the
integers ``0..n-1`` and edges carry optional weights. We implement the two
random models the paper samples from — G(n, p) Erdős–Rényi and uniform
random d-regular graphs (pairing model with rejection) — so the package has
no runtime dependency on networkx; tests cross-validate the generators
against networkx on distributional properties.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_integer, check_positive, check_probability

__all__ = [
    "Graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
]

Edge = tuple[int, int]

#: draws a rejection sampler makes before it gives up
MAX_TRIES = 1000


@dataclass(frozen=True)
class Graph:
    """An undirected graph on nodes ``0..num_nodes-1`` with weighted edges.

    Edges are stored canonically as ``(u, v)`` with ``u < v``; self-loops are
    rejected because they are meaningless for max-cut (a self-loop can never
    be cut). The class is hashable and order-insensitive so graphs can be
    used as cache keys by the evaluator.
    """

    num_nodes: int
    edges: tuple[Edge, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        check_positive(self.num_nodes, "num_nodes", strict=False)
        canonical: list[Edge] = []
        seen: set[Edge] = set()
        weights = self.weights if self.weights else tuple(1.0 for _ in self.edges)
        if len(weights) != len(self.edges):
            raise ValueError(
                f"got {len(weights)} weights for {len(self.edges)} edges"
            )
        canon_weights: list[float] = []
        for (u, v), w in zip(self.edges, weights):
            u = check_integer(u, "edge endpoint")
            v = check_integer(v, "edge endpoint")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {self.num_nodes} nodes"
                )
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
            canon_weights.append(float(w))
        order = sorted(range(len(canonical)), key=lambda i: canonical[i])
        object.__setattr__(self, "edges", tuple(canonical[i] for i in order))
        object.__setattr__(self, "weights", tuple(canon_weights[i] for i in order))

    # -- basic queries ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        """Number of edges incident to ``node``."""
        check_integer(node, "node")
        return sum(1 for u, v in self.edges if node in (u, v))

    def neighbors(self, node: int) -> list[int]:
        """Sorted neighbours of ``node``."""
        out = [v if u == node else u for u, v in self.edges if node in (u, v)]
        return sorted(out)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric weighted adjacency matrix."""
        adj = np.zeros((self.num_nodes, self.num_nodes))
        for (u, v), w in zip(self.edges, self.weights):
            adj[u, v] = w
            adj[v, u] = w
        return adj

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` int array (empty-safe)."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def is_connected(self) -> bool:
        """Breadth-first connectivity check (isolated graphs allowed for n<=1)."""
        if self.num_nodes <= 1:
            return True
        adj: dict[int, list[int]] = {i: [] for i in range(self.num_nodes)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nb in adj[node]:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        return len(seen) == self.num_nodes

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


# -- random models ---------------------------------------------------------


def erdos_renyi_graph(
    num_nodes: int,
    edge_prob: float,
    *,
    seed=None,
    require_connected: bool = False,
) -> Graph:
    """Sample a G(n, p) Erdős–Rényi graph.

    Each of the ``n(n-1)/2`` possible edges is present independently with
    probability ``edge_prob``. Sampling is vectorized: one uniform draw per
    candidate edge. With ``require_connected`` the draw is rejected and
    repeated until the graph is connected (the paper's 10-node instances
    with "varying degrees of connectivity" are dense enough that rejection
    is cheap).
    """
    n = check_positive(num_nodes, "num_nodes")
    p = check_probability(edge_prob, "edge_prob")
    rng = as_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(MAX_TRIES):
        mask = rng.random(iu.shape[0]) < p
        edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
        graph = Graph(n, edges)
        if not require_connected or graph.is_connected():
            return graph
    raise RuntimeError(
        f"failed to sample a connected G({n}, {p}) graph in {MAX_TRIES} tries"
    )


def random_regular_graph(
    num_nodes: int,
    degree: int,
    *,
    seed=None,
) -> Graph:
    """Sample a uniformly random ``degree``-regular simple graph.

    Uses the configuration/pairing model with restart-on-collision: ``d``
    half-edge stubs per node are shuffled and paired; a pairing containing a
    self-loop or multi-edge is discarded and redrawn. For the paper's
    (n=10, d=4) instances the acceptance probability is high, and restarts
    keep the distribution exactly uniform over simple d-regular graphs.
    """
    n = check_positive(num_nodes, "num_nodes")
    d = check_positive(degree, "degree", strict=False)
    if d >= n:
        raise ValueError(f"degree {d} must be < num_nodes {n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return Graph(n, ())
    rng = as_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(MAX_TRIES):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        u = np.minimum(pairs[:, 0], pairs[:, 1])
        v = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(u == v):
            continue  # self-loop
        keys = u.astype(np.int64) * n + v
        if np.unique(keys).shape[0] != keys.shape[0]:
            continue  # multi-edge
        return Graph(n, tuple(zip(u.tolist(), v.tolist())))
    raise RuntimeError(
        f"failed to sample a simple {d}-regular graph on {n} nodes "
        f"in {MAX_TRIES} tries"
    )


# -- deterministic families (tests, examples) -------------------------------


def complete_graph(num_nodes: int) -> Graph:
    """K_n."""
    n = check_positive(num_nodes, "num_nodes")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(num_nodes: int) -> Graph:
    """C_n (n >= 3)."""
    n = check_positive(num_nodes, "num_nodes")
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(num_nodes: int) -> Graph:
    """P_n."""
    n = check_positive(num_nodes, "num_nodes")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(num_nodes: int) -> Graph:
    """Star with node 0 at the centre."""
    n = check_positive(num_nodes, "num_nodes")
    return Graph(n, tuple((0, i) for i in range(1, n)))
