"""Graph type and random generators."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.generators import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)


class TestGraphType:
    def test_canonical_edge_ordering(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            Graph(2, ((0, 1),), (1.0, 2.0))

    def test_weights_follow_edge_reordering(self):
        g = Graph(3, ((2, 1), (1, 0)), (5.0, 7.0))
        assert g.edges == ((0, 1), (1, 2))
        assert g.weights == (7.0, 5.0)

    def test_default_weights_are_one(self):
        assert Graph(2, ((0, 1),)).weights == (1.0,)

    def test_degree(self):
        g = complete_graph(5)
        for node in range(5):
            assert g.degree(node) == 4

    def test_neighbors(self):
        assert star_graph(4).neighbors(0) == [1, 2, 3]
        assert star_graph(4).neighbors(2) == [0]

    def test_neighbors_are_symmetric(self):
        g = erdos_renyi_graph(8, 0.4, seed=3)
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_degree_counts_adjacency_row(self):
        g = erdos_renyi_graph(8, 0.4, seed=3)
        adj = g.adjacency_matrix()
        for node in range(g.num_nodes):
            assert g.degree(node) == np.count_nonzero(adj[node])

    def test_adjacency_matrix_symmetric(self):
        g = cycle_graph(5)
        adj = g.adjacency_matrix()
        np.testing.assert_array_equal(adj, adj.T)
        assert adj.sum() == 2 * g.num_edges

    def test_connectivity(self):
        assert cycle_graph(4).is_connected()
        assert not Graph(4, ((0, 1), (2, 3))).is_connected()
        assert Graph(1, ()).is_connected()

    def test_hashable_as_cache_key(self):
        a = Graph(2, ((0, 1),))
        b = Graph(2, ((0, 1),))
        assert len({a, b}) == 1

    def test_empty_edge_array_shape(self):
        assert Graph(3, ()).edge_array().shape == (0, 2)


class TestDeterministicFamilies:
    def test_complete_graph_edge_count(self):
        assert complete_graph(6).num_edges == 15

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path_edges(self):
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))

    def test_star_degrees(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert all(g.degree(i) == 1 for i in range(1, 5))


class TestErdosRenyi:
    def test_reproducible_with_seed(self):
        a = erdos_renyi_graph(10, 0.4, seed=3)
        b = erdos_renyi_graph(10, 0.4, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = erdos_renyi_graph(10, 0.4, seed=3)
        b = erdos_renyi_graph(10, 0.4, seed=4)
        assert a != b

    def test_p_zero_and_one(self):
        assert erdos_renyi_graph(8, 0.0, seed=0).num_edges == 0
        assert erdos_renyi_graph(8, 1.0, seed=0).num_edges == 28

    def test_require_connected(self):
        g = erdos_renyi_graph(10, 0.3, seed=5, require_connected=True)
        assert g.is_connected()

    def test_impossible_connectivity_raises(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_TRIES", 3)
        with pytest.raises(RuntimeError):
            erdos_renyi_graph(5, 0.0, seed=0, require_connected=True)

    def test_edge_probability_statistics(self):
        """Mean edge count over many draws ~ p * C(n,2) (cross-checked
        against networkx's generator)."""
        n, p, trials = 12, 0.35, 200
        possible = n * (n - 1) // 2
        ours = np.mean([
            erdos_renyi_graph(n, p, seed=i).num_edges for i in range(trials)
        ])
        theirs = np.mean([
            nx.gnp_random_graph(n, p, seed=i).number_of_edges() for i in range(trials)
        ])
        assert ours == pytest.approx(p * possible, rel=0.1)
        assert ours == pytest.approx(theirs, rel=0.1)


class TestRandomRegular:
    def test_degrees_exact(self):
        g = random_regular_graph(10, 4, seed=1)
        assert all(g.degree(v) == 4 for v in range(10))

    def test_reproducible(self):
        assert random_regular_graph(10, 4, seed=2) == random_regular_graph(10, 4, seed=2)

    def test_parity_constraint(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_graph(5, 3)

    def test_degree_bound(self):
        with pytest.raises(ValueError, match="must be <"):
            random_regular_graph(4, 4)

    def test_zero_degree(self):
        assert random_regular_graph(4, 0).num_edges == 0

    def test_simple_no_multi_edges(self):
        for seed in range(20):
            g = random_regular_graph(10, 4, seed=seed)
            assert len(set(g.edges)) == g.num_edges == 20

    def test_edge_count_formula(self):
        g = random_regular_graph(12, 3, seed=0)
        assert g.num_edges == 12 * 3 // 2
