"""Observable expectation evaluation."""

import numpy as np
import pytest

from repro.graphs.generators import Graph, complete_graph, cycle_graph, path_graph
from repro.simulators.expectation import (
    bit_table,
    cut_values,
    maxcut_expectation,
)
from repro.simulators.statevector import basis_state, plus_state


class TestBitTable:
    def test_shape_and_values(self):
        table = bit_table(3)
        assert table.shape == (8, 3)
        assert list(table[5]) == [1, 0, 1]  # 5 = 0b101, bit k at column k

    def test_cached_identity(self):
        assert bit_table(4) is bit_table(4)


class TestCutValues:
    def test_single_edge(self):
        g = Graph(2, ((0, 1),))
        np.testing.assert_array_equal(cut_values(g), [0, 1, 1, 0])

    def test_weighted_edge(self):
        g = Graph(2, ((0, 1),), (2.5,))
        np.testing.assert_array_equal(cut_values(g), [0, 2.5, 2.5, 0])

    def test_empty_graph(self):
        np.testing.assert_array_equal(cut_values(Graph(2, ())), np.zeros(4))

    def test_triangle_max_is_two(self):
        values = cut_values(complete_graph(3))
        assert values.max() == 2.0
        assert values[0] == 0.0  # all same side

    def test_bipartite_full_cut(self):
        # path 0-1-2: assignment 0b010 cuts both edges
        values = cut_values(path_graph(3))
        assert values[0b010] == 2.0

    def test_matches_bruteforce_loop(self):
        g = cycle_graph(5)
        values = cut_values(g)
        for z in range(2**5):
            manual = sum(
                1.0 for (u, v) in g.edges if ((z >> u) & 1) != ((z >> v) & 1)
            )
            assert values[z] == manual


class TestMaxcutExpectation:
    def test_plus_state_half_edges(self):
        g = cycle_graph(6)
        assert maxcut_expectation(plus_state(6), g) == pytest.approx(3.0)

    def test_basis_state_exact_cut(self):
        g = path_graph(3)
        assert maxcut_expectation(basis_state(3, 0b010), g) == pytest.approx(2.0)

    def test_weighted(self):
        g = Graph(2, ((0, 1),), (3.0,))
        assert maxcut_expectation(basis_state(2, 1), g) == pytest.approx(3.0)

