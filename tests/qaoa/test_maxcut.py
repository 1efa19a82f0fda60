"""Max-cut objective, exact optimum and approximation ratio."""

import pytest

from repro.graphs.generators import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.qaoa.maxcut import approximation_ratio, brute_force_maxcut, cut_value


class TestCutValue:
    def test_binary_assignment(self):
        assert cut_value(path_graph(3), [0, 1, 0]) == 2.0

    def test_spin_assignment(self):
        assert cut_value(path_graph(3), [-1, 1, -1]) == 2.0

    def test_all_same_side_zero(self):
        assert cut_value(complete_graph(4), [0, 0, 0, 0]) == 0.0

    def test_weighted(self):
        g = Graph(2, ((0, 1),), (2.5,))
        assert cut_value(g, [0, 1]) == 2.5

    def test_length_validation(self):
        with pytest.raises(ValueError):
            cut_value(path_graph(3), [0, 1])


class TestBruteForce:
    def test_even_cycle_full_cut(self):
        sol = brute_force_maxcut(cycle_graph(6))
        assert sol.value == 6.0

    def test_odd_cycle_one_short(self):
        sol = brute_force_maxcut(cycle_graph(5))
        assert sol.value == 4.0

    def test_complete_graph_balanced_split(self):
        # K4 max cut = 2*2 = 4
        assert brute_force_maxcut(complete_graph(4)).value == 4.0

    def test_star_cuts_everything(self):
        assert brute_force_maxcut(star_graph(6)).value == 5.0

    def test_bitstring_achieves_value(self):
        g = erdos_renyi_graph(8, 0.5, seed=3)
        sol = brute_force_maxcut(g)
        bits = [(sol.bitstring >> k) & 1 for k in range(8)]
        assert cut_value(g, bits) == sol.value

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="intractable"):
            brute_force_maxcut(Graph(25, ()))


class TestRatios:
    def test_ratio_of_optimum_is_one(self):
        g = cycle_graph(6)
        assert approximation_ratio(6.0, g) == pytest.approx(1.0)

    def test_ratio_uses_given_classical_value(self):
        g = cycle_graph(6)
        assert approximation_ratio(3.0, g, classical_value=6.0) == pytest.approx(0.5)

    def test_empty_graph_ratio_defined(self):
        assert approximation_ratio(0.0, Graph(3, ())) == 1.0
