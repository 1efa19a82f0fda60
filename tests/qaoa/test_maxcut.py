"""Max-cut objective and classical solvers."""

import numpy as np
import pytest

from repro.graphs.generators import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.qaoa.maxcut import (
    approximation_ratio,
    brute_force_maxcut,
    cut_value,
    greedy_maxcut,
    local_search_maxcut,
)


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


class TestHeuristics:
    def test_greedy_within_half_of_optimum(self):
        """Greedy max-cut is a 1/2-approximation."""
        for seed in range(5):
            g = erdos_renyi_graph(10, 0.5, seed=seed)
            opt = brute_force_maxcut(g).value
            greedy = greedy_maxcut(g, seed=seed).value
            assert greedy >= opt / 2

    def test_local_search_at_least_greedy(self):
        for seed in range(5):
            g = erdos_renyi_graph(10, 0.5, seed=100 + seed)
            assert (
                local_search_maxcut(g, seed=seed).value
                >= greedy_maxcut(g, seed=seed).value
            )

    def test_local_search_is_1flip_optimal(self):
        g = erdos_renyi_graph(9, 0.5, seed=7)
        sol = local_search_maxcut(g, seed=0)
        bits = np.array([(sol.bitstring >> k) & 1 for k in range(9)])
        for i in range(9):
            flipped = bits.copy()
            flipped[i] ^= 1
            assert cut_value(g, flipped) <= sol.value + 1e-12

    def test_methods_labelled(self):
        g = cycle_graph(4)
        assert brute_force_maxcut(g).method == "brute_force"
        assert greedy_maxcut(g).method == "greedy"
        assert local_search_maxcut(g).method == "local_search"


class TestRatios:
    def test_ratio_of_optimum_is_one(self):
        g = cycle_graph(6)
        assert approximation_ratio(6.0, g) == pytest.approx(1.0)

    def test_ratio_uses_given_classical_value(self):
        g = cycle_graph(6)
        assert approximation_ratio(3.0, g, classical_value=6.0) == pytest.approx(0.5)

    def test_empty_graph_ratio_defined(self):
        assert approximation_ratio(0.0, Graph(3, ())) == 1.0
