"""Greedy least-loaded placement."""

import numpy as np
import pytest

from repro.parallel.cluster import least_loaded_partition


class TestLeastLoadedPartition:
    def test_covers_every_item_exactly_once(self):
        bins = least_loaded_partition([3.0, 1.0, 2.0, 5.0, 4.0], 3)
        assert len(bins) == 3
        assert sorted(i for b in bins for i in b) == list(range(5))

    def test_balances_heavy_item(self):
        """One heavy item + eight light: greedy isolates the heavy one
        where index round-robin would stack lights on top of it."""
        bins = least_loaded_partition([8.0] + [1.0] * 8, 2)
        loads = [sum(([8.0] + [1.0] * 8)[i] for i in b) for b in bins]
        assert sorted(loads) == [8.0, 8.0]

    def test_deterministic(self):
        costs = [2.0, 2.0, 1.0, 1.0, 3.0]
        assert least_loaded_partition(costs, 2) == least_loaded_partition(costs, 2)

    def test_more_bins_than_items_leaves_empties(self):
        bins = least_loaded_partition([1.0, 2.0], 4)
        assert sorted(i for b in bins for i in b) == [0, 1]
        assert sum(1 for b in bins if not b) == 2

    def test_validates_bins(self):
        with pytest.raises(ValueError):
            least_loaded_partition([1.0], 0)

    def test_empty_costs_leave_every_bin_empty(self):
        assert least_loaded_partition([], 3) == [[], [], []]

    def test_one_bin_takes_everything_heaviest_first(self):
        assert least_loaded_partition([1.0, 3.0, 2.0], 1) == [[1, 2, 0]]

    def test_ties_resolve_by_index(self):
        assert least_loaded_partition([1.0, 1.0, 1.0, 1.0], 2) == [[0, 2], [1, 3]]

    def test_accepts_numpy_costs(self):
        costs = np.array([4.0, 1.0, 3.0, 2.0])
        assert least_loaded_partition(costs, 2) == least_loaded_partition(list(costs), 2)

    def test_greedy_not_round_robin(self):
        """Costs [4,3,3,2,1,1] split 7/7 under greedy where round-robin by
        index would give 8/6."""
        costs = [4.0, 3.0, 3.0, 2.0, 1.0, 1.0]
        loads = sorted(sum(costs[i] for i in b) for b in least_loaded_partition(costs, 2))
        assert loads == [7.0, 7.0]
