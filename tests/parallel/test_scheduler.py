"""Makespan scheduling simulation (the Fig. 5 substrate)."""

import numpy as np
import pytest

from repro.parallel.scheduler import (
    OverheadModel,
    simulate_core_sweep,
    simulate_makespan,
)


class TestSimulateMakespan:
    def test_single_worker_sums_durations(self):
        result = simulate_makespan([1.0, 2.0, 3.0], 1)
        assert result.makespan == pytest.approx(6.0)

    def test_perfect_split(self):
        result = simulate_makespan([1.0, 1.0, 1.0, 1.0], 2)
        assert result.makespan == pytest.approx(2.0)

    def test_bounded_below_by_longest_task(self):
        result = simulate_makespan([10.0, 0.1, 0.1], 8)
        assert result.makespan == pytest.approx(10.0)

    def test_bounded_below_by_mean_load(self):
        durations = list(np.random.default_rng(0).uniform(0.5, 2.0, size=37))
        for w in (2, 4, 8):
            result = simulate_makespan(durations, w)
            assert result.makespan >= sum(durations) / w - 1e-9

    def test_monotone_in_workers(self):
        durations = list(np.random.default_rng(1).uniform(0.1, 1.0, size=50))
        times = [simulate_makespan(durations, w).makespan for w in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_plateau_beyond_task_count(self):
        durations = [1.0] * 4
        at4 = simulate_makespan(durations, 4).makespan
        at64 = simulate_makespan(durations, 64).makespan
        assert at4 == pytest.approx(at64)

    def test_assignments_cover_all_tasks(self):
        result = simulate_makespan([0.5] * 9, 3)
        assert len(result.assignments) == 9
        assert set(result.assignments) == {0, 1, 2}

    def test_lpt_no_worse_than_fifo_on_adversarial_bag(self):
        durations = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]  # long task last hurts FIFO
        fifo = simulate_makespan(durations[::-1], 2, policy="fifo").makespan
        lpt = simulate_makespan(durations[::-1], 2, policy="lpt").makespan
        assert lpt <= fifo

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 1, policy="sjf")

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 0)

    def test_empty_bag(self):
        assert simulate_makespan([], 4).makespan == 0.0


class TestOverheads:
    def test_dispatch_overhead_scales_with_tasks(self):
        base = simulate_makespan([1.0] * 10, 1).makespan
        overhead = OverheadModel(dispatch_per_task=0.1)
        with_cost = simulate_makespan([1.0] * 10, 1, overhead=overhead).makespan
        assert with_cost == pytest.approx(base + 1.0)

    def test_worker_startup_paid_once(self):
        overhead = OverheadModel(worker_startup=0.5)
        result = simulate_makespan([1.0, 1.0], 2, overhead=overhead)
        assert result.makespan == pytest.approx(1.5)

    def test_serial_fraction_adds_tail(self):
        overhead = OverheadModel(serial_fraction=0.1)
        result = simulate_makespan([1.0] * 4, 4, overhead=overhead)
        assert result.makespan == pytest.approx(1.0 + 0.4)

    def test_overheads_create_realistic_plateau(self):
        """With dispatch costs, speedup saturates below ideal (the Fig. 5
        shape)."""
        durations = [0.05] * 64
        overhead = OverheadModel(dispatch_per_task=0.01, worker_startup=0.1)
        results = simulate_core_sweep(durations, [8, 16, 32, 64], overhead=overhead)
        speedups = {r.num_workers: sum(durations) / r.makespan for r in results}
        assert speedups[64] < 64 * 0.5  # far from ideal
        assert speedups[64] >= speedups[8] * 0.5  # but not collapsing


class TestSweep:
    def test_sweep_covers_all_counts(self):
        results = simulate_core_sweep([1.0] * 10, [8, 16, 24])
        assert [r.num_workers for r in results] == [8, 16, 24]

    def test_utilization_bounds(self):
        result = simulate_makespan(list(np.random.default_rng(2).uniform(0.1, 1, 20)), 4)
        assert 0.0 < result.utilization <= 1.0
