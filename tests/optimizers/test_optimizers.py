"""Classical optimizers on reference problems and the QAOA objective."""

import numpy as np
import pytest

from repro.graphs.generators import cycle_graph
from repro.optimizers import (
    SPSA,
    Adam,
    Cobyla,
    NelderMead,
    ObjectiveTracer,
    training_optimizer,
)
from repro.qaoa.analytic import grid_search_p1
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy


def quadratic(x):
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


def quadratic_grad(x):
    return 2.0 * (x - np.array([1.0, -2.0]))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestTracer:
    def test_counts_and_best(self):
        tracer = ObjectiveTracer(quadratic)
        tracer(np.array([0.0, 0.0]))
        tracer(np.array([1.0, -2.0]))
        tracer(np.array([5.0, 5.0]))
        assert tracer.nfev == 3
        assert tracer.best == 0.0
        np.testing.assert_array_equal(tracer.best_x, [1.0, -2.0])

    def test_trace_monotone(self):
        tracer = ObjectiveTracer(quadratic)
        rng = np.random.default_rng(0)
        for _ in range(20):
            tracer(rng.normal(size=2))
        assert all(a >= b for a, b in zip(tracer.trace, tracer.trace[1:]))


class TestCobyla:
    def test_quadratic(self):
        result = Cobyla(maxiter=200).minimize(quadratic, [0.0, 0.0])
        assert result.fun < 1e-4
        np.testing.assert_allclose(result.x, [1.0, -2.0], atol=0.05)

    def test_respects_budget(self):
        result = Cobyla(maxiter=30).minimize(quadratic, [0.0, 0.0])
        assert result.nfev <= 35  # small COBYLA bookkeeping slack

    def test_reports_best_seen_not_last(self):
        result = Cobyla(maxiter=100).minimize(rosenbrock, [-1.0, 1.0])
        assert result.fun == min(result.history)


class TestNelderMead:
    def test_quadratic(self):
        result = NelderMead(maxiter=300).minimize(quadratic, [3.0, 3.0])
        assert result.fun < 1e-6

    def test_rosenbrock(self):
        result = NelderMead(maxiter=500).minimize(rosenbrock, [-1.0, 1.0])
        assert result.fun < 1e-3

    def test_convergence_flag(self):
        result = NelderMead(maxiter=1000, fatol=1e-10, xatol=1e-10).minimize(
            quadratic, [0.5, 0.5]
        )
        assert result.converged

    def test_history_monotone(self):
        result = NelderMead(maxiter=100).minimize(quadratic, [4.0, 4.0])
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))


class TestSPSA:
    def test_quadratic_progress(self):
        result = SPSA(maxiter=200, seed=1).minimize(quadratic, [3.0, 3.0])
        assert result.fun < quadratic(np.array([3.0, 3.0])) * 0.05

    def test_reproducible_with_seed(self):
        a = SPSA(maxiter=50, seed=5).minimize(quadratic, [2.0, 2.0])
        b = SPSA(maxiter=50, seed=5).minimize(quadratic, [2.0, 2.0])
        np.testing.assert_array_equal(a.x, b.x)

    def test_noisy_objective(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return quadratic(x) + rng.normal(0, 0.05)

        result = SPSA(maxiter=300, seed=2).minimize(noisy, [3.0, 3.0])
        assert quadratic(result.x) < 0.5

    def test_two_evals_per_iteration(self):
        result = SPSA(maxiter=40, seed=0).minimize(quadratic, [1.0, 1.0])
        assert result.nfev == 2 * 40 + 2  # pairs + initial + final


class TestAdam:
    def test_quadratic_with_exact_gradient(self):
        opt = Adam(gradient=quadratic_grad, maxiter=500, learning_rate=0.1)
        result = opt.minimize(quadratic, [4.0, 4.0])
        assert result.fun < 1e-5

    def test_gtol_convergence(self):
        opt = Adam(gradient=quadratic_grad, maxiter=5000, learning_rate=0.2, gtol=1e-7)
        result = opt.minimize(quadratic, [1.5, -1.0])
        assert result.converged


class TestFactory:
    """``training_optimizer``, the one factory: names and budget rules."""

    def test_known_names(self):
        assert training_optimizer("cobyla", max_steps=10).name == "cobyla"
        # SPSA spends two evaluations per iteration on the same budget
        assert training_optimizer("spsa", max_steps=20, seed=0).maxiter == 10

    def test_unknown_name(self):
        message = (
            "unknown optimizer 'gradient_descent_9000'; "
            "options: cobyla, nelder_mead, spsa, adam$"
        )
        with pytest.raises(ValueError, match=message):
            training_optimizer("gradient_descent_9000", max_steps=10)


class TestOnQAOAObjective:
    """All optimizers should find near-optimal p=1 angles on C6."""

    @pytest.fixture(scope="class")
    def problem(self):
        g = cycle_graph(6)
        energy = AnsatzEnergy(build_qaoa_ansatz(g, 1))
        best, _, _ = grid_search_p1(g, resolution=48)
        return energy, best

    def test_cobyla_reaches_grid_optimum(self, problem):
        energy, best = problem
        result = Cobyla(maxiter=150).minimize(energy.negative_objective(), [0.3, 0.2])
        assert -result.fun >= best * 0.98

    def test_nelder_mead_reaches_grid_optimum(self, problem):
        energy, best = problem
        result = NelderMead(maxiter=150).minimize(energy.negative_objective(), [0.3, 0.2])
        assert -result.fun >= best * 0.98

    def test_adam_with_parameter_shift(self, problem):
        energy, best = problem
        opt = Adam(gradient=lambda x: -energy.gradient(x), maxiter=60, learning_rate=0.1)
        result = opt.minimize(energy.negative_objective(), [0.3, 0.2])
        assert -result.fun >= best * 0.95
