"""Evaluator: trains candidates, returns rewards (§2.1 Evaluator module)."""

import numpy as np
import pytest

from repro.core.evaluator import EvaluationConfig, Evaluator, evaluate_candidate
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.qaoa.analytic import grid_search_p1


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(6, 0.5, seed=s, require_connected=True) for s in (1, 2)]


@pytest.fixture(scope="module")
def config():
    return EvaluationConfig(max_steps=25, seed=5)


class TestEvaluate:
    def test_result_fields(self, graphs, config):
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        assert result.tokens == ("rx",)
        assert result.p == 1
        assert len(result.per_graph_energy) == 2
        assert len(result.per_graph_ratio) == 2
        assert result.nfev > 0
        assert result.seconds > 0

    def test_mean_aggregation(self, graphs, config):
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        assert result.energy == pytest.approx(np.mean(result.per_graph_energy))
        assert result.ratio == pytest.approx(np.mean(result.per_graph_ratio))

    def test_ratio_bounds(self, graphs, config):
        result = Evaluator(graphs, config).evaluate(("rx", "ry"), 1)
        assert all(0.0 <= r <= 1.0 + 1e-9 for r in result.per_graph_ratio)

    def test_training_beats_random_parameters(self, graphs, config):
        """Trained p=1 energy must beat the untrained |+> energy (half the
        edges) on connected graphs."""
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        for graph, energy in zip(graphs, result.per_graph_energy):
            assert energy > graph.num_edges / 2

    def test_cobyla_200_reaches_analytic_optimum(self):
        """With the paper's budget the trained p=1 energy is near the grid
        optimum of the closed form."""
        g = cycle_graph(6)
        config = EvaluationConfig(max_steps=200, restarts=2, seed=0)
        result = Evaluator([g], config).evaluate(("rx",), 1)
        best, _, _ = grid_search_p1(g, resolution=48)
        assert result.energy >= best * 0.99

    def test_deterministic_given_seed(self, graphs, config):
        a = Evaluator(graphs, config).evaluate(("ry", "p"), 1)
        b = Evaluator(graphs, config).evaluate(("ry", "p"), 1)
        assert a.energy == b.energy

    def test_seed_changes_result_trajectory(self, graphs):
        a = Evaluator(graphs, EvaluationConfig(max_steps=8, seed=1)).evaluate(("rx",), 1)
        b = Evaluator(graphs, EvaluationConfig(max_steps=8, seed=2)).evaluate(("rx",), 1)
        assert a.nfev == b.nfev  # same budget, different inits
        # energies may coincide by luck but typically differ
        # (not asserted to avoid flakiness)

    def test_restarts_never_hurt(self, graphs):
        config_one = EvaluationConfig(max_steps=10, restarts=1, seed=3)
        one = Evaluator(graphs, config_one).evaluate(("rx",), 1)
        config_three = EvaluationConfig(max_steps=10, restarts=3, seed=3)
        three = Evaluator(graphs, config_three).evaluate(("rx",), 1)
        assert three.energy >= one.energy - 1e-12

    def test_empty_graphs_rejected(self, config):
        with pytest.raises(ValueError, match="at least one graph"):
            Evaluator([], config)


class TestCaching:
    def test_cache_hit_on_repeat(self, graphs, config):
        evaluator = Evaluator(graphs, config)
        first = evaluator.evaluate(("rx",), 1)
        second = evaluator.evaluate(("rx",), 1)
        assert evaluator.cache_hits == 1
        assert first is second

    def test_different_p_not_cached_together(self, graphs, config):
        evaluator = Evaluator(graphs, config)
        evaluator.evaluate(("rx",), 1)
        evaluator.evaluate(("rx",), 2)
        assert evaluator.cache_hits == 0

    def test_reward_uses_cache(self, graphs, config):
        evaluator = Evaluator(graphs, config)
        evaluator.evaluate(("rx",), 1)
        reward = evaluator.reward(("rx",), 1)
        assert evaluator.cache_hits == 1
        assert reward == evaluator.evaluate(("rx",), 1).ratio


class TestOptimizerChoices:
    @pytest.mark.parametrize("name", ["cobyla", "nelder_mead", "spsa"])
    def test_derivative_free_optimizers(self, graphs, name):
        config = EvaluationConfig(optimizer=name, max_steps=12, seed=4)
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        assert result.energy > 0

    def test_adam_parameter_shift(self, graphs):
        config = EvaluationConfig(optimizer="adam", max_steps=6, seed=4)
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        assert result.energy > 0

    def test_unknown_optimizer(self):
        """Rejected where the config is built, like every other choice —
        not later, inside a worker, at ``training_optimizer``."""
        with pytest.raises(
            ValueError,
            match="unknown optimizer 'cobylaa'; options: cobyla, nelder_mead, spsa, adam",
        ):
            EvaluationConfig(optimizer="cobylaa", max_steps=5)

    def test_compiled_engine_matches_statevector_training(self):
        """The default compiled engine and the dense oracle agree to 1e-10
        per energy call, so identically seeded trainings stay close (COBYLA
        can amplify last-bit differences across accept/reject steps)."""
        g = cycle_graph(5)
        fast = Evaluator([g], EvaluationConfig(max_steps=15, seed=6)).evaluate(("rx",), 1)
        dense = Evaluator(
            [g], EvaluationConfig(max_steps=15, seed=6, engine="statevector")
        ).evaluate(("rx",), 1)
        assert fast.energy == pytest.approx(dense.energy, abs=0.05)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EvaluationConfig(engine="abacus")

    def test_unknown_array_backend_rejected(self):
        """Only *registered* backends pass config validation — "cupy" on a
        box without CuPy fails here, at config build time, not mid-sweep
        inside a worker."""
        with pytest.raises(ValueError, match="unknown array backend"):
            EvaluationConfig(array_backend="abacus")

    def test_mock_gpu_backend_trains_identically(self):
        """The array backend changes where the math runs, never what it
        computes: an identically seeded training on the mock-GPU backend
        reproduces the numpy run bit for bit (same engine, same ops)."""
        g = cycle_graph(5)
        numpy_run = Evaluator(
            [g], EvaluationConfig(max_steps=15, seed=6)
        ).evaluate(("rx",), 1)
        mock_run = Evaluator(
            [g], EvaluationConfig(max_steps=15, seed=6, array_backend="mock_gpu")
        ).evaluate(("rx",), 1)
        assert mock_run.energy == numpy_run.energy
        assert mock_run.ratio == numpy_run.ratio
        assert mock_run.nfev == numpy_run.nfev


class TestBatchMode:
    def test_unknown_batch_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown batch mode"):
            EvaluationConfig(batch_mode="turbo")

    @pytest.mark.parametrize("name", ["spsa", "nelder_mead"])
    def test_batched_matches_serial_restarts(self, graphs, name):
        """The population path and the per-restart loop train the same
        trajectories (engine round-off aside): same minima, and — for
        SPSA, whose eval budget is value-independent — the same count.
        (Nelder-Mead's branches compare energies from two numerically
        different kernels, so a 1-ulp tie may flip its eval count.)"""
        kwargs = dict(optimizer=name, max_steps=14, restarts=3, seed=9)
        batched = Evaluator(
            graphs, EvaluationConfig(batch_mode="batched", **kwargs)
        ).evaluate(("rx",), 1)
        serial = Evaluator(
            graphs, EvaluationConfig(batch_mode="serial", **kwargs)
        ).evaluate(("rx",), 1)
        if name == "spsa":
            assert batched.nfev == serial.nfev
        assert batched.energy == pytest.approx(serial.energy, abs=1e-8)

    def test_adam_batched_restarts(self, graphs):
        config = EvaluationConfig(
            optimizer="adam", max_steps=6, restarts=2, seed=4, batch_mode="batched"
        )
        result = Evaluator(graphs, config).evaluate(("rx",), 1)
        assert result.energy > 0

    def test_auto_mode_default_unchanged_for_cobyla(self, graphs):
        """COBYLA has no batch path; auto must reproduce the historical
        serial restart loop exactly."""
        auto = Evaluator(
            graphs, EvaluationConfig(max_steps=12, restarts=2, seed=3)
        ).evaluate(("rx",), 1)
        serial = Evaluator(
            graphs,
            EvaluationConfig(max_steps=12, restarts=2, seed=3, batch_mode="serial"),
        ).evaluate(("rx",), 1)
        assert auto.energy == serial.energy
        assert auto.nfev == serial.nfev


class TestConfigFingerprint:
    def test_restarts_changes_cache_fingerprint(self):
        from repro.core.cache import config_fingerprint

        base = EvaluationConfig(max_steps=10, restarts=1)
        more = EvaluationConfig(max_steps=10, restarts=3)
        assert config_fingerprint(base) != config_fingerprint(more)

    def test_batch_mode_changes_cache_fingerprint(self):
        from repro.core.cache import config_fingerprint

        auto = EvaluationConfig(max_steps=10)
        serial = EvaluationConfig(max_steps=10, batch_mode="serial")
        assert config_fingerprint(auto) != config_fingerprint(serial)


class TestWorkerFunction:
    def test_stateless_entry_point_matches_evaluator(self, graphs, config):
        direct = Evaluator(graphs, config).evaluate(("h", "p"), 1)
        worker = evaluate_candidate(graphs, ("h", "p"), 1, config)
        assert worker.energy == direct.energy
        assert worker.tokens == direct.tokens
