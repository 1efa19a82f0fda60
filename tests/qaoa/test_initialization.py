"""Parameter-initialization strategies."""

import numpy as np
import pytest

from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.initialization import interp_init, ramp_init, uniform_init


class TestUniform:
    def test_shape_and_range(self):
        x = uniform_init(3, scale=0.4, rng=np.random.default_rng(0))
        assert x.shape == (6,)
        assert np.all(np.abs(x) <= 0.4)

    def test_seeded(self):
        a = uniform_init(2, rng=np.random.default_rng(1))
        b = uniform_init(2, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestRamp:
    def test_gammas_increase_betas_decrease(self):
        x = ramp_init(4)
        gammas, betas = x[:4], x[4:]
        assert np.all(np.diff(gammas) > 0)
        assert np.all(np.diff(betas) < 0)

    def test_endpoints(self):
        x = ramp_init(4, gamma_max=0.8, beta_max=0.6)
        assert x[3] == pytest.approx(0.8)  # last gamma = gamma_max
        assert x[4] == pytest.approx(0.6)  # first beta = beta_max

    def test_jitter_perturbs(self):
        base = ramp_init(3)
        jittered = ramp_init(3, rng=np.random.default_rng(0), jitter=0.1)
        assert not np.array_equal(base, jittered)
        assert np.max(np.abs(base - jittered)) <= 0.1 + 1e-12

    def test_ramp_beats_zero_on_cycle(self):
        """The ramp start already captures cut energy without training."""
        g = cycle_graph(8)
        energy = AnsatzEnergy(build_qaoa_ansatz(g, 2))
        assert energy.value(ramp_init(2)) > energy.value([0, 0, 0, 0])


class TestInterp:
    def test_output_length(self):
        assert interp_init([0.5, 0.3]).shape == (4,)  # p=1 -> p=2
        assert interp_init([0.1, 0.2, 0.3, 0.4]).shape == (6,)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            interp_init([0.1, 0.2, 0.3])

    def test_p1_lift_structure(self):
        """Lifting (g, b) from p=1: gammas (g, 0)->interp = (g, g)? Check the
        published formula's endpoints: x'_0 = x_0, x'_p = x_{p-1}."""
        lifted = interp_init([0.5, 0.3])
        gammas, betas = lifted[:2], lifted[2:]
        assert gammas[0] == pytest.approx(0.5)
        assert gammas[1] == pytest.approx(0.5)
        assert betas[0] == pytest.approx(0.3)

    def test_lift_preserves_energy_approximately(self):
        """The lifted point should retain most of the optimized energy —
        the property that makes INTERP warm starts work."""
        from repro.optimizers import Cobyla

        g = erdos_renyi_graph(6, 0.5, seed=9, require_connected=True)
        e1 = AnsatzEnergy(build_qaoa_ansatz(g, 1))
        result = Cobyla(maxiter=120).minimize(e1.negative_objective(), [0.3, 0.2])
        trained_p1 = -result.fun
        e2 = AnsatzEnergy(build_qaoa_ansatz(g, 2))
        lifted_energy = e2.value(interp_init(result.x))
        assert lifted_energy > 0.9 * trained_p1


class TestEvaluatorIntegration:
    def test_ramp_strategy_in_evaluator(self):
        from repro.core.evaluator import EvaluationConfig, Evaluator

        g = cycle_graph(6)
        config = EvaluationConfig(max_steps=20, seed=0, init_strategy="ramp")
        result = Evaluator([g], config).evaluate(("rx",), 2)
        assert result.energy > g.num_edges / 2  # trained above |+> baseline

    def test_invalid_strategy_rejected(self):
        from repro.core.evaluator import EvaluationConfig

        with pytest.raises(ValueError, match="init strategy"):
            EvaluationConfig(init_strategy="psychic")
