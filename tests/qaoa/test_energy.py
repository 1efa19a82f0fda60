"""AnsatzEnergy: values, gradients, engine agreement."""

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qtensor.simulator import QTensorSimulator


def qtensor_energy(ansatz, x):
    """The tensor-network simulator's ``<C>``, driven directly (it is not
    an ``AnsatzEnergy`` engine)."""
    return QTensorSimulator().maxcut_energy(
        ansatz.bind(x), ansatz.graph, initial_state=ansatz.initial_state_label
    )


@pytest.fixture(scope="module")
def er6():
    return erdos_renyi_graph(6, 0.5, seed=21, require_connected=True)


class TestValue:
    def test_zero_angles_give_half_total_weight(self, er6):
        energy = AnsatzEnergy(build_qaoa_ansatz(er6, 1))
        assert energy.value([0.0, 0.0]) == pytest.approx(er6.total_weight() / 2)

    def test_callable_interface(self, er6):
        energy = AnsatzEnergy(build_qaoa_ansatz(er6, 1))
        assert energy([0.1, 0.2]) == energy.value([0.1, 0.2])

    def test_negative_is_minus_value(self, er6):
        energy = AnsatzEnergy(build_qaoa_ansatz(er6, 1))
        assert energy.negative_objective()([0.3, 0.4]) == -energy.value([0.3, 0.4])

    def test_evaluation_counter(self, er6):
        energy = AnsatzEnergy(build_qaoa_ansatz(er6, 1))
        energy.value([0.1, 0.1])
        energy.value([0.2, 0.2])
        assert energy.num_evaluations == 2

    def test_unknown_engine(self, er6):
        with pytest.raises(
            ValueError, match="unknown engine 'abacus'; options: compiled, statevector$"
        ):
            AnsatzEnergy(build_qaoa_ansatz(er6, 1), engine="abacus")

    def test_qtensor_engine_agrees(self, er6):
        ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
        sv = AnsatzEnergy(ansatz, engine="statevector")
        x = [0.3, -0.2, 0.5, 0.1]
        assert qtensor_energy(ansatz, x) == pytest.approx(sv.value(x), abs=1e-9)

    def test_default_engine_is_compiled_and_agrees(self, er6):
        ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
        default = AnsatzEnergy(ansatz)
        sv = AnsatzEnergy(ansatz, engine="statevector")
        assert default.engine == "compiled"
        x = [0.3, -0.2, 0.5, 0.1]
        assert default.value(x) == pytest.approx(sv.value(x), abs=1e-10)

    def test_values_batch_matches_loop(self, er6):
        ansatz = build_qaoa_ansatz(er6, 1)
        energy = AnsatzEnergy(ansatz)
        X = np.array([[0.1, 0.2], [0.5, -0.3], [0.0, 0.0]])
        batched = energy.values(X)
        np.testing.assert_allclose(batched, [energy.value(row) for row in X])
        assert energy.num_evaluations == 6  # 3 batched + 3 single

    def test_plus_start_engine_agreement(self, er6):
        ansatz = build_qaoa_ansatz(er6, 1, initial_hadamard=False)
        sv = AnsatzEnergy(ansatz, engine="statevector")
        assert qtensor_energy(ansatz, [0.4, 0.3]) == pytest.approx(
            sv.value([0.4, 0.3]), abs=1e-9
        )


class TestGradient:
    @pytest.mark.parametrize("tokens", [("rx",), ("rx", "ry"), ("ry", "p")])
    def test_matches_finite_differences(self, er6, tokens):
        ansatz = build_qaoa_ansatz(er6, 1, tokens)
        energy = AnsatzEnergy(ansatz)
        x = np.array([0.37, -0.61])
        grad = energy.gradient(x)
        eps = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            fd = (energy.value(x + e) - energy.value(x - e)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-5)

    def test_p2_gradient(self, er6):
        ansatz = build_qaoa_ansatz(er6, 2)
        energy = AnsatzEnergy(ansatz)
        x = np.array([0.2, -0.4, 0.6, 0.1])
        grad = energy.gradient(x)
        eps = 1e-6
        fd = np.array([
            (energy.value(x + eps * np.eye(4)[j]) - energy.value(x - eps * np.eye(4)[j]))
            / (2 * eps)
            for j in range(4)
        ])
        np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_gradient_zero_at_symmetric_point(self, er6):
        """At gamma=0 the energy is stationary in beta (state stays |+>^n)."""
        energy = AnsatzEnergy(build_qaoa_ansatz(er6, 1))
        grad = energy.gradient([0.0, 0.0])
        assert grad[1] == pytest.approx(0.0, abs=1e-10)

    def test_h_mixer_has_no_gradient_path(self, er6):
        """An all-H mixer leaves only gamma gradients."""
        ansatz = build_qaoa_ansatz(er6, 1, ("h",))
        energy = AnsatzEnergy(ansatz)
        grad = energy.gradient([0.5, 0.5])
        assert grad.shape == (2,)
        assert grad[1] == 0.0  # beta unused by the mixer
