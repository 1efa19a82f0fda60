"""State-vector simulator correctness."""

import numpy as np
import pytest
from tests.conftest import random_circuit

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.parameters import Parameter
from repro.simulators.statevector import (
    apply_gate,
    basis_state,
    circuit_unitary,
    plus_state,
    simulate,
    zero_state,
)


def gate_matrix(name, *params):
    """A registry gate's concrete matrix."""
    return make_gate(name, *params).matrix()


SQ2 = 1 / np.sqrt(2)


class TestStates:
    def test_zero_state(self):
        s = zero_state(3)
        assert s[0] == 1.0 and np.count_nonzero(s) == 1

    def test_plus_state_uniform(self):
        s = plus_state(4)
        np.testing.assert_allclose(np.abs(s) ** 2, np.full(16, 1 / 16))

    def test_basis_state(self):
        s = basis_state(3, 5)
        assert s[5] == 1.0 and np.count_nonzero(s) == 1

    def test_basis_state_range_check(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)


class TestKnownCircuits:
    def test_bell_state(self):
        psi = simulate(QuantumCircuit(2).h(0).cx(0, 1))
        np.testing.assert_allclose(psi, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_ghz_state(self):
        psi = simulate(QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = SQ2
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_x_flips_correct_qubit(self):
        # qubit k = bit k: X on qubit 1 of |00> -> index 2
        psi = simulate(QuantumCircuit(2).x(1))
        assert np.argmax(np.abs(psi)) == 2

    def test_cx_control_is_first_argument(self):
        # control qubit 1 set -> target qubit 0 flips: |10> (idx 2) -> |11> (idx 3)
        psi = simulate(QuantumCircuit(2).x(1).cx(1, 0))
        assert np.argmax(np.abs(psi)) == 3

    def test_cx_idle_control(self):
        psi = simulate(QuantumCircuit(2).cx(0, 1))
        assert np.argmax(np.abs(psi)) == 0

    def test_swap(self):
        psi = simulate(QuantumCircuit(2).x(0).cx(0, 1).cx(1, 0).cx(0, 1))
        assert np.argmax(np.abs(psi)) == 2

    def test_hadamard_layer_gives_plus(self):
        qc = QuantumCircuit(3)
        for q in range(3):
            qc.h(q)
        np.testing.assert_allclose(simulate(qc), plus_state(3), atol=1e-12)

    def test_rz_phase_on_superposition(self):
        psi = simulate(QuantumCircuit(1).h(0).rz(np.pi / 2, 0))
        expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) * SQ2
        np.testing.assert_allclose(psi, expected, atol=1e-12)


class TestApplyGate:
    def test_matches_kron_for_one_qubit(self, rng):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        u = gate_matrix("ry", 0.7)
        # qubit 1 of 3 (little-endian): I (x) U (x) I
        full = np.kron(np.eye(2), np.kron(u, np.eye(2)))
        np.testing.assert_allclose(apply_gate(psi, u, [1], 3), full @ psi, atol=1e-12)

    def test_matches_kron_for_adjacent_pair(self, rng):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        u = gate_matrix("rzz", 0.9)
        # qubits (0,1): matrix indexes |q1 q0> -> kron(I, U) with U on low bits
        full = np.kron(np.eye(2), u)
        np.testing.assert_allclose(apply_gate(psi, u, [0, 1], 3), full @ psi, atol=1e-12)

    def test_non_adjacent_pair_against_unitary(self, rng):
        qc = QuantumCircuit(3).ry(0.8, 2).cx(2, 0)
        u = circuit_unitary(qc)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(
            simulate(qc, psi), u @ psi, atol=1e-12
        )

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="matrix shape"):
            apply_gate(zero_state(2), np.eye(2), [0, 1], 2)

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            apply_gate(zero_state(2), np.eye(4), [0, 0], 2)


class TestSimulate:
    def test_norm_preserved_random(self):
        for seed in range(3):
            psi = simulate(random_circuit(4, 40, seed=seed))
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_initial_state_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            simulate(QuantumCircuit(2).h(0), zero_state(3))

    def test_initial_state_not_mutated(self):
        init = plus_state(2)
        before = init.copy()
        simulate(QuantumCircuit(2).x(0), init)
        np.testing.assert_array_equal(init, before)

    def test_symbolic_binding(self):
        theta = Parameter("t")
        psi = simulate(QuantumCircuit(1).ry(theta, 0).bind_parameters({theta: np.pi}))
        np.testing.assert_allclose(psi, [0, 1], atol=1e-12)

    def test_unbound_raises(self):
        theta = Parameter("t")
        with pytest.raises(ValueError):
            simulate(QuantumCircuit(1).ry(theta, 0))


class TestCircuitUnitary:
    def test_unitary_columns_are_basis_images(self, rng):
        qc = random_circuit(3, 20, seed=7)
        u = circuit_unitary(qc)
        for j in [0, 3, 7]:
            np.testing.assert_allclose(u[:, j], simulate(qc, basis_state(3, j)), atol=1e-12)

    def test_unitarity(self):
        u = circuit_unitary(random_circuit(3, 30, seed=8))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
