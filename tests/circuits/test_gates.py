"""Gate matrices: unitarity, special values, inverses, diagonality flags."""

import cmath
import math

import numpy as np
import pytest

from repro.circuits.gates import GATE_REGISTRY, Gate, gate_matrix, make_gate
from repro.circuits.parameters import Parameter


def _random_params(spec, rng):
    return [float(v) for v in rng.uniform(-np.pi, np.pi, size=spec.num_params)]


class TestRegistry:
    def test_expected_gates_present(self):
        for name in ["id", "x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "p",
                     "cx", "cz", "cp", "rzz", "rxx", "swap", "u3"]:
            assert name in GATE_REGISTRY

    def test_unknown_gate_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known gates"):
            make_gate("nonexistent")

    def test_all_matrices_unitary(self):
        rng = np.random.default_rng(0)
        for spec in GATE_REGISTRY.values():
            params = _random_params(spec, rng)
            m = spec.matrix_fn(params)
            dim = 2**spec.num_qubits
            assert m.shape == (dim, dim)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(dim), atol=1e-12)

    def test_diagonal_flags_truthful(self):
        rng = np.random.default_rng(1)
        for spec in GATE_REGISTRY.values():
            params = _random_params(spec, rng)
            m = spec.matrix_fn(params)
            is_diag = np.allclose(m, np.diag(np.diag(m)))
            assert spec.is_diagonal == is_diag, spec.name


class TestSpecialValues:
    def test_rx_pi_is_minus_i_x(self):
        np.testing.assert_allclose(
            gate_matrix("rx", math.pi), -1j * gate_matrix("x"), atol=1e-12
        )

    def test_ry_pi_is_minus_i_y(self):
        np.testing.assert_allclose(
            gate_matrix("ry", math.pi), -1j * gate_matrix("y"), atol=1e-12
        )

    def test_rz_pi_is_minus_i_z(self):
        np.testing.assert_allclose(
            gate_matrix("rz", math.pi), -1j * gate_matrix("z"), atol=1e-12
        )

    def test_zero_rotations_are_identity(self):
        for name in ("rx", "ry", "rz", "p"):
            np.testing.assert_allclose(gate_matrix(name, 0.0), np.eye(2), atol=1e-15)
        for name in ("rzz", "rxx", "cp"):
            np.testing.assert_allclose(gate_matrix(name, 0.0), np.eye(4), atol=1e-15)

    def test_p_pi_is_z(self):
        np.testing.assert_allclose(gate_matrix("p", math.pi), gate_matrix("z"), atol=1e-12)

    def test_p_vs_rz_differ_by_global_phase(self):
        theta = 0.7
        ratio = gate_matrix("p", theta) @ np.linalg.inv(gate_matrix("rz", theta))
        np.testing.assert_allclose(ratio, np.eye(2) * ratio[0, 0], atol=1e-12)
        assert abs(abs(ratio[0, 0]) - 1) < 1e-12

    def test_s_squared_is_z(self):
        s = gate_matrix("s")
        np.testing.assert_allclose(s @ s, gate_matrix("z"), atol=1e-12)

    def test_t_squared_is_s(self):
        t = gate_matrix("t")
        np.testing.assert_allclose(t @ t, gate_matrix("s"), atol=1e-12)

    def test_h_conjugates_x_to_z(self):
        h = gate_matrix("h")
        np.testing.assert_allclose(h @ gate_matrix("x") @ h, gate_matrix("z"), atol=1e-12)

    def test_cx_permutation_structure(self):
        # |q1 q0> basis: control is q0 (low bit)
        cx = gate_matrix("cx")
        assert cx[3, 1] == 1 and cx[1, 3] == 1  # 01 <-> 11
        assert cx[0, 0] == 1 and cx[2, 2] == 1

    def test_rzz_diagonal_values(self):
        theta = 0.9
        m = gate_matrix("rzz", theta)
        e_m, e_p = cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)
        np.testing.assert_allclose(np.diag(m), [e_m, e_p, e_p, e_m], atol=1e-12)

    def test_u3_reduces_to_ry(self):
        theta = 1.1
        np.testing.assert_allclose(
            gate_matrix("u3", theta, 0.0, 0.0), gate_matrix("ry", theta), atol=1e-12
        )


class TestGateInstances:
    def test_wrong_param_count(self):
        with pytest.raises(ValueError, match="takes 1 parameter"):
            make_gate("rx")
        with pytest.raises(ValueError):
            make_gate("h", 0.5)

    def test_symbolic_parameters_tracked(self):
        beta = Parameter("beta")
        g = make_gate("rx", 2 * beta)
        assert g.parameters == frozenset({beta})

    def test_matrix_requires_binding(self):
        beta = Parameter("beta")
        g = make_gate("rx", 2 * beta)
        with pytest.raises(ValueError):
            g.matrix()
        m = g.matrix({beta: math.pi / 2})
        np.testing.assert_allclose(m, gate_matrix("rx", math.pi), atol=1e-12)

    def test_bind_partial_keeps_symbolic(self):
        a, b = Parameter("a"), Parameter("b")
        g = make_gate("u3", a, b, 0.0)
        g2 = g.bind({a: 1.0})
        assert g2.parameters == frozenset({b})

    def test_repr(self):
        assert repr(make_gate("h")) == "h"
        assert "rx" in repr(make_gate("rx", 0.5))
