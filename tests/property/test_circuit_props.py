"""Property-based tests: circuit and gate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY, make_gate
from repro.simulators.statevector import circuit_unitary, simulate

ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)
PARAM_GATES_1Q = st.sampled_from(["rx", "ry", "rz", "p"])
FIXED_GATES_1Q = st.sampled_from(["h", "x", "y", "z", "s", "t", "sdg", "tdg"])


@st.composite
def circuits(draw, max_qubits=4, max_gates=12):
    n = draw(st.integers(2, max_qubits))
    qc = QuantumCircuit(n)
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.integers(0, 3))
        q = draw(st.integers(0, n - 1))
        if kind == 0:
            qc.append_named(draw(FIXED_GATES_1Q), [q])
        elif kind == 1:
            qc.append_named(draw(PARAM_GATES_1Q), [q], draw(ANGLES))
        else:
            r = draw(st.integers(0, n - 2))
            r = r if r != q else n - 1
            if kind == 2:
                qc.append_named(draw(st.sampled_from(["cx", "cz", "swap"])), [q, r])
            else:
                qc.append_named(
                    draw(st.sampled_from(["rzz", "rxx", "cp"])), [q, r], draw(ANGLES)
                )
    return qc


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_simulation_preserves_norm(qc):
    psi = simulate(qc)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=3, max_gates=10))
def test_circuit_unitary_is_unitary(qc):
    u = circuit_unitary(qc)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2**qc.num_qubits), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GATE_REGISTRY)), st.data())
def test_every_gate_unitary_for_random_params(name, data):
    spec = GATE_REGISTRY[name]
    params = [data.draw(ANGLES) for _ in range(spec.num_params)]
    g = make_gate(name, *params)
    m = g.matrix()
    dim = 2**spec.num_qubits
    np.testing.assert_allclose(m @ m.conj().T, np.eye(dim), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["rx", "ry", "rz", "p", "rzz", "rxx", "cp"]), ANGLES, ANGLES)
def test_rotation_angles_add(name, a, b):
    """R(a) R(b) = R(a+b) for all rotation families."""
    g_ab = make_gate(name, a).matrix() @ make_gate(name, b).matrix()
    g_sum = make_gate(name, a + b).matrix()
    np.testing.assert_allclose(g_ab, g_sum, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(circuits(max_qubits=3, max_gates=8))
def test_depth_at_most_size(qc):
    assert qc.depth() <= qc.size()
    if qc.size():
        assert qc.depth() >= 1
