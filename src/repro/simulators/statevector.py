"""Dense state-vector simulation.

The reference simulator: exact, simple, and fast enough for the paper's
10-qubit workloads (1024 amplitudes). The tensor-network engine in
:mod:`repro.qtensor` is cross-validated against this module on every
circuit family the search produces.

Implementation notes (following the NumPy-performance guidance this repo is
built under): a state on ``n`` qubits is viewed as an ``n``-dimensional
``(2, ..., 2)`` tensor and gates are applied with ``tensordot`` +
``moveaxis`` — no ``2^n x 2^n`` matrices are ever materialized, every
operation is a vectorized contraction over views.

Conventions:

* qubit ``k`` is bit ``k`` of the basis index (little-endian, Qiskit-style),
  so in the reshaped tensor qubit ``k`` lives on axis ``n - 1 - k``;
* for an ``m``-qubit gate applied to ``(q_0, ..., q_{m-1})``, bit ``j`` of
  the gate-matrix index corresponds to ``q_j`` (see
  :mod:`repro.circuits.gates`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.utils.validation import check_positive

__all__ = [
    "zero_state",
    "plus_state",
    "basis_state",
    "apply_gate",
    "simulate",
    "circuit_unitary",
]


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0> as a flat complex vector."""
    n = check_positive(num_qubits, "num_qubits")
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


def plus_state(num_qubits: int) -> np.ndarray:
    """|+>^{\\otimes n} — QAOA's initial state |s>."""
    n = check_positive(num_qubits, "num_qubits")
    return np.full(2**n, 2.0 ** (-n / 2), dtype=complex)


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index>."""
    n = check_positive(num_qubits, "num_qubits")
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state


def apply_gate(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply an ``m``-qubit gate matrix to ``state`` (flat, length ``2^n``).

    Works for any ``m`` and any (distinct) target qubits. Also accepts a
    state carrying trailing batch axes (shape ``(2^n, batch...)``), which
    :func:`circuit_unitary` exploits to push all identity columns through
    the circuit at once.
    """
    m = len(qubits)
    if matrix.shape != (2**m, 2**m):
        raise ValueError(f"matrix shape {matrix.shape} does not match {m} qubits")
    if len(set(qubits)) != m:
        raise ValueError(f"duplicate target qubits {qubits}")
    batch_shape = state.shape[1:]
    tensor = state.reshape((2,) * num_qubits + batch_shape)
    # Gate matrix index bit j <-> qubits[j]; reshaped axes are
    # (out_{m-1}..out_0, in_{m-1}..in_0).
    gate_tensor = matrix.reshape((2,) * (2 * m))
    # State axis of qubit k is n-1-k; contract inputs high-bit-first.
    target_axes = [num_qubits - 1 - qubits[j] for j in reversed(range(m))]
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(m, 2 * m)), target_axes))
    # New axes sit at the front ordered (out_{m-1}..out_0); send them home.
    result = np.moveaxis(moved, list(range(m)), target_axes)
    return result.reshape((2**num_qubits,) + batch_shape)


def simulate(circuit: QuantumCircuit, initial_state: np.ndarray | None = None) -> np.ndarray:
    """Run ``circuit`` and return the final flat state vector.

    Symbolic parameters must be bound first
    (:meth:`~repro.circuits.circuit.QuantumCircuit.bind_parameters`);
    unbound ones raise with the offending names.
    """
    n = circuit.num_qubits
    state = zero_state(n) if initial_state is None else np.asarray(initial_state, dtype=complex)
    if state.shape[0] != 2**n:
        raise ValueError(
            f"initial state has dimension {state.shape[0]}, expected {2**n}"
        )
    state = state.copy()
    for instr in circuit.instructions:
        state = apply_gate(state, instr.gate.matrix(), instr.qubits, n)
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The full ``2^n x 2^n`` unitary of a (small) circuit.

    Columns are basis-state images, pushed through the circuit as one
    batched state; intended for testing and for n <= ~10.
    """
    n = circuit.num_qubits
    state = np.eye(2**n, dtype=complex)  # column j = |j>
    for instr in circuit.instructions:
        state = apply_gate(state, instr.gate.matrix(), instr.qubits, n)
    return state
