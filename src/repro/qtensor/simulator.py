"""High-level tensor-network simulator façade (the QTensor stand-in).

Bundles network construction, lightcone pruning, order optimization, and a
contraction backend behind the three calls the rest of the package uses:

* :meth:`QTensorSimulator.statevector` — full state (cross-validation path);
* :meth:`QTensorSimulator.amplitude` — one ``<b|U|init>`` amplitude;
* :meth:`QTensorSimulator.expectation_diagonal` /
  :meth:`QTensorSimulator.maxcut_energy` — diagonal-observable expectations,
  contracted per term on the term's reverse lightcone.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.graphs.generators import Graph
from repro.qtensor.backends import ContractionBackend, get_backend
from repro.qtensor.contraction import bucket_elimination, contract_network
from repro.qtensor.lightcone import lightcone_circuit
from repro.qtensor.network import TensorNetwork
from repro.qtensor.ordering import order_for_tensors

__all__ = ["QTensorSimulator", "CUT_DIAGONAL"]

#: diagonal of (1 - Z_u Z_v)/2 on two qubits — the per-edge cut indicator
CUT_DIAGONAL = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)


@dataclass
class QTensorSimulator:
    """Tensor-network circuit simulator with pluggable contraction backend.

    Parameters mirror the knobs the ablation benches sweep: the ordering
    heuristic (``min_fill``/``min_degree``/``random``), greedy restarts, and
    the backend (``"numpy"`` or ``"gpu"``).
    """

    backend: str | ContractionBackend = "numpy"
    ordering_method: str = "min_fill"
    n_restarts: int = 1
    ordering_seed: int | None = None
    use_lightcone: bool = True
    name: str = field(init=False, default="qtensor")

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            self.backend = get_backend(self.backend)
        #: contraction widths observed per expectation term (diagnostics)
        self.last_widths: list[int] = []

    # -- state / amplitude ----------------------------------------------------

    def statevector(
        self,
        circuit: QuantumCircuit,
        *,
        initial_state: str = "0",
        bindings: Mapping[Parameter, float] | None = None,
    ) -> np.ndarray:
        """Full state vector via tensor contraction with open output wires.

        Exponential in qubit count by construction — this exists to
        cross-validate against :mod:`repro.simulators.statevector`, not to
        scale.
        """
        network = TensorNetwork.from_circuit(
            circuit, bindings=bindings, initial_state=initial_state
        )
        data = contract_network(
            network,
            backend=self.backend,
            method=self.ordering_method,
            n_restarts=self.n_restarts,
            seed=self.ordering_seed,
        )
        # open_vars are ordered q0..q_{n-1}; flatten little-endian (qubit k
        # = bit k) by putting the highest qubit on the leading axis.
        n = circuit.num_qubits
        return data.transpose(tuple(reversed(range(n)))).reshape(2**n)

    def amplitude(
        self,
        circuit: QuantumCircuit,
        bitstring: int,
        *,
        initial_state: str = "0",
        bindings: Mapping[Parameter, float] | None = None,
    ) -> complex:
        """``<bitstring|U|init>`` from a fully closed network."""
        network = TensorNetwork.from_circuit(
            circuit,
            bindings=bindings,
            initial_state=initial_state,
            output_bitstring=bitstring,
        )
        data = contract_network(
            network,
            backend=self.backend,
            method=self.ordering_method,
            n_restarts=self.n_restarts,
            seed=self.ordering_seed,
        )
        return complex(data)

    # -- expectations -----------------------------------------------------------

    def expectation_diagonal(
        self,
        circuit: QuantumCircuit,
        terms: Sequence[tuple[Sequence[int], np.ndarray, float]],
        *,
        initial_state: str = "+",
        bindings: Mapping[Parameter, float] | None = None,
    ) -> float:
        """``sum_k w_k <init|U^+ D_k U|init>`` for diagonal terms ``D_k``.

        Each term is ``(qubits, diagonal, weight)``. With lightcone pruning
        each term contracts only its causal neighbourhood — independent
        work items that the parallel layer can fan out.
        """
        self.last_widths = []
        total = 0.0
        for qubits, diagonal, weight in terms:
            value = self._single_term(circuit, qubits, diagonal, initial_state, bindings)
            total += weight * value
        return total

    def _single_term(
        self,
        circuit: QuantumCircuit,
        qubits: Sequence[int],
        diagonal: np.ndarray,
        initial_state: str,
        bindings: Mapping[Parameter, float] | None,
    ) -> float:
        cone = (
            lightcone_circuit(circuit, qubits) if self.use_lightcone else circuit
        )
        network = TensorNetwork.expectation(
            cone,
            [(list(qubits), np.asarray(diagonal, dtype=complex))],
            bindings=bindings,
            initial_state=initial_state,
        )
        order = order_for_tensors(
            network.tensors,
            method=self.ordering_method,
            n_restarts=self.n_restarts,
            seed=self.ordering_seed,
        )
        self.last_widths.append(order.width)
        result = bucket_elimination(network.tensors, order.order, (), self.backend)
        value = result.scalar()
        if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
            raise AssertionError(
                f"diagonal expectation has imaginary part {value.imag:.3g}; "
                "network construction is inconsistent"
            )
        return value.real

    def maxcut_energy(
        self,
        circuit: QuantumCircuit,
        graph: Graph,
        *,
        initial_state: str = "+",
        bindings: Mapping[Parameter, float] | None = None,
    ) -> float:
        """``<C>`` of Eq. (1): one lightcone contraction per graph edge."""
        terms = [
            ((u, v), CUT_DIAGONAL, w)
            for (u, v), w in zip(graph.edges, graph.weights)
        ]
        return self.expectation_diagonal(
            circuit, terms, initial_state=initial_state, bindings=bindings
        )
