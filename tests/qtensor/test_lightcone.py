"""Reverse-lightcone pruning correctness and tightness."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qtensor.lightcone import lightcone_circuit, lightcone_qubits
from repro.simulators.expectation import bit_table
from repro.simulators.statevector import simulate


def _zz_energy(circuit, u, v, init):
    """<Z_u Z_v>: +1 on basis states where bits u and v agree, -1 elsewhere."""
    bits = bit_table(circuit.num_qubits)
    probs = np.abs(simulate(circuit, init)) ** 2
    return float(probs @ (1.0 - 2.0 * (bits[:, u] != bits[:, v])))


class TestCorrectness:
    def test_expectation_invariant_under_pruning(self):
        """<Z_u Z_v> computed on the pruned circuit equals the full one."""
        g = random_regular_graph(8, 3, seed=1)
        ansatz = build_qaoa_ansatz(g, 2, ("rx", "ry"))
        bound = ansatz.bind([0.3, -0.7, 0.5, 0.2])
        init = np.zeros(2**8, dtype=complex)
        init[0] = 1.0
        for u, v in list(g.edges)[:4]:
            full = _zz_energy(bound, u, v, init)
            cone = lightcone_circuit(bound, [u, v])
            pruned = _zz_energy(cone, u, v, init)
            assert pruned == pytest.approx(full, abs=1e-10)

    def test_diag_aware_still_correct(self):
        g = cycle_graph(6)
        bound = build_qaoa_ansatz(g, 1).bind([0.4, 0.9])
        for diag_aware in (True, False):
            cone = lightcone_circuit(bound, [0, 1], diag_aware=diag_aware)
            init = np.zeros(2**6, dtype=complex)
            init[0] = 1.0
            assert _zz_energy(cone, 0, 1, init) == pytest.approx(
                _zz_energy(bound, 0, 1, init), abs=1e-10
            )

    def test_gate_order_preserved(self):
        qc = QuantumCircuit(2).h(0).rx(0.1, 0).ry(0.2, 0)
        cone = lightcone_circuit(qc, [0])
        assert [i.gate.name for i in cone] == ["h", "rx", "ry"]


class TestPruningPower:
    def test_unrelated_qubits_dropped(self):
        qc = QuantumCircuit(4).h(0).h(1).h(2).h(3).rx(0.4, 3)
        cone = lightcone_circuit(qc, [0])
        assert cone.size() == 1
        assert cone.instructions[0].qubits == (0,)

    def test_p1_cone_is_edge_neighbourhood(self):
        """For p=1 QAOA the cone of edge (u,v) touches exactly the closed
        neighbourhood of {u, v}."""
        g = cycle_graph(8)
        bound = build_qaoa_ansatz(g, 1).bind([0.3, 0.5])
        u, v = 2, 3
        cone_qubits = lightcone_qubits(bound, [u, v])
        expected = {u, v} | set(g.neighbors(u)) | set(g.neighbors(v))
        assert cone_qubits == expected

    def test_final_diagonal_layer_dropped(self):
        """The trailing cost layer commutes with ZZ and disappears."""
        g = cycle_graph(6)
        qc = QuantumCircuit(6)
        for q in range(6):
            qc.h(q)
        for (u, v), w in zip(g.edges, g.weights):
            qc.rzz(0.5 * w, u, v)
        cone = lightcone_circuit(qc, [0, 1], diag_aware=True)
        assert "rzz" not in cone.count_ops()
        # without diag-awareness they are kept
        cone_plain = lightcone_circuit(qc, [0, 1], diag_aware=False)
        assert "rzz" in cone_plain.count_ops()

    def test_cone_smaller_than_circuit_on_sparse_graph(self):
        g = random_regular_graph(12, 3, seed=5)
        bound = build_qaoa_ansatz(g, 1).bind([0.3, 0.5])
        u, v = g.edges[0]
        cone = lightcone_circuit(bound, [u, v])
        assert cone.size() < bound.size()

    def test_empty_observable_set_gives_empty_cone(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        assert lightcone_circuit(qc, []).size() == 0

    def test_qubit_validation(self):
        with pytest.raises(ValueError):
            lightcone_circuit(QuantumCircuit(2).h(0), [5])
