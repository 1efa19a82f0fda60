"""QTensorSimulator façade: cross-validation against the dense engine."""

import numpy as np
import pytest
from tests.conftest import random_circuit

from repro.circuits.circuit import QuantumCircuit
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, random_regular_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qtensor.simulator import QTensorSimulator
from repro.simulators.backends import MockGPUArrayBackend, NumpyArrayBackend
from repro.simulators.expectation import maxcut_expectation
from repro.simulators.statevector import plus_state, simulate, zero_state


@pytest.fixture(scope="module")
def sim():
    return QTensorSimulator()


class TestStatevector:
    def test_matches_dense_on_random_circuits(self, sim):
        for seed in range(3):
            qc = random_circuit(4, 25, seed=seed)
            np.testing.assert_allclose(sim.statevector(qc), simulate(qc), atol=1e-10)

    def test_plus_initial_state(self, sim):
        qc = QuantumCircuit(3).rzz(0.4, 0, 1).rx(0.8, 2)
        np.testing.assert_allclose(
            sim.statevector(qc, initial_state="+"),
            simulate(qc, plus_state(3)),
            atol=1e-10,
        )

    def test_symbolic_bindings(self, sim):
        from repro.circuits.parameters import Parameter

        beta = Parameter("beta")
        qc = QuantumCircuit(2).rx(2 * beta, 0).rx(2 * beta, 1)
        psi = sim.statevector(qc, bindings={beta: 0.3})
        expected = simulate(qc.bind_parameters({beta: 0.3}))
        np.testing.assert_allclose(psi, expected, atol=1e-10)


class TestAmplitude:
    def test_all_amplitudes_of_ghz(self, sim):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        psi = simulate(qc)
        for b in range(8):
            assert sim.amplitude(qc, b) == pytest.approx(complex(psi[b]), abs=1e-12)


class TestMaxcutEnergy:
    @pytest.mark.parametrize("tokens", [("rx",), ("rx", "ry"), ("ry", "p"), ("h", "p")])
    def test_matches_dense_across_mixers(self, sim, tokens):
        g = erdos_renyi_graph(7, 0.45, seed=9)
        ansatz = build_qaoa_ansatz(g, 2, tokens)
        x = np.linspace(-0.8, 0.8, ansatz.num_parameters)
        bound = ansatz.bind(list(x))
        dense = maxcut_expectation(simulate(bound, zero_state(7)), g)
        tn = sim.maxcut_energy(bound, g, initial_state="0")
        assert tn == pytest.approx(dense, abs=1e-9)

    def test_lightcone_and_full_agree(self):
        g = random_regular_graph(8, 3, seed=4)
        bound = build_qaoa_ansatz(g, 1).bind([0.4, 0.6])
        with_cone = QTensorSimulator(use_lightcone=True)
        without = QTensorSimulator(use_lightcone=False)
        assert with_cone.maxcut_energy(bound, g, initial_state="0") == pytest.approx(
            without.maxcut_energy(bound, g, initial_state="0"), abs=1e-9
        )

    def test_lightcone_reduces_width(self):
        g = random_regular_graph(10, 3, seed=2)
        bound = build_qaoa_ansatz(g, 1).bind([0.4, 0.6])
        with_cone = QTensorSimulator(use_lightcone=True)
        without = QTensorSimulator(use_lightcone=False)
        with_cone.maxcut_energy(bound, g, initial_state="0")
        without.maxcut_energy(bound, g, initial_state="0")
        assert max(with_cone.last_widths) <= max(without.last_widths)

    def test_widths_recorded_per_edge(self, sim):
        g = cycle_graph(5)
        bound = build_qaoa_ansatz(g, 1).bind([0.1, 0.2])
        sim.maxcut_energy(bound, g)
        assert len(sim.last_widths) == g.num_edges

    def test_weighted_graph_energy(self, sim):
        from repro.graphs.generators import Graph

        g = Graph(4, ((0, 1), (1, 2), (2, 3)), (2.0, 0.5, 1.5))
        bound = build_qaoa_ansatz(g, 1).bind([0.3, 0.7])
        dense = maxcut_expectation(simulate(bound, zero_state(4)), g)
        assert sim.maxcut_energy(bound, g, initial_state="0") == pytest.approx(dense, abs=1e-9)


class TestBackendSelection:
    def test_string_backend_resolution(self):
        assert isinstance(QTensorSimulator().backend, NumpyArrayBackend)
        assert isinstance(QTensorSimulator(backend="mock_gpu").backend, MockGPUArrayBackend)
        backend = MockGPUArrayBackend()
        assert QTensorSimulator(backend=backend).backend is backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            QTensorSimulator(backend="tpu")

    def test_gpu_backend_same_values_with_accounting(self):
        g = cycle_graph(5)
        bound = build_qaoa_ansatz(g, 1).bind([0.4, 0.6])
        cpu = QTensorSimulator(backend="numpy")
        gpu = QTensorSimulator(backend="mock_gpu")
        e_cpu = cpu.maxcut_energy(bound, g, initial_state="0")
        e_gpu = gpu.maxcut_energy(bound, g, initial_state="0")
        assert e_gpu == e_cpu
        stats = gpu.backend.stats()
        assert stats["device_seconds"] > 0
        assert stats["bytes_to_device"] > 0

    def test_ordering_method_passthrough(self):
        g = cycle_graph(4)
        bound = build_qaoa_ansatz(g, 1).bind([0.4, 0.6])
        for method in ("min_fill", "min_degree", "random"):
            sim = QTensorSimulator(ordering_method=method, ordering_seed=1)
            value = sim.maxcut_energy(bound, g, initial_state="0")
            dense = maxcut_expectation(simulate(bound, zero_state(4)), g)
            assert value == pytest.approx(dense, abs=1e-9)
