"""Bucket elimination and slicing, and their dispatch through ``ArrayBackend``."""

import numpy as np
import pytest
from tests.conftest import random_circuit

from repro.circuits.circuit import QuantumCircuit
from repro.graphs.generators import random_regular_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qtensor import contraction
from repro.qtensor.contraction import (
    bucket_elimination,
    choose_slice_vars,
    contract_network,
    contract_sliced,
)
from repro.qtensor.network import TensorNetwork
from repro.qtensor.ordering import order_for_tensors
from repro.qtensor.simulator import QTensorSimulator
from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable
from repro.simulators.backends import DeviceModel, MockGPUArrayBackend, get_array_backend
from repro.simulators.statevector import simulate


class TestBucketElimination:
    def test_matrix_chain(self):
        """A - B - C chain contracts to the matrix product trace."""
        a, b = Variable(0), Variable(1)
        m1 = np.random.default_rng(0).normal(size=(2, 2))
        m2 = np.random.default_rng(1).normal(size=(2, 2))
        tensors = [Tensor("m1", m1, [a, b]), Tensor("m2", m2, [a, b])]
        result = bucket_elimination(tensors, [a, b], ())
        assert result.scalar() == pytest.approx(np.sum(m1 * m2))

    def test_open_variable_kept(self):
        a, b = Variable(0), Variable(1)
        m = np.arange(4.0).reshape(2, 2)
        vec = np.array([1.0, 2.0])
        tensors = [Tensor("m", m, [a, b]), Tensor("v", vec, [a])]
        result = bucket_elimination(tensors, [a], [b])
        assert result.indices == (b,)
        np.testing.assert_allclose(result.data, m.T @ vec)

    def test_unaccounted_variable_rejected(self):
        a, b = Variable(0), Variable(1)
        t = Tensor("t", np.zeros((2, 2)), [a, b])
        with pytest.raises(ValueError, match="neither ordered nor open"):
            bucket_elimination([t], [a], ())

    def test_open_var_in_order_rejected(self):
        a = Variable(0)
        t = Tensor("t", np.zeros(2), [a])
        with pytest.raises(ValueError, match="also appear"):
            bucket_elimination([t], [a], [a])

    def test_disconnected_components_multiply(self):
        a, b = Variable(0), Variable(1)
        t1 = Tensor("t1", np.array([1.0, 2.0]), [a])
        t2 = Tensor("t2", np.array([3.0, 4.0]), [b])
        result = bucket_elimination([t1, t2], [a, b], ())
        assert result.scalar() == pytest.approx(3.0 * 7.0)

    def test_empty_network_scalar_one(self):
        result = bucket_elimination([], [], ())
        assert result.scalar() == pytest.approx(1.0)

    def test_order_invariance_of_value(self):
        """Any valid elimination order yields the same scalar."""
        qc = random_circuit(3, 12, seed=5)
        net = TensorNetwork.from_circuit(qc, output_bitstring=3)
        values = []
        for seed in range(4):
            order = order_for_tensors(net.tensors, method="random", seed=seed)
            result = bucket_elimination(net.tensors, order.order, ())
            values.append(result.scalar())
        np.testing.assert_allclose(values, values[0], atol=1e-10)

    def test_matches_statevector_amplitudes(self):
        qc = random_circuit(4, 25, seed=11)
        psi = simulate(qc)
        for b in (0, 5, 9, 15):
            net = TensorNetwork.from_circuit(qc, output_bitstring=b)
            amp = complex(contract_network(net))
            assert amp == pytest.approx(complex(psi[b]), abs=1e-10)


class TestWideBucketChunking:
    def test_many_tensors_on_one_variable(self):
        """More operands than the einsum chunk limit still contract."""
        v = Variable(0)
        tensors = [Tensor(f"t{i}", np.array([1.0, 0.5]), [v]) for i in range(40)]
        result = bucket_elimination(tensors, [v], ())
        assert result.scalar() == pytest.approx(1.0 + 0.5**40)


class TestSlicing:
    def test_choose_slice_vars_highest_degree(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(0, 2).h(0)
        net = TensorNetwork.from_circuit(qc, output_bitstring=0)
        sliced = choose_slice_vars(net.tensors, 1)
        from repro.qtensor.network import interaction_graph

        graph = interaction_graph(net.tensors)
        max_degree = max(len(nbrs) for nbrs in graph.values())
        assert len(graph[sliced[0]]) == max_degree

    def test_sliced_equals_unsliced(self):
        qc = random_circuit(4, 20, seed=2)
        net = TensorNetwork.from_circuit(qc, output_bitstring=7)
        direct = complex(contract_network(net))
        for num_slice in (1, 2):
            slice_vars = choose_slice_vars(net.tensors, num_slice)
            value = contract_sliced(net, slice_vars)
            assert value == pytest.approx(direct, abs=1e-10)

    def test_sliced_rejects_open_networks(self):
        net = TensorNetwork.from_circuit(QuantumCircuit(2).h(0))
        with pytest.raises(ValueError, match="closed"):
            contract_sliced(net, [])

    def test_slicing_with_parallel_map(self):
        """map_fn injection: slices can run through any mapper."""
        qc = random_circuit(3, 15, seed=4)
        net = TensorNetwork.from_circuit(qc, output_bitstring=1)
        direct = complex(contract_network(net))
        slice_vars = choose_slice_vars(net.tensors, 2)
        collected = []

        def tracking_map(fn, jobs):
            jobs = list(jobs)
            collected.append(len(jobs))
            return [fn(j) for j in jobs]

        value = contract_sliced(net, slice_vars, map_fn=tracking_map)
        assert value == pytest.approx(direct, abs=1e-10)
        assert collected == [4]  # 2^2 independent slices


def _bucket():
    a, b, c = Variable(0), Variable(1), Variable(2)
    rng = np.random.default_rng(3)
    tensors = [
        Tensor("t1", rng.normal(size=(2, 2)), [c, b]),
        Tensor("t2", rng.normal(size=(2, 2)), [b, a]),
    ]
    return tensors, a, b, c


class TestArrayBackendDispatch:
    """Every contraction is ``backend.xp.einsum`` between one upload per input
    tensor and one download per result — the compiled engine's seam."""

    def test_bucket_math_is_einsum(self):
        tensors, a, b, c = _bucket()
        result = bucket_elimination(tensors, [b], [a, c])
        expected = np.einsum("cb,ba->ac", tensors[0].data, tensors[1].data)
        np.testing.assert_allclose(result.data, expected)

    def test_bucket_indices_sorted_by_id_and_combine_follows_open_vars(self, monkeypatch):
        tensors, a, b, c = _bucket()
        calls = []
        real = contraction._contract

        def spy(backend, operands, out_vars, name):
            calls.append(tuple(out_vars))
            return real(backend, operands, out_vars, name)

        monkeypatch.setattr(contraction, "_contract", spy)
        result = bucket_elimination(tensors, [b], [c, a])
        assert calls == [(a, c), (c, a)]
        assert result.indices == (c, a)

    def test_combine_orders_output(self):
        a, b = Variable(0), Variable(1)
        t = Tensor("t", np.arange(4.0).reshape(2, 2), [a, b])
        result = bucket_elimination([t], [], [b, a])
        np.testing.assert_array_equal(result.data, t.data.T)

    def test_mock_gpu_energy_is_bit_identical(self):
        graph = random_regular_graph(8, 3, seed=4)
        bound = build_qaoa_ansatz(graph, 2, ("rx", "ry")).bind([0.4, -0.6, 0.2, 0.5])
        energies = [
            QTensorSimulator(backend=name).maxcut_energy(bound, graph, initial_state="0").hex()
            for name in ("numpy", "mock_gpu")
        ]
        assert energies[0] == energies[1]

    def test_each_input_uploaded_once_and_one_result_downloaded(self):
        net = TensorNetwork.from_circuit(random_circuit(4, 25, seed=11), output_bitstring=5)
        gpu = get_array_backend("mock_gpu")
        contract_network(net, backend=gpu)
        assert gpu.bytes_to_device == sum(t.data.nbytes for t in net.tensors)
        assert gpu.bytes_to_host == np.dtype(complex).itemsize

    def test_one_download_per_energy_term(self):
        graph = random_regular_graph(8, 3, seed=4)
        bound = build_qaoa_ansatz(graph, 1).bind([0.4, 0.6])
        sim = QTensorSimulator(backend="mock_gpu")
        sim.maxcut_energy(bound, graph, initial_state="0")
        assert sim.backend.bytes_to_host == graph.num_edges * np.dtype(complex).itemsize

    @pytest.mark.parametrize("buckets", [1, 3, 6])
    def test_one_kernel_per_bucket_plus_the_combine(self, buckets):
        variables = [Variable(i) for i in range(buckets)]
        tensors = [Tensor(f"t{v.id}", np.array([1.0, 0.5]), [v]) for v in variables]
        gpu = get_array_backend("mock_gpu")
        bucket_elimination(tensors, variables, (), gpu)
        assert gpu.kernels == buckets + 1

    def test_kernel_latency_dominates_small_buckets(self):
        gpu = MockGPUArrayBackend()
        gpu.model = DeviceModel(kernel_latency=1e-3, element_rate=1e15, transfer_bandwidth=1e15)
        tensors, a, b, c = _bucket()
        bucket_elimination(tensors, [b], [a, c], gpu)
        assert gpu.kernels == 2
        assert gpu.device_seconds == pytest.approx(2e-3, rel=1e-3)

    def test_charged_elements_grow_with_bucket_width(self):
        def elements(width):
            variables = [Variable(i) for i in range(width)]
            tensor = Tensor("t", np.ones((2,) * width), variables)
            gpu = get_array_backend("mock_gpu")
            bucket_elimination([tensor], variables[:1], variables[1:], gpu)
            return gpu.elements

        assert elements(3) < elements(8)

    @pytest.mark.parametrize("name", ["gpu", "simulated_gpu", "tpu"])
    def test_unknown_name_is_the_registry_error(self, name):
        with pytest.raises(ValueError, match=f"unknown array backend '{name}'"):
            QTensorSimulator(backend=name)
