"""Contraction backend protocol and the simulated-GPU cost model."""

import numpy as np
import pytest

from repro.qtensor.backends import NumpyBackend, SimulatedGPUBackend, get_backend
from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable
from repro.simulators.backends import DeviceModel


def _bucket():
    a, b, c = Variable(0), Variable(1), Variable(2)
    rng = np.random.default_rng(3)
    return (
        [
            Tensor("t1", rng.normal(size=(2, 2)), [a, b]),
            Tensor("t2", rng.normal(size=(2, 2)), [b, c]),
        ],
        a,
        b,
        c,
    )


class TestFactory:
    def test_names(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("gpu").name == "simulated_gpu"

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_backend("fpga")


class TestNumpyBackend:
    def test_contract_bucket_sums_variable(self):
        tensors, a, b, c = _bucket()
        result = NumpyBackend().contract_bucket(tensors, b)
        assert set(result.indices) == {a, c}
        expected = np.einsum("ab,bc->ac", tensors[0].data, tensors[1].data)
        np.testing.assert_allclose(result.data, expected)

    def test_output_index_order_deterministic(self):
        tensors, a, b, c = _bucket()
        result = NumpyBackend().contract_bucket(tensors, b)
        assert result.indices == (a, c)  # sorted by variable id

    def test_combine_empty_is_scalar_one(self):
        result = NumpyBackend().combine([], [])
        assert result.scalar() == pytest.approx(1.0)

    def test_combine_orders_output(self):
        a, b = Variable(0), Variable(1)
        t = Tensor("t", np.arange(4.0).reshape(2, 2), [a, b])
        result = NumpyBackend().combine([t], [b, a])
        np.testing.assert_allclose(result.data, t.data.T)


class TestSimulatedGPU:
    def test_same_numerics_as_numpy(self):
        tensors, a, b, c = _bucket()
        cpu = NumpyBackend().contract_bucket(tensors, b)
        gpu = SimulatedGPUBackend().contract_bucket(tensors, b)
        np.testing.assert_allclose(gpu.data, cpu.data)

    def test_upload_charged_once_per_tensor(self):
        tensors, a, b, c = _bucket()
        backend = SimulatedGPUBackend()
        backend.contract_bucket(tensors, b)
        first = backend.bytes_transferred
        # same (cached) tensors again: no second upload charge
        backend.contract_bucket(tensors, b)
        assert backend.bytes_transferred == first

    def test_kernel_latency_dominates_small_buckets(self):
        model = DeviceModel(kernel_latency=1e-3, element_rate=1e15, transfer_bandwidth=1e15)
        backend = SimulatedGPUBackend(model)
        tensors, a, b, c = _bucket()
        backend.contract_bucket(tensors, b)
        assert backend.device_seconds == pytest.approx(1e-3, rel=0.2)

    def test_flops_grow_with_bucket_width(self):
        rng = np.random.default_rng(0)
        small_vars = [Variable(i) for i in range(3)]
        big_vars = [Variable(i) for i in range(8)]
        small = [Tensor("s", rng.normal(size=(2,) * 3), small_vars)]
        big = [Tensor("b", rng.normal(size=(2,) * 8), big_vars)]
        backend = SimulatedGPUBackend()
        backend.contract_bucket(small, small_vars[0])
        f_small = backend.flops
        backend.reset_stats()
        backend.contract_bucket(big, big_vars[0])
        assert backend.flops > f_small

    def test_reset_stats(self):
        backend = SimulatedGPUBackend()
        tensors, a, b, c = _bucket()
        backend.contract_bucket(tensors, b)
        backend.reset_stats()
        assert backend.device_seconds == 0.0
        assert backend.bytes_transferred == 0
        assert backend.flops == 0.0

    def test_combine_charges_download(self):
        a = Variable(0)
        t = Tensor("t", np.ones(2), [a])
        backend = SimulatedGPUBackend()
        backend.combine([t], [a])
        # upload of t + download of result
        assert backend.bytes_transferred >= 2 * 2 * 16
