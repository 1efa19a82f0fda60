"""Simulated-GPU contraction backend.

The paper's future-work section promises tight QTensor/GPU integration so a
user can "seamlessly select a GPU backend whenever possible". This box has
no CUDA device, so we *simulate* one: computation runs on NumPy, while the
backend meters what the same contraction would cost on an accelerator under
an explicit analytic model — host↔device transfers at PCIe bandwidth, a
fixed kernel-launch latency, and einsum FLOPs at a device rate.

The point is to exercise the backend-selection code path and to let
``bench_ablation_backends`` show the crossover where offloading pays:
small QAOA buckets are launch-latency bound (GPU loses), wide buckets are
FLOP bound (GPU wins). The numbers are a model, not a measurement, and the
defaults are order-of-magnitude A100-class values.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.qtensor.backends.base import ContractionBackend
from repro.qtensor.backends.numpy_backend import NumpyBackend
from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable
from repro.simulators.backends import DeviceModel

__all__ = ["SimulatedGPUBackend"]

_COMPLEX_BYTES = 16  # complex128


class SimulatedGPUBackend(ContractionBackend):
    """NumPy results + device-time accounting.

    Tensors created by this backend are considered device-resident: an
    operand is charged a host→device transfer the first time it is seen,
    and the final :meth:`combine` result is charged a device→host copy.
    """

    name = "simulated_gpu"

    def __init__(self, model: DeviceModel | None = None) -> None:
        self.model = model or DeviceModel()
        self._host = NumpyBackend()
        self._on_device: set[int] = set()
        self.device_seconds = 0.0
        self.bytes_transferred = 0
        self.flops = 0.0

    # -- accounting helpers ---------------------------------------------------

    def _charge_upload(self, operands: Sequence[Tensor]) -> None:
        for t in operands:
            if id(t) not in self._on_device:
                nbytes = t.data.size * _COMPLEX_BYTES
                self.bytes_transferred += nbytes
                self.device_seconds += self.model.transfer_seconds(nbytes)
                self._on_device.add(id(t))

    def _charge_einsum(self, operands: Sequence[Tensor], result: Tensor) -> None:
        # FLOP model: every output element sums over the eliminated index
        # space; bounded by prod of all distinct index sizes in the bucket.
        distinct = {v for t in operands for v in t.indices}
        total_space = float(np.prod([v.size for v in distinct], dtype=float)) if distinct else 1.0
        flops = total_space * max(len(operands) - 1, 1)
        self.flops += flops
        self.device_seconds += self.model.kernel_seconds(flops)
        self._on_device.add(id(result))

    # -- backend protocol -------------------------------------------------------

    def contract_bucket(self, operands: Sequence[Tensor], sum_var: Variable) -> Tensor:
        self._charge_upload(operands)
        result = self._host.contract_bucket(operands, sum_var)
        self._charge_einsum(operands, result)
        return result

    def combine(self, operands: Sequence[Tensor], out_vars: Sequence[Variable]) -> Tensor:
        self._charge_upload(operands)
        result = self._host.combine(operands, out_vars)
        self._charge_einsum(operands, result)
        nbytes = result.data.size * _COMPLEX_BYTES
        self.bytes_transferred += nbytes
        self.device_seconds += self.model.transfer_seconds(nbytes)
        return result

    def reset_stats(self) -> None:
        self._host.reset_stats()
        self._on_device.clear()
        self.device_seconds = 0.0
        self.bytes_transferred = 0
        self.flops = 0.0

    def stats(self) -> dict[str, float]:
        out = dict(self._host.stats())
        out.update(
            device_seconds=self.device_seconds,
            bytes_transferred=float(self.bytes_transferred),
            flops=self.flops,
        )
        return out
