"""Pluggable tensor-contraction backends (CPU NumPy, simulated GPU)."""

from repro.qtensor.backends.base import ContractionBackend
from repro.qtensor.backends.mock_gpu import SimulatedGPUBackend
from repro.qtensor.backends.numpy_backend import NumpyBackend

__all__ = ["ContractionBackend", "NumpyBackend", "SimulatedGPUBackend"]


def get_backend(name: str) -> ContractionBackend:
    """Backend factory: ``"numpy"`` or ``"gpu"`` (simulated).

    This is the selection point the paper's future-work section describes —
    swapping in a real device library would register it here.
    """
    if name == "numpy":
        return NumpyBackend()
    if name in ("gpu", "simulated_gpu"):
        return SimulatedGPUBackend()
    raise ValueError(f"unknown backend {name!r}; options: numpy, gpu")
