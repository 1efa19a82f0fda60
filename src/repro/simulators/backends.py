"""Pluggable array backends: the one GPU seam of both simulators.

:class:`~repro.simulators.compiled.CompiledProgram` lowered the evaluator
hot path into exactly the shapes a device array library accelerates —
fused elementwise phase multiplies, unique-value gathers, and stacks of
small gemms — and the tensor network's bucket elimination
(:func:`repro.qtensor.contraction.bucket_elimination`) is one einsum per
bucket. This module makes the array library a *knob* instead of a
hard-coded ``import numpy``: an :class:`ArrayBackend` owns

* the array namespace ``xp`` (NumPy, CuPy, or an instrumented proxy) that
  every array the engine creates is born under and every function it
  calls (``xp.einsum``, ``xp.take``, ``xp.exp``, …) is looked up in, so
  both operator math and named kernels dispatch to the right device;
* the host boundary: :meth:`~ArrayBackend.asarray` is the only way data
  enters the backend and :meth:`~ArrayBackend.to_host` the only way
  results leave, so transfers are explicit, meterable, and — on a real
  device — minimizable.

One registry serves both simulators: ``QTensorSimulator(backend=name)``
resolves its names here too, so a device library registers once, without
touching the layers above. (The tensor network's
:class:`~repro.qtensor.tensor.Tensor` still coerces its data to host
arrays, so only ``numpy`` and ``mock_gpu`` run there today.) The three
registered backends are

* ``"numpy"`` — the default; ``xp`` *is* :mod:`numpy` and the host
  boundary is the identity, so the compiled engine behaves (and benches)
  exactly as before this layer existed;
* ``"mock_gpu"`` — :class:`MockGPUArrayBackend`: computation runs on
  NumPy for bit-identical results, while every namespace call is metered
  as a device kernel and every host crossing as a PCIe transfer under an
  analytic :class:`DeviceModel` (the CPU-only stand-in that keeps the
  whole dispatch seam exercised in CI);
* ``"cupy"`` — :class:`CupyArrayBackend`, registered **only when CuPy is
  importable**: ``xp`` is :mod:`cupy`, ``to_host`` is ``cupy.asnumpy``,
  and :meth:`~ArrayBackend.synchronize` fences the stream so timings
  measure work, not launches.

Select one with ``EvaluationConfig(array_backend=...)`` / the CLI's
``--array-backend`` (it is part of the cache fingerprint, like
``engine``), or pass an instance straight to
:func:`~repro.simulators.compiled.compile_ansatz`. See
``docs/architecture.md`` for where this seam sits in the evaluation
pipeline.
"""

from __future__ import annotations

import abc
import importlib.util
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayBackend",
    "CupyArrayBackend",
    "DeviceModel",
    "MockGPUArrayBackend",
    "NumpyArrayBackend",
    "available_array_backends",
    "get_array_backend",
    "register_array_backend",
]


class ArrayBackend(abc.ABC):
    """One array library, behind the compiled engine's dispatch seam.

    Concrete backends fix :attr:`name`, :attr:`xp`, and the two host
    boundaries. The engine's kernels call contraction/gather/exponential
    work as ``xp.*`` (so a backend instruments or overrides an op by what
    its namespace returns — the mock GPU's proxy meters every call), while
    pure elementwise operator math (``*``, ``+``, ``@``) dispatches
    natively on the arrays ``xp`` allocated.
    """

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def xp(self):
        """The array namespace (``numpy``, ``cupy``, or a proxy).

        Every array the engine creates is allocated through this
        namespace, so ordinary operator math on those arrays runs on the
        backend's device without further dispatch.
        """

    @abc.abstractmethod
    def asarray(self, a, dtype=None):
        """Bring host (or device) data onto this backend's device."""

    @abc.abstractmethod
    def to_host(self, a) -> np.ndarray:
        """Bring a device array back as a host :class:`numpy.ndarray`.

        The single exit point for results — energies, gradients, final
        states — so a device backend pays exactly one download per batch.
        """

    # -- device lifecycle --------------------------------------------------

    def synchronize(self) -> None:  # pragma: no cover - default no-op
        """Fence outstanding device work (no-op on host backends)."""

    def stats(self) -> dict[str, float]:
        """Backend-specific counters (kernels, bytes moved, device time)."""
        return {}


class NumpyArrayBackend(ArrayBackend):
    """Host NumPy — the measured default; the identity backend.

    ``asarray``/``to_host`` are :func:`numpy.asarray` (no copies for
    arrays already on the host), so routing the engine through this
    backend is free and the committed perf baselines stay comparable.
    """

    name = "numpy"

    @property
    def xp(self):
        return np

    def asarray(self, a, dtype=None):
        return np.asarray(a, dtype=dtype)

    def to_host(self, a) -> np.ndarray:
        return np.asarray(a)


@dataclass(frozen=True)
class DeviceModel:
    """Analytic accelerator cost model (order-of-magnitude A100 values):
    host↔device transfers at PCIe bandwidth, a fixed kernel-launch
    latency, and work at a device rate. :class:`MockGPUArrayBackend`
    charges it per result element of every ``xp`` call, for the compiled
    engine's kernels and the tensor network's bucket einsums alike.
    """

    #: host<->device bandwidth, bytes/second (PCIe 4.0 x16 ~ 2.5e10)
    transfer_bandwidth: float = 2.5e10
    #: per-kernel launch + dispatch latency, seconds
    kernel_latency: float = 2.0e-5
    #: sustained complex op rate, result elements/second
    element_rate: float = 5.0e12

    def transfer_seconds(self, num_bytes: int) -> float:
        return num_bytes / self.transfer_bandwidth

    def kernel_seconds(self, elements: float) -> float:
        return self.kernel_latency + elements / self.element_rate


class _InstrumentedNamespace:
    """NumPy, with every function call metered as one device kernel.

    Attribute access forwards to :mod:`numpy`; callables (functions and
    ufuncs, not dtypes/classes) come back wrapped so each invocation
    charges the owning :class:`MockGPUArrayBackend` one kernel launch
    plus per-element device time. Results stay ordinary host ndarrays —
    the point is to exercise and meter the dispatch seam, not to compute
    differently.
    """

    def __init__(self, backend: MockGPUArrayBackend) -> None:
        self._backend = backend
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, name: str):
        cached = self._wrapped.get(name)
        if cached is not None:
            return cached
        attr = getattr(np, name)
        if callable(attr) and not isinstance(attr, type):
            backend = self._backend

            def kernel(*args, _fn=attr, _name=name, **kwargs):
                result = _fn(*args, **kwargs)
                backend._charge_kernel(_name, result)
                return result

            self._wrapped[name] = kernel
            return kernel
        return attr


class MockGPUArrayBackend(ArrayBackend):
    """Simulated-GPU array backend: NumPy results + device accounting.

    Without a CUDA device, computation runs on NumPy — results are
    **bit-identical** to the ``"numpy"`` backend — while the backend
    meters what the same evaluation would cost on an accelerator:
    :meth:`asarray` charges a host→device transfer, :meth:`to_host` a
    device→host one, and every ``xp`` call a kernel launch under
    :class:`DeviceModel`. CPU-only CI drives the complete dispatch seam of
    both simulators through this backend, so a raw ``np.`` call sneaking
    back into the compiled engine or the bucket contraction shows up as
    missing kernels/transfers long before real hardware does.
    """

    name = "mock_gpu"

    def __init__(self) -> None:
        self.model = DeviceModel()
        self._xp = _InstrumentedNamespace(self)
        self.kernels = 0
        self.elements = 0.0
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.device_seconds = 0.0

    @property
    def xp(self):
        return self._xp

    def _charge_kernel(self, name: str, result) -> None:
        elements = float(getattr(result, "size", 1) or 1)
        self.kernels += 1
        self.elements += elements
        self.device_seconds += self.model.kernel_seconds(elements)

    def asarray(self, a, dtype=None):
        out = np.asarray(a, dtype=dtype)
        self.bytes_to_device += out.nbytes
        self.device_seconds += self.model.transfer_seconds(out.nbytes)
        return out

    def to_host(self, a) -> np.ndarray:
        out = np.asarray(a)
        self.bytes_to_host += out.nbytes
        self.device_seconds += self.model.transfer_seconds(out.nbytes)
        return out

    def stats(self) -> dict[str, float]:
        return {
            "kernels": float(self.kernels),
            "elements": self.elements,
            "bytes_to_device": float(self.bytes_to_device),
            "bytes_to_host": float(self.bytes_to_host),
            "device_seconds": self.device_seconds,
        }


class CupyArrayBackend(ArrayBackend):
    """CuPy on a real CUDA device.

    Only registered when :mod:`cupy` is importable (see module bottom);
    constructing it without CuPy raises the underlying ``ImportError``.
    The engine's arrays live on the device end to end — one upload of the
    program constants plus the parameter batch in, one download of the
    per-point energies out.
    """

    name = "cupy"

    def __init__(self) -> None:
        import cupy  # deferred: only importable on CUDA-capable installs

        self._cupy = cupy

    @property
    def xp(self):
        return self._cupy

    def asarray(self, a, dtype=None):
        return self._cupy.asarray(a, dtype=dtype)

    def to_host(self, a) -> np.ndarray:
        return self._cupy.asnumpy(a)

    def synchronize(self) -> None:
        self._cupy.cuda.get_current_stream().synchronize()


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], ArrayBackend]] = {}


def register_array_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (later wins).

    This is the drop-in point the ROADMAP's GPU item describes: a new
    device library (torch, jax, dpnp, ...) implements
    :class:`ArrayBackend` and registers here; everything above — the
    evaluator, the cache fingerprint, the CLI flag — picks it up by name.
    """
    _REGISTRY[name] = factory


def available_array_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_array_backend`, registration order."""
    return tuple(_REGISTRY)


def get_array_backend(backend: str | ArrayBackend) -> ArrayBackend:
    """Resolve a backend name (or pass an instance through).

    Each call constructs a fresh instance, so stateful backends (the mock
    GPU's counters) never leak accounting across programs.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    factory = _REGISTRY.get(backend)
    if factory is None:
        options = ", ".join(available_array_backends())
        raise ValueError(
            f"unknown array backend {backend!r}; options: {options}"
        )
    return factory()


register_array_backend("numpy", NumpyArrayBackend)
register_array_backend("mock_gpu", MockGPUArrayBackend)
if importlib.util.find_spec("cupy") is not None:  # pragma: no cover - GPU box
    register_array_backend("cupy", CupyArrayBackend)
