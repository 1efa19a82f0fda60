"""Gate definitions with exact unitary matrices.

Each gate is a lightweight immutable description: a name, qubit count,
parameter slots, and a matrix factory. Matrices follow the standard physics
conventions used by Qiskit:

* ``RX(t) = exp(-i t X / 2)``, likewise RY/RZ,
* ``P(t) = diag(1, e^{it})`` (phase gate),
* two-qubit matrices are given in little-endian qubit order — for a gate on
  ``(q0, q1)`` the basis ordering is ``|q1 q0>`` — matching the simulator's
  axis convention (qubit ``k`` is tensor axis ``k`` counted from the left of
  the statevector reshape, see :mod:`repro.simulators.statevector`).

Diagonal gates are flagged (``is_diagonal``) because the tensor-network
layer exploits diagonality to avoid rank-4 tensors (Lykov & Alexeev 2021,
"Importance of Diagonal Gates in Tensor Network Simulations"). Every
diagonal gate additionally publishes its *phase generator* (``diag_phase``):
the pair of real vectors ``(h, g0)`` with

``diag(gate(theta)) = exp(1j * (theta * h + g0))``

(``theta`` is the single angle; ``h`` is all-zero for parameter-free
gates). The compiled statevector engine
(:mod:`repro.simulators.compiled`) fuses whole runs of diagonal gates —
the QAOA cost layer in particular — into a single elementwise multiply by
summing these generators, so the representation is load-bearing, not
documentation: :func:`_register` rejects diagonal specs that omit it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuits.parameters import Parameter, ParameterValue, bind_value

__all__ = [
    "DiagPhase",
    "GateSpec",
    "Gate",
    "GATE_REGISTRY",
    "make_gate",
    "I",
    "X",
    "Z",
    "T",
    "P",
]

_SQ2 = 1.0 / math.sqrt(2.0)


def _mat_i(_: Sequence[float]) -> np.ndarray:
    return np.eye(2, dtype=complex)


def _mat_x(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h(_: Sequence[float]) -> np.ndarray:
    return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


def _mat_s(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _mat_t(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def _mat_rx(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _mat_ry(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    return np.array(
        [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]], dtype=complex
    )


def _mat_p(params: Sequence[float]) -> np.ndarray:
    (lam,) = params
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


# Two-qubit matrices. Convention: for a gate applied to (q0, q1) the 4x4
# matrix acts on basis |q1 q0> (second listed qubit is the high bit). For CX
# the first listed qubit is the control.


def _mat_cx(_: Sequence[float]) -> np.ndarray:
    # control = q0 (low bit), target = q1 (high bit): |q1 q0> basis 00,01,10,11
    # 01 (q0=1) -> 11 ; 11 -> 01.
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def _mat_cz(_: Sequence[float]) -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def _mat_cp(params: Sequence[float]) -> np.ndarray:
    (lam,) = params
    return np.diag([1, 1, 1, cmath.exp(1j * lam)]).astype(complex)


def _mat_rzz(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    e_m = cmath.exp(-0.5j * theta)
    e_p = cmath.exp(0.5j * theta)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


#: phase generator of a diagonal gate: hashable ``(h, g0)`` float tuples of
#: length ``2**num_qubits`` with ``diag = exp(1j * (theta * h + g0))``
DiagPhase = tuple[tuple[float, ...], tuple[float, ...]]


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type."""

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[[Sequence[float]], np.ndarray]
    is_diagonal: bool = False
    #: the (h, g0) phase generator; required for (and only for) diagonal
    #: gates. Stored as plain tuples so the spec stays hashable.
    diag_phase: DiagPhase | None = None


GATE_REGISTRY: dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> GateSpec:
    if spec.is_diagonal != (spec.diag_phase is not None):
        raise ValueError(
            f"gate '{spec.name}': diag_phase must be given iff is_diagonal"
        )
    GATE_REGISTRY[spec.name] = spec
    return spec


_NO_PHASE_1Q = (0.0, 0.0)
_NO_PHASE_2Q = (0.0, 0.0, 0.0, 0.0)
_PI = math.pi


I = _register(  # noqa: E741 - the identity gate's conventional name
    GateSpec(
        "id", 1, 0, _mat_i, is_diagonal=True,
        diag_phase=(_NO_PHASE_1Q, (0.0, 0.0)),
    )
)
X = _register(GateSpec("x", 1, 0, _mat_x))
_register(GateSpec("y", 1, 0, _mat_y))
Z = _register(
    GateSpec(
        "z", 1, 0, _mat_z, is_diagonal=True,
        diag_phase=(_NO_PHASE_1Q, (0.0, _PI)),
    )
)
_register(GateSpec("h", 1, 0, _mat_h))
_register(
    GateSpec("s", 1, 0, _mat_s, is_diagonal=True, diag_phase=(_NO_PHASE_1Q, (0.0, _PI / 2)))
)
T = _register(
    GateSpec("t", 1, 0, _mat_t, is_diagonal=True, diag_phase=(_NO_PHASE_1Q, (0.0, _PI / 4)))
)
_register(GateSpec("rx", 1, 1, _mat_rx))
_register(GateSpec("ry", 1, 1, _mat_ry))
_register(
    GateSpec(
        "rz", 1, 1, _mat_rz, is_diagonal=True,
        diag_phase=((-0.5, 0.5), (0.0, 0.0)),
    )
)
P = _register(
    GateSpec(
        "p", 1, 1, _mat_p, is_diagonal=True,
        diag_phase=((0.0, 1.0), (0.0, 0.0)),
    )
)
_register(GateSpec("cx", 2, 0, _mat_cx))
_register(
    GateSpec(
        "cz", 2, 0, _mat_cz, is_diagonal=True,
        diag_phase=(_NO_PHASE_2Q, (0.0, 0.0, 0.0, _PI)),
    )
)
_register(
    GateSpec(
        "cp", 2, 1, _mat_cp, is_diagonal=True,
        diag_phase=((0.0, 0.0, 0.0, 1.0), _NO_PHASE_2Q),
    )
)
_register(
    GateSpec(
        "rzz", 2, 1, _mat_rzz, is_diagonal=True,
        diag_phase=((-0.5, 0.5, 0.5, -0.5), _NO_PHASE_2Q),
    )
)


@dataclass(frozen=True)
class Gate:
    """A gate instance: a spec plus (possibly symbolic) parameter values."""

    spec: GateSpec
    params: tuple[ParameterValue, ...] = ()

    def __post_init__(self) -> None:
        if len(self.params) != self.spec.num_params:
            raise ValueError(
                f"gate '{self.spec.name}' takes {self.spec.num_params} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_qubits(self) -> int:
        return self.spec.num_qubits

    @property
    def is_diagonal(self) -> bool:
        return self.spec.is_diagonal

    @property
    def parameters(self) -> frozenset:
        """Free symbolic parameters of this gate."""
        out: set = set()
        for p in self.params:
            if hasattr(p, "parameters"):
                out |= p.parameters
        return frozenset(out)

    def bind(self, bindings: Mapping[Parameter, float]) -> Gate:
        """Return a copy with (a subset of) parameters substituted."""
        new_params = []
        for p in self.params:
            if hasattr(p, "bind"):
                bound = p.bind(bindings)
                new_params.append(bound.constant_value() if bound.is_constant() else bound)
            else:
                new_params.append(p)
        return Gate(self.spec, tuple(new_params))

    def matrix(self, bindings: Mapping[Parameter, float] | None = None) -> np.ndarray:
        """Concrete unitary matrix; raises if parameters remain unbound."""
        values = [bind_value(p, bindings or {}) for p in self.params]
        return self.spec.matrix_fn(values)

    def __repr__(self) -> str:
        if not self.params:
            return self.spec.name
        inner = ", ".join(repr(p) for p in self.params)
        return f"{self.spec.name}({inner})"


def make_gate(name: str, *params: ParameterValue) -> Gate:
    """Construct a gate by registry name — the QBuilder entry point."""
    try:
        spec = GATE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(GATE_REGISTRY))
        raise KeyError(f"unknown gate '{name}'; known gates: {known}") from None
    return Gate(spec, tuple(params))
