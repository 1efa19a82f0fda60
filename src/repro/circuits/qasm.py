"""OpenQASM 2 export / import.

Discovered circuits need to leave the package — e.g. to be run on real
hardware toolchains — so the QBuilder output can be serialized to the
OpenQASM 2 subset covering our gate registry. The importer accepts exactly
what the exporter emits (plus whitespace/comments), which is enough for
round-tripping search results and for interop tests.

Symbolic parameters cannot be represented in QASM 2; circuits must be bound
before export, or templated over one parameter (:func:`qasm_template`).
"""

from __future__ import annotations

import math
import re

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY
from repro.circuits.parameters import Parameter, ParameterExpression, bind_value

__all__ = ["to_qasm", "from_qasm", "QasmError", "qasm_header", "qasm_template"]


class QasmError(ValueError):
    """Raised on malformed QASM input or unexportable circuits."""


#: gates we emit verbatim; everything else needs a definition block
_NATIVE = {"id", "x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "p", "cx", "cz", "cp", "rzz"}


#: how an angle is spelled: 17 significant digits round-trip every float
_ANGLE = "{:.17g}"
#: gate lines as a ``str.format`` text, and each slot's ``(offset, coeff)``
Template = tuple[str, tuple[tuple[float, float], ...]]


def qasm_header(num_qubits: int) -> str:
    """The text every export opens with: version, include, register."""
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{num_qubits}];\n'


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize a fully-bound circuit to OpenQASM 2 text."""
    return qasm_header(circuit.num_qubits) + qasm_template(circuit, None)[0]


def qasm_template(circuit: QuantumCircuit, parameter: Parameter | None) -> Template:
    """``circuit``'s gate lines with a ``{}`` slot for every angle over
    ``parameter`` (none for a bound circuit). Each slot filled with ``offset
    + coeff * value``, the arithmetic of :meth:`ParameterExpression.bind`,
    spells what :func:`to_qasm` writes for ``circuit`` bound at ``value``."""
    rows, slots = [], []
    for instr in circuit.instructions:
        name = instr.gate.name
        if name not in _NATIVE:
            raise QasmError(f"gate '{name}' has no QASM 2 spelling")
        spelled = []
        for value in instr.gate.params:
            terms = value.terms if isinstance(value, ParameterExpression) else {}
            if terms.keys() - {parameter}:
                names = sorted(p.name for p in terms if p is not parameter)
                raise QasmError(f"cannot export unbound parameters {names}; bind first")
            if terms:
                slots.append((value.offset, terms[parameter]))
                spelled.append(_ANGLE)
            else:
                spelled.append(_ANGLE.format(bind_value(value, {})))
        params = f"({','.join(spelled)})" if spelled else ""
        rows.append(f"{name}{params} {','.join(f'q[{q}]' for q in instr.qubits)};\n")
    return "".join(rows), tuple(slots)


_GATE_RE = re.compile(
    r"^(?P<name>[a-z][a-z0-9_]*)"
    r"(?:\((?P<params>[^)]*)\))?"
    r"\s+(?P<qubits>q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$"
)
_QREG_RE = re.compile(r"^qreg\s+q\[(?P<size>\d+)\]\s*;$")

_CONSTANTS = {"pi": math.pi}


def _eval_param(text: str) -> float:
    """Evaluate a QASM parameter expression (numbers, pi, + - * /)."""
    text = text.strip()
    if not re.fullmatch(r"[0-9pieE\.\+\-\*/\(\) ]+", text):
        raise QasmError(f"unsupported parameter expression: {text!r}")
    try:
        return float(eval(text, {"__builtins__": {}}, _CONSTANTS))  # noqa: S307
    except Exception as exc:  # pragma: no cover - defensive
        raise QasmError(f"cannot evaluate parameter {text!r}: {exc}") from exc


def from_qasm(text: str) -> QuantumCircuit:
    """Parse the QASM 2 subset emitted by :func:`to_qasm`."""
    circuit: QuantumCircuit | None = None
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        m = _QREG_RE.match(line)
        if m:
            if circuit is not None:
                raise QasmError("multiple qreg declarations")
            circuit = QuantumCircuit(int(m.group("size")))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise QasmError(f"cannot parse line: {raw_line!r}")
        if circuit is None:
            raise QasmError("gate before qreg declaration")
        name = m.group("name")
        if name not in GATE_REGISTRY:
            raise QasmError(f"unknown gate '{name}'")
        params: list[float] = []
        if m.group("params") is not None:
            params = [_eval_param(p) for p in m.group("params").split(",")]
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", m.group("qubits"))]
        circuit.append_named(name, qubits, *params)
    if circuit is None:
        raise QasmError("no qreg declaration found")
    return circuit
