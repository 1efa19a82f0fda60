"""OpenQASM 2 export / import.

Discovered circuits need to leave the package — e.g. to be run on real
hardware toolchains — so the QBuilder output can be serialized to the
OpenQASM 2 subset covering our gate registry. The importer accepts exactly
what the exporter emits (plus whitespace/comments), which is enough for
round-tripping search results and for interop tests.

Symbolic parameters cannot be represented in QASM 2; circuits must be bound
before export.
"""

from __future__ import annotations

import math
import re

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised on malformed QASM input or unexportable circuits."""


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

#: gates we emit verbatim; everything else needs a definition block
_NATIVE = {"id", "x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "p", "cx", "cz", "cp", "rzz"}


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize a fully-bound circuit to OpenQASM 2 text."""
    if circuit.parameters:
        names = sorted(p.name for p in circuit.parameters)
        raise QasmError(f"cannot export unbound parameters {names}; bind first")
    lines = [_HEADER.rstrip(), f"qreg q[{circuit.num_qubits}];"]
    for instr in circuit.instructions:
        name = instr.gate.name
        if name not in _NATIVE:
            raise QasmError(f"gate '{name}' has no QASM 2 spelling")
        qubits = ",".join(f"q[{q}]" for q in instr.qubits)
        if instr.gate.params:
            params = ",".join(f"{float(p):.17g}" for p in instr.gate.params)
            lines.append(f"{name}({params}) {qubits};")
        else:
            lines.append(f"{name} {qubits};")
    return "\n".join(lines) + "\n"


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
