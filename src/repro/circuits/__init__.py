"""From-scratch quantum circuit library (the Qiskit substitute).

Public surface:

* :class:`~repro.circuits.circuit.QuantumCircuit` — the circuit container
  with fluent gate appenders.
* :class:`~repro.circuits.parameters.Parameter` — symbolic angles; linear
  expressions like ``2 * beta`` are first-class.
* :func:`~repro.circuits.gates.make_gate` / :data:`GATE_REGISTRY` — gate
  specs with exact matrices.
* :class:`~repro.circuits.dag.CircuitDag`, ASCII drawing and OpenQASM 2
  round-tripping.
"""

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.dag import CircuitDag, DagNode
from repro.circuits.gates import GATE_REGISTRY, Gate, GateSpec, make_gate
from repro.circuits.parameters import Parameter, ParameterExpression, bind_value
from repro.circuits.qasm import QasmError, from_qasm, to_qasm
from repro.circuits.visualization import draw_circuit

__all__ = [
    "QuantumCircuit",
    "Instruction",
    "CircuitDag",
    "DagNode",
    "Gate",
    "GateSpec",
    "GATE_REGISTRY",
    "make_gate",
    "Parameter",
    "ParameterExpression",
    "bind_value",
    "to_qasm",
    "from_qasm",
    "QasmError",
    "draw_circuit",
]
