"""Directed-acyclic-graph view of a circuit.

The DAG exposes the *dependency* structure a gate list hides: two gates on
disjoint qubits commute trivially and sit in parallel layers — the columns
``repro draw`` prints (:mod:`repro.circuits.visualization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import Instruction, QuantumCircuit

__all__ = ["DagNode", "CircuitDag"]


@dataclass
class DagNode:
    """One gate occurrence in the DAG."""

    index: int
    instruction: Instruction
    #: per-qubit predecessor node indices (None at wire input)
    preds: dict[int, int | None] = field(default_factory=dict)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.instruction.qubits

    @property
    def gate_name(self) -> str:
        return self.instruction.gate.name


class CircuitDag:
    """Wire-linked DAG built in one pass over the instruction list."""

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.num_qubits = circuit.num_qubits
        self.nodes: list[DagNode] = []
        #: last node index seen on each wire while building
        last_on_wire: dict[int, int] = {}
        for idx, instr in enumerate(circuit.instructions):
            node = DagNode(idx, instr)
            for q in instr.qubits:
                node.preds[q] = last_on_wire.get(q)
                last_on_wire[q] = idx
            self.nodes.append(node)

    def layers(self) -> list[list[DagNode]]:
        """Greedy ASAP layering: gates whose predecessors all sit in earlier
        layers. Layer count equals circuit depth."""
        depth_of: dict[int, int] = {}
        layers: list[list[DagNode]] = []
        for node in self.nodes:
            level = 0
            for q in node.qubits:
                prev = node.preds[q]
                if prev is not None:
                    level = max(level, depth_of[prev] + 1)
            depth_of[node.index] = level
            while len(layers) <= level:
                layers.append([])
            layers[level].append(node)
        return layers

    def __len__(self) -> int:
        return len(self.nodes)
