"""Directed-acyclic-graph view of a circuit.

The DAG exposes the *dependency* structure a gate list hides: two gates on
disjoint qubits commute trivially and sit in parallel layers — the columns
``repro draw`` prints (:mod:`repro.circuits.visualization`).
"""

from __future__ import annotations

from collections.abc import Sequence
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
    #: per-qubit successor node indices (None at wire output)
    succs: dict[int, int | None] = field(default_factory=dict)

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
                prev = last_on_wire.get(q)
                node.preds[q] = prev
                node.succs[q] = None
                if prev is not None:
                    self.nodes[prev].succs[q] = idx
                last_on_wire[q] = idx
            self.nodes.append(node)
        self._wire_outputs = last_on_wire

    # -- queries -------------------------------------------------------------

    def predecessor(self, node_index: int, qubit: int) -> DagNode | None:
        """The previous gate on ``qubit`` before ``node_index``, if any."""
        prev = self.nodes[node_index].preds.get(qubit)
        return None if prev is None else self.nodes[prev]

    def successor(self, node_index: int, qubit: int) -> DagNode | None:
        """The next gate on ``qubit`` after ``node_index``, if any."""
        nxt = self.nodes[node_index].succs.get(qubit)
        return None if nxt is None else self.nodes[nxt]

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

    def topological_order(self) -> list[DagNode]:
        """Nodes in dependency order (construction order is already one)."""
        return list(self.nodes)

    def to_circuit(self, skip: Sequence[int] = ()) -> QuantumCircuit:
        """Rebuild a circuit, optionally dropping the node indices in ``skip``."""
        drop = set(skip)
        out = QuantumCircuit(self.num_qubits)
        for node in self.nodes:
            if node.index not in drop:
                out.append(node.instruction.gate, node.instruction.qubits)
        return out

    def __len__(self) -> int:
        return len(self.nodes)
