"""ASCII circuit rendering.

Produces the textual equivalent of the paper's Fig. 6 circuit diagram::

    q0: ──RX(2*beta)──RY(2*beta)──
    q1: ──RX(2*beta)──RY(2*beta)──

Gates are packed into columns using the same ASAP layering as
:meth:`CircuitDag.layers`, so parallel gates share a column and the drawing
width equals circuit depth. Multi-qubit gates draw a vertical connector.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag

__all__ = ["draw_circuit", "gate_label"]


def gate_label(instr) -> str:
    """Short label like ``RX(2*beta)`` or ``H`` for one instruction."""
    name = instr.gate.name.upper()
    if not instr.gate.params:
        return name
    inner = ", ".join(repr(p) for p in instr.gate.params)
    return f"{name}({inner})"


def draw_circuit(circuit: QuantumCircuit) -> str:
    """Render ``circuit`` as an ASCII diagram, one row per qubit."""
    n = circuit.num_qubits
    if circuit.size() == 0:
        return "\n".join(f"q{q}: ──" for q in range(n))

    layers = CircuitDag(circuit).layers()
    # Build the cell grid: cells[q][layer] = text or connector marker.
    cells: list[list[str]] = [["" for _ in layers] for _ in range(n)]
    spans: list[list[bool]] = [[False for _ in layers] for _ in range(n)]
    for col, layer in enumerate(layers):
        for node in layer:
            qs = node.qubits
            label = gate_label(node.instruction)
            if len(qs) == 1:
                cells[qs[0]][col] = label
            else:
                lo, hi = min(qs), max(qs)
                if node.gate_name == "cx":
                    # control dot on first listed qubit, ⊕ target on second
                    control, target = qs
                    cells[control][col] = "●"
                    cells[target][col] = "⊕"
                else:
                    cells[lo][col] = label
                    cells[hi][col] = "●"
                for q in range(lo + 1, hi):
                    spans[q][col] = True

    widths = [
        max(
            max((len(cells[q][col]) for q in range(n)), default=0),
            1,
        )
        for col in range(len(layers))
    ]

    prefix_len = len(f"q{n - 1}: ")
    lines = []
    for q in range(n):
        parts = [f"q{q}: ".ljust(prefix_len)]
        for col, width in enumerate(widths):
            text = cells[q][col]
            if text:
                pad = width - len(text)
                body = "─" * (pad // 2) + text + "─" * (pad - pad // 2)
            elif spans[q][col]:
                body = "│".center(width, "─").replace(" ", "─")
            else:
                body = "─" * width
            parts.append("──" + body)
        parts.append("──")
        lines.append("".join(parts))
    return "\n".join(lines)
