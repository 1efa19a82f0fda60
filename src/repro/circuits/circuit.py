"""The quantum circuit container.

A :class:`QuantumCircuit` is an ordered list of instructions (gate + qubit
tuple) on a fixed-width register. It deliberately mirrors the slice of
Qiskit's API that QArchSearch's QBuilder uses — ``rx/ry/rz/h/p`` appenders,
composition, parameter binding — plus the structural queries (depth, gate
counts, two-qubit interaction graph) that the tensor-network converter
needs.

Qubit ordering convention (shared with the simulators): qubit ``k`` is bit
``k`` of the computational-basis index, i.e. little-endian, qubit 0 is the
least-significant bit.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.circuits.gates import Gate, make_gate
from repro.circuits.parameters import Parameter, ParameterValue
from repro.utils.validation import check_positive, check_qubit_index

__all__ = ["Instruction", "QuantumCircuit"]


@dataclass(frozen=True)
class Instruction:
    """One gate application: which gate, on which qubits (in gate order)."""

    gate: Gate
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate '{self.gate.name}' acts on {self.gate.num_qubits} qubit(s), "
                f"got qubits {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.qubits}")

    def __repr__(self) -> str:
        qubits = ", ".join(str(q) for q in self.qubits)
        return f"{self.gate!r} @ ({qubits})"


class QuantumCircuit:
    """An ordered gate list on ``num_qubits`` qubits.

    Mutating methods return ``self`` so construction chains fluently::

        qc = QuantumCircuit(3).h(0).cx(0, 1).rx(theta, 2)
    """

    def __init__(self, num_qubits: int, *, name: str = "circuit") -> None:
        self._num_qubits = check_positive(num_qubits, "num_qubits")
        self._instructions: list[Instruction] = []
        self.name = name

    # -- core mutation ------------------------------------------------------

    def append(self, gate: Gate, qubits: Sequence[int]) -> QuantumCircuit:
        """Append ``gate`` acting on ``qubits`` (validated)."""
        qubits = tuple(check_qubit_index(q, self._num_qubits) for q in qubits)
        self._instructions.append(Instruction(gate, qubits))
        return self

    def append_named(
        self, name: str, qubits: Sequence[int], *params: ParameterValue
    ) -> QuantumCircuit:
        """Append a registry gate by name — used by the QBuilder."""
        return self.append(make_gate(name, *params), qubits)

    # -- gate sugar ----------------------------------------------------------

    def id(self, q: int) -> QuantumCircuit:
        return self.append_named("id", [q])

    def x(self, q: int) -> QuantumCircuit:
        return self.append_named("x", [q])

    def y(self, q: int) -> QuantumCircuit:
        return self.append_named("y", [q])

    def z(self, q: int) -> QuantumCircuit:
        return self.append_named("z", [q])

    def h(self, q: int) -> QuantumCircuit:
        return self.append_named("h", [q])

    def s(self, q: int) -> QuantumCircuit:
        return self.append_named("s", [q])

    def sdg(self, q: int) -> QuantumCircuit:
        return self.append_named("sdg", [q])

    def t(self, q: int) -> QuantumCircuit:
        return self.append_named("t", [q])

    def tdg(self, q: int) -> QuantumCircuit:
        return self.append_named("tdg", [q])

    def rx(self, theta: ParameterValue, q: int) -> QuantumCircuit:
        return self.append_named("rx", [q], theta)

    def ry(self, theta: ParameterValue, q: int) -> QuantumCircuit:
        return self.append_named("ry", [q], theta)

    def rz(self, theta: ParameterValue, q: int) -> QuantumCircuit:
        return self.append_named("rz", [q], theta)

    def p(self, lam: ParameterValue, q: int) -> QuantumCircuit:
        return self.append_named("p", [q], lam)

    def u3(
        self, theta: ParameterValue, phi: ParameterValue, lam: ParameterValue, q: int
    ) -> QuantumCircuit:
        return self.append_named("u3", [q], theta, phi, lam)

    def cx(self, control: int, target: int) -> QuantumCircuit:
        return self.append_named("cx", [control, target])

    def cz(self, q0: int, q1: int) -> QuantumCircuit:
        return self.append_named("cz", [q0, q1])

    def cp(self, lam: ParameterValue, q0: int, q1: int) -> QuantumCircuit:
        return self.append_named("cp", [q0, q1], lam)

    def rzz(self, theta: ParameterValue, q0: int, q1: int) -> QuantumCircuit:
        return self.append_named("rzz", [q0, q1], theta)

    def rxx(self, theta: ParameterValue, q0: int, q1: int) -> QuantumCircuit:
        return self.append_named("rxx", [q0, q1], theta)

    def swap(self, q0: int, q1: int) -> QuantumCircuit:
        return self.append_named("swap", [q0, q1])

    # -- structure ------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions)

    def size(self) -> int:
        """Total gate count."""
        return len(self._instructions)

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        level = [0] * self._num_qubits
        for instr in self._instructions:
            layer = 1 + max(level[q] for q in instr.qubits)
            for q in instr.qubits:
                level[q] = layer
        return max(level, default=0)

    def count_ops(self) -> dict[str, int]:
        """Gate-name histogram, sorted by count descending then name."""
        counts: dict[str, int] = {}
        for instr in self._instructions:
            counts[instr.gate.name] = counts.get(instr.gate.name, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    @property
    def parameters(self) -> frozenset:
        """All free symbolic parameters, as a frozenset of Parameter."""
        out: set = set()
        for instr in self._instructions:
            out |= instr.gate.parameters
        return frozenset(out)

    # -- transformation ---------------------------------------------------------

    def bind_parameters(self, bindings: Mapping[Parameter, float]) -> QuantumCircuit:
        """A new circuit with parameters substituted (partial binding allowed)."""
        out = QuantumCircuit(self._num_qubits, name=self.name)
        for instr in self._instructions:
            out.append(instr.gate.bind(bindings), instr.qubits)
        return out

    def compose(self, other: QuantumCircuit) -> QuantumCircuit:
        """A new circuit running ``self`` then ``other`` (same width)."""
        if other.num_qubits != self._num_qubits:
            raise ValueError(
                f"cannot compose {self._num_qubits}-qubit circuit with "
                f"{other.num_qubits}-qubit circuit"
            )
        out = self.copy()
        for instr in other.instructions:
            out.append(instr.gate, instr.qubits)
        return out

    def repeat(self, reps: int) -> QuantumCircuit:
        """``self`` composed with itself ``reps`` times."""
        check_positive(reps, "reps", strict=False)
        out = QuantumCircuit(self._num_qubits, name=f"{self.name}^{reps}")
        for _ in range(reps):
            for instr in self._instructions:
                out.append(instr.gate, instr.qubits)
        return out

    def copy(self) -> QuantumCircuit:
        out = QuantumCircuit(self._num_qubits, name=self.name)
        out._instructions = list(self._instructions)
        return out

    # -- dunder -----------------------------------------------------------------

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:
        ops = ", ".join(f"{name}x{n}" for name, n in self.count_ops().items())
        return f"QuantumCircuit({self.name!r}, n={self._num_qubits}, {ops or 'empty'})"

    def draw(self) -> str:
        """ASCII rendering (delegates to :mod:`repro.circuits.visualization`)."""
        from repro.circuits.visualization import draw_circuit

        return draw_circuit(self)
