"""QuantumCircuit container behaviour."""

import pytest

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.parameters import Parameter


class TestConstruction:
    def test_fluent_chaining(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).rz(0.5, 1)
        assert qc.size() == 3

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            QuantumCircuit(2).h(2)

    def test_negative_qubit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).h(-1)

    def test_duplicate_qubits_in_two_qubit_gate(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuantumCircuit(2).cx(1, 1)

    def test_append_named_unknown_gate(self):
        with pytest.raises(KeyError):
            QuantumCircuit(1).append_named("bogus", [0])

    def test_instruction_validates_arity(self):
        with pytest.raises(ValueError, match="acts on 2"):
            Instruction(make_gate("cx"), (0,))


class TestStructure:
    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(3).h(0).h(1).h(2)
        assert qc.depth() == 1

    def test_depth_serial_chain(self):
        qc = QuantumCircuit(1).h(0).x(0).h(0)
        assert qc.depth() == 3

    def test_depth_two_qubit_coupling(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        assert qc.depth() == 3

    def test_empty_depth(self):
        assert QuantumCircuit(4).depth() == 0

    def test_count_ops_sorted(self):
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        counts = qc.count_ops()
        assert counts == {"h": 2, "cx": 1}
        assert list(counts)[0] == "h"

    def test_len_and_iter(self):
        qc = QuantumCircuit(2).h(0).x(1)
        assert len(qc) == 2
        assert [i.gate.name for i in qc] == ["h", "x"]


class TestParameters:
    def test_parameters_collected(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(2).rx(a, 0).ry(2 * b, 1).rz(a + b, 0)
        assert qc.parameters == frozenset({a, b})

    def test_bind_full(self):
        a = Parameter("a")
        qc = QuantumCircuit(1).rx(2 * a, 0)
        bound = qc.bind_parameters({a: 0.5})
        assert not bound.parameters
        assert bound.instructions[0].gate.params[0] == 1.0

    def test_bind_partial(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(1).rx(a, 0).ry(b, 0)
        bound = qc.bind_parameters({a: 1.0})
        assert bound.parameters == frozenset({b})

    def test_bind_does_not_mutate_original(self):
        a = Parameter("a")
        qc = QuantumCircuit(1).rx(a, 0)
        qc.bind_parameters({a: 1.0})
        assert qc.parameters == frozenset({a})

    def test_shared_parameter_binds_everywhere(self):
        beta = Parameter("beta")
        qc = QuantumCircuit(3)
        for q in range(3):
            qc.rx(2 * beta, q)
        bound = qc.bind_parameters({beta: 0.25})
        angles = [i.gate.params[0] for i in bound.instructions]
        assert angles == [0.5, 0.5, 0.5]


class TestTransformation:
    def test_repeat(self):
        qc = QuantumCircuit(1).rx(0.1, 0).repeat(3)
        assert qc.size() == 3

    def test_repeat_zero(self):
        assert QuantumCircuit(1).h(0).repeat(0).size() == 0

    def test_copy_is_independent(self):
        qc = QuantumCircuit(1).h(0)
        clone = qc.copy()
        clone.x(0)
        assert qc.size() == 1 and clone.size() == 2

    def test_equality(self):
        a = QuantumCircuit(1).h(0)
        b = QuantumCircuit(1).h(0)
        assert a == b
        b.x(0)
        assert a != b

    def test_repr_contains_counts(self):
        assert "hx1" in repr(QuantumCircuit(1).h(0))
