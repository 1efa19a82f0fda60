"""CircuitDag wiring and layering."""

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag


class TestWiring:
    def test_wire_neighbours(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).x(1)
        dag = CircuitDag(qc)
        assert dag.nodes[1].preds == {0: 0, 1: None}  # h before cx on wire 0
        assert dag.nodes[2].preds == {1: 1}  # cx before x on wire 1

    def test_boundary_nodes(self):
        dag = CircuitDag(QuantumCircuit(1).h(0))
        assert dag.nodes[0].preds == {0: None}

    def test_len(self):
        assert len(CircuitDag(QuantumCircuit(2).h(0).h(1))) == 2


class TestLayers:
    def test_parallel_single_layer(self):
        dag = CircuitDag(QuantumCircuit(3).h(0).h(1).h(2))
        layers = dag.layers()
        assert len(layers) == 1
        assert len(layers[0]) == 3

    def test_layers_match_depth(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).x(0)
        assert len(CircuitDag(qc).layers()) == qc.depth()

    def test_independent_gates_share_layer(self):
        qc = QuantumCircuit(4).cx(0, 1).cx(2, 3)
        layers = CircuitDag(qc).layers()
        assert len(layers) == 1

    def test_empty_circuit(self):
        assert CircuitDag(QuantumCircuit(2)).layers() == []


class TestRebuild:
    def test_topological_order_is_program_order(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).x(1)
        assert [n.index for n in CircuitDag(qc).nodes] == [0, 1, 2]
