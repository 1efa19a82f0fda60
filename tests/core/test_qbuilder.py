"""QBuilder: token tuples -> circuits."""

import pytest

from repro.core.qbuilder import QBuilder
from repro.graphs.generators import cycle_graph


@pytest.fixture
def builder():
    return QBuilder()


@pytest.fixture
def graph():
    return cycle_graph(5)


class TestBuildMixer:
    """Algorithm 1's ``BUILD_MIXER_CKT``, through the one build call."""

    def test_mixer_spans_graph_nodes(self, builder, graph):
        circuit = builder.build_qaoa(graph, ("rx", "ry"), 1).circuit
        assert circuit.num_qubits == graph.num_nodes
        counts = circuit.count_ops()
        assert (counts["rx"], counts["ry"]) == (5, 5)

    def test_shared_fresh_beta(self, builder, graph):
        ansatz = builder.build_qaoa(graph, ("rx", "ry"), 1)
        (beta,) = ansatz.betas
        mixer_gates = [i.gate for i in ansatz.circuit if i.gate.name in ("rx", "ry")]
        assert len(mixer_gates) == 10
        assert all(gate.parameters == frozenset({beta}) for gate in mixer_gates)

    def test_empty_sequence_rejected(self, builder, graph):
        with pytest.raises(ValueError, match="empty"):
            builder.build_qaoa(graph, (), 1)

    def test_foreign_token_rejected(self, builder, graph):
        with pytest.raises(KeyError):
            builder.build_qaoa(graph, ("rx", "cx"), 1)


class TestBuildQaoa:
    def test_full_ansatz(self, builder, graph):
        ansatz = builder.build_qaoa(graph, ("rx",), p=2)
        assert ansatz.p == 2
        assert ansatz.num_parameters == 4
        assert ansatz.graph == graph

    def test_hadamard_column_prepended(self, builder, graph):
        with_h = builder.build_qaoa(graph, ("rx",), 1)
        assert with_h.circuit.count_ops()["h"] == graph.num_nodes

