"""QBuilder: encoded candidates -> circuits."""

import numpy as np
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.encoding import encode_sequence
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


class TestFromEncoding:
    def test_decode_and_build(self, builder, graph):
        enc = encode_sequence(("ry", "p"), GateAlphabet(), 4)
        ansatz = builder.from_encoding(enc, graph, p=1)
        assert ansatz.mixer_tokens == ("ry", "p")

    def test_matches_direct_build(self, builder, graph):
        enc = encode_sequence(("rx", "ry"), GateAlphabet(), 4)
        via_encoding = builder.from_encoding(enc, graph, p=1)
        direct = builder.build_qaoa(graph, ("rx", "ry"), 1)
        assert via_encoding.circuit.count_ops() == direct.circuit.count_ops()

    def test_invalid_encoding_rejected(self, builder, graph):
        with pytest.raises(ValueError):
            builder.from_encoding(np.ones((4, 6)), graph, p=1)

    def test_custom_alphabet(self, graph):
        alphabet = GateAlphabet(("ry", "h"))
        builder = QBuilder(alphabet)
        enc = encode_sequence(("h", "ry"), alphabet, 2)
        ansatz = builder.from_encoding(enc, graph, p=1)
        assert ansatz.mixer_tokens == ("h", "ry")
