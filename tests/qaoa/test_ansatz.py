"""QAOA ansatz construction (Eq. 2) and mixer layers."""

import numpy as np
import pytest

from repro.circuits.parameters import Parameter
from repro.graphs.generators import Graph, cycle_graph, path_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.cost_operator import cost_layer
from repro.qaoa.mixers import append_mixer_layer, baseline_mixer, mixer_label, mixer_layer
from repro.simulators.statevector import plus_state, simulate


class TestCostLayer:
    def test_one_rzz_per_edge(self):
        g = cycle_graph(5)
        layer = cost_layer(g, 0.3)
        assert layer.count_ops() == {"rzz": 5}

    def test_weights_scale_angles(self):
        g = Graph(2, ((0, 1),), (2.0,))
        layer = cost_layer(g, Parameter("gamma"))
        gamma = next(iter(layer.parameters))
        bound = layer.bind_parameters({gamma: 0.5})
        assert bound.instructions[0].gate.params[0] == pytest.approx(-1.0)

    def test_diagonal_phase_only(self):
        """Cost layer acts diagonally: |+>^n probabilities unchanged."""
        g = cycle_graph(4)
        psi = simulate(cost_layer(g, 0.7), plus_state(4))
        np.testing.assert_allclose(np.abs(psi) ** 2, np.full(16, 1 / 16), atol=1e-12)


class TestMixerLayers:
    def test_baseline_is_rx_on_all(self):
        m = baseline_mixer(4, Parameter("beta"))
        assert m.count_ops() == {"rx": 4}

    def test_shared_parameter(self):
        beta = Parameter("beta")
        m = mixer_layer(5, ("rx", "ry"), beta)
        assert m.parameters == frozenset({beta})

    def test_angle_is_two_beta(self):
        beta = Parameter("beta")
        m = mixer_layer(2, ("ry",), beta)
        bound = m.bind_parameters({beta: 0.4})
        assert bound.instructions[0].gate.params[0] == pytest.approx(0.8)

    def test_h_token_has_no_parameter(self):
        m = mixer_layer(3, ("h",), Parameter("beta"))
        assert not m.parameters

    def test_gate_major_ordering(self):
        """Fig. 6 layout: all RX first, then all RY."""
        m = mixer_layer(3, ("rx", "ry"), Parameter("b"))
        names = [i.gate.name for i in m]
        assert names == ["rx", "rx", "rx", "ry", "ry", "ry"]

    def test_entangler_ring(self):
        m = mixer_layer(4, ("cz_ring",), Parameter("b"))
        assert m.count_ops() == {"cz": 4}
        pairs = {tuple(sorted(i.qubits)) for i in m}
        assert (0, 1) in pairs and (0, 3) in pairs

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown mixer token"):
            mixer_layer(2, ("warp",), Parameter("b"))

    def test_mixer_label_format(self):
        assert mixer_label(("rx", "ry")) == "('rx', 'ry')"

    def test_qubit_subset(self):
        from repro.circuits.circuit import QuantumCircuit

        qc = QuantumCircuit(4)
        append_mixer_layer(qc, ("rx",), Parameter("b"), qubits=[1, 3])
        assert {i.qubits[0] for i in qc} == {1, 3}


class TestAnsatz:
    def test_parameter_count_is_2p(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 3)
        assert ansatz.num_parameters == 6
        assert ansatz.p == 3

    def test_parameter_order_gammas_then_betas(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 2)
        names = [p.name for p in ansatz.parameters]
        assert names == ["gamma_0", "gamma_1", "beta_0", "beta_1"]

    def test_layer_structure(self):
        g = path_graph(3)
        ansatz = build_qaoa_ansatz(g, 2, ("rx",))
        ops = ansatz.circuit.count_ops()
        assert ops["h"] == 3  # initial layer
        assert ops["rzz"] == 2 * g.num_edges
        assert ops["rx"] == 2 * 3

    def test_no_initial_hadamard_option(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 1, initial_hadamard=False)
        assert "h" not in ansatz.circuit.count_ops()
        assert ansatz.initial_state_label == "+"

    def test_hadamard_and_plus_start_equivalent(self):
        g = cycle_graph(4)
        x = [0.4, -0.3]
        with_h = build_qaoa_ansatz(g, 1)
        without = build_qaoa_ansatz(g, 1, initial_hadamard=False)
        psi_h = simulate(with_h.bind(x))
        psi_plus = simulate(without.bind(x), plus_state(4))
        np.testing.assert_allclose(psi_h, psi_plus, atol=1e-12)

    def test_bind_length_validated(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 2)
        with pytest.raises(ValueError, match="expected 4"):
            ansatz.bind([0.1, 0.2, 0.3])

    def test_bind_produces_concrete_circuit(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 1, ("rx", "ry"))
        bound = ansatz.bind([0.5, 0.25])
        assert not bound.parameters

    def test_zero_parameters_give_plus_state(self):
        """gamma = beta = 0: the ansatz is the identity on |+>^n."""
        g = cycle_graph(5)
        ansatz = build_qaoa_ansatz(g, 2)
        psi = simulate(ansatz.bind([0, 0, 0, 0]))
        np.testing.assert_allclose(np.abs(psi), np.abs(plus_state(5)), atol=1e-12)

    def test_depth_one_rejected_p_zero(self):
        with pytest.raises(ValueError):
            build_qaoa_ansatz(cycle_graph(4), 0)

    def test_mixer_tokens_recorded(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 1, ("ry", "p"))
        assert ansatz.mixer_tokens == ("ry", "p")


class TestLazyCircuit:
    """The symbolic circuit is built when something reads it — never on
    the compiled serving path — and is the circuit it always was."""

    def test_build_validates_eagerly_without_building(self):
        ansatz = build_qaoa_ansatz(cycle_graph(4), 2, ("rx", "ry"))
        assert "circuit" not in vars(ansatz)
        assert ansatz.circuit is ansatz.circuit
        with pytest.raises(ValueError, match="unknown mixer token 'warp'"):
            build_qaoa_ansatz(cycle_graph(4), 1, ("rx", "warp"))
        with pytest.raises(ValueError, match="p must be"):
            build_qaoa_ansatz(cycle_graph(4), 0)
        with pytest.raises(ValueError, match="unknown workload"):
            build_qaoa_ansatz(cycle_graph(4), 1, workload="nope")
        negative = Graph(2, ((0, 1),), (-1.0,))
        with pytest.raises(ValueError, match="clause weights must be positive"):
            build_qaoa_ansatz(negative, 1, workload="maxsat")

    def test_compiled_candidate_never_builds_a_circuit(self, monkeypatch):
        from repro.circuits.circuit import QuantumCircuit
        from repro.core.evaluator import EvaluationConfig, evaluate_candidate
        from repro.core.qbuilder import QBuilder

        graphs = [cycle_graph(5), path_graph(5)]
        config = EvaluationConfig(optimizer="spsa", max_steps=6, metric="best_sampled")
        warm = evaluate_candidate(graphs, ("rz", "rx"), 2, config)  # fills the layer memos

        built = []
        build_qaoa = QBuilder.build_qaoa
        monkeypatch.setattr(
            QBuilder,
            "build_qaoa",
            lambda self, *args, **kwargs: built.append(build_qaoa(self, *args, **kwargs))
            or built[-1],
        )

        def no_gates(self, gate, qubits):
            raise AssertionError("the compiled path appended a gate to a circuit")

        monkeypatch.setattr(QuantumCircuit, "append", no_gates)
        again = evaluate_candidate(graphs, ("rz", "rx"), 2, config)
        assert len(built) == len(graphs)
        assert all("circuit" not in vars(ansatz) for ansatz in built)
        assert again.per_graph_energy == warm.per_graph_energy

    def test_gate_level_readers_see_the_same_circuit_as_ever(self, capsys):
        from repro.circuits.qasm import to_qasm
        from repro.cli import main
        from repro.qaoa.energy import AnsatzEnergy

        graph = Graph(3, ((0, 1), (1, 2)), (1.0, 0.5))
        ansatz = build_qaoa_ansatz(graph, 2, ("rz", "rx"), workload="maxsat")
        x = [0.1, 0.2, 0.3, 0.4]
        assert ansatz.circuit.name == "qaoa_p2_('rz', 'rx')"
        qasm = to_qasm(ansatz.bind(x)).splitlines()
        assert len(qasm) == 3 + 3 + 2 * (6 + 6)
        assert qasm[3:10] == [
            "h q[0];",
            "h q[1];",
            "h q[2];",
            "rz(-0.050000000000000003) q[0];",
            "rz(-0.050000000000000003) q[1];",
            "rzz(-0.050000000000000003) q[0],q[1];",
            "rz(0.025000000000000001) q[1];",
        ]
        assert qasm[-4:] == [
            "rz(0.80000000000000004) q[2];",
            "rx(0.80000000000000004) q[0];",
            "rx(0.80000000000000004) q[1];",
            "rx(0.80000000000000004) q[2];",
        ]
        dense = AnsatzEnergy(ansatz, engine="statevector")
        fresh = build_qaoa_ansatz(graph, 2, ("rz", "rx"), workload="maxsat")
        assert dense.value(x) == pytest.approx(
            AnsatzEnergy(fresh, engine="compiled").value(x), abs=1e-12
        )
        assert "circuit" not in vars(fresh)
        assert main(["draw", "rz,cx_ring", "--qubits", "3"]) == 0
        assert capsys.readouterr().out == (
            "q0: ──RZ(2*beta)──●─────⊕──\n"
            "q1: ──RZ(2*beta)──⊕──●──│──\n"
            "q2: ──RZ(2*beta)─────⊕──●──\n"
        )
