"""The built-in workload encodings, oracles, and datasets.

The load-bearing invariant for every workload is the *encoding contract*:
the registered cost layer must implement ``e^{-i gamma C}`` (up to global
phase) for the same diagonal ``C`` that ``objective_values`` tabulates.
When those two agree, the compiled engine, the energy evaluator, and the
classical oracle can never disagree about what problem is being solved.
"""

import hashlib

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.graphs.generators import Graph, path_graph
from repro.simulators.expectation import bit_table, cut_values
from repro.simulators.statevector import simulate
from repro.workloads import available_workloads, clause_signs, get_workload

GAMMA = 0.37


def _workload_graph(key: str, seed: int = 11) -> Graph:
    """A 6-node instance drawn from the workload's own dataset family."""
    return get_workload(key).dataset(seed + 1, num_nodes=6, dataset_seed=seed)[seed]


def _uniform_plus_cost(key: str, graph: Graph, gamma: float) -> np.ndarray:
    circuit = QuantumCircuit(graph.num_nodes)
    for q in range(graph.num_nodes):
        circuit.h(q)
    get_workload(key).append_cost_layer(circuit, graph, gamma)
    return simulate(circuit)


class TestEncodingContract:
    """cost layer == e^{-i gamma C} for the tabulated C, all workloads."""

    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_cost_layer_realizes_the_objective_diagonal(self, key):
        graph = _workload_graph(key)
        table = get_workload(key).objective_values(graph)
        state = _uniform_plus_cost(key, graph, GAMMA)
        # undo the e^{-i gamma C} phases; a correct encoding leaves the
        # uniform superposition times one global phase
        unwound = state * np.exp(1j * GAMMA * table)
        reference = unwound[0]
        assert abs(reference) == pytest.approx(2 ** (-graph.num_nodes / 2), abs=1e-12)
        np.testing.assert_allclose(unwound, reference, atol=1e-12)

    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_zero_gamma_is_identity(self, key):
        graph = _workload_graph(key)
        state = _uniform_plus_cost(key, graph, 0.0)
        np.testing.assert_allclose(
            state, np.full(2**graph.num_nodes, 2 ** (-graph.num_nodes / 2)), atol=1e-12
        )


class TestClassicalOracles:
    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_optimum_is_the_table_maximum(self, key):
        problem = get_workload(key)
        graph = _workload_graph(key)
        assert problem.classical_optimum(graph) == float(
            np.max(problem.objective_values(graph))
        )

    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_brute_force_guard_on_wide_graphs(self, key):
        wide = path_graph(30)
        with pytest.raises(ValueError, match="brute force|intractable"):
            get_workload(key).classical_optimum(wide)


class TestMaxCutTables:
    def test_maxcut_table_is_the_memoized_cut_values(self, small_er_graph):
        # identity, not equality: the registry path must not copy, so the
        # compiled engine keeps sharing the per-graph memo
        assert get_workload("maxcut").objective_values(small_er_graph) is cut_values(
            small_er_graph
        )

    def test_wmaxcut_matches_naive_weighted_cut(self):
        graph = _workload_graph("wmaxcut")
        table = get_workload("wmaxcut").objective_values(graph)
        bits = bit_table(graph.num_nodes)
        for idx in (0, 7, 23, 41, 63):
            naive = sum(
                w
                for (u, v), w in zip(graph.edges, graph.weights)
                if bits[idx, u] != bits[idx, v]
            )
            assert table[idx] == pytest.approx(naive, abs=1e-12)


class TestMaxSat:
    def test_table_matches_naive_clause_count(self):
        graph = _workload_graph("maxsat")
        table = get_workload("maxsat").objective_values(graph)
        bits = bit_table(graph.num_nodes)
        for idx in (0, 5, 17, 38, 63):
            naive = 0.0
            for (u, v), w in zip(graph.edges, graph.weights):
                s_u, s_v = clause_signs(u, v)
                lit_u = bool(bits[idx, u]) if s_u > 0 else not bits[idx, u]
                lit_v = bool(bits[idx, v]) if s_v > 0 else not bits[idx, v]
                if lit_u or lit_v:
                    naive += w
            assert table[idx] == pytest.approx(naive, abs=1e-12)

    def test_clause_signs_are_stable_pure_functions(self):
        assert clause_signs(0, 1) == clause_signs(0, 1)
        assert all(s in (-1, 1) for s in clause_signs(3, 4))
        # both polarities occur across edges (otherwise it degenerates)
        signs = {clause_signs(u, v) for u in range(8) for v in range(u + 1, 8)}
        assert len(signs) > 1

    def test_rejects_nonpositive_clause_weights(self):
        bad = Graph(3, ((0, 1), (1, 2)), (1.0, -0.5))
        with pytest.raises(ValueError, match="positive"):
            get_workload("maxsat").validate_instance(bad)

    def test_table_is_read_only(self):
        table = get_workload("maxsat").objective_values(_workload_graph("maxsat"))
        with pytest.raises(ValueError):
            table[0] = 99.0


class TestIsing:
    def test_table_matches_naive_spin_sum(self):
        graph = _workload_graph("ising")
        table = get_workload("ising").objective_values(graph)
        bits = bit_table(graph.num_nodes)
        for idx in (0, 9, 33, 52, 63):
            z = 1 - 2 * bits[idx]
            naive = -sum(
                w * z[u] * z[v] for (u, v), w in zip(graph.edges, graph.weights)
            )
            assert table[idx] == pytest.approx(naive, abs=1e-12)

    def test_signed_couplings_give_signed_objectives(self):
        table = get_workload("ising").objective_values(_workload_graph("ising"))
        assert table.min() < 0 < table.max()

    def test_spin_flip_symmetry(self):
        # z -> -z leaves every two-body term invariant: table[x] == table[~x]
        graph = _workload_graph("ising")
        table = get_workload("ising").objective_values(graph)
        flipped = 2**graph.num_nodes - 1 - np.arange(2**graph.num_nodes)
        np.testing.assert_allclose(table, table[flipped], atol=1e-12)


class TestDatasets:
    @pytest.mark.parametrize(
        ("key", "digest"),
        [
            ("ising", "317025f0232440f7"),
            ("maxcut", "f4424549d09cb8e9"),
            ("maxsat", "0df0ec263c32cf86"),
            ("wmaxcut", "130700939cf6f902"),
        ],
    )
    def test_dataset_keeps_its_instances(self, key, digest):
        """A workload's instances are its family's factory's, pinned bit for
        bit: a drift changes every cached fingerprint and published ratio."""
        graphs = get_workload(key).dataset(3, num_nodes=6, dataset_seed=7)
        text = repr([
            (g.num_nodes, tuple(g.edges), tuple(float.hex(float(w)) for w in g.weights))
            for g in graphs
        ])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_dataset_is_deterministic(self, key):
        problem = get_workload(key)
        first = problem.dataset(3, dataset_seed=7)
        again = problem.dataset(3, dataset_seed=7)
        assert [g.edges for g in first] == [g.edges for g in again]
        assert [g.weights for g in first] == [g.weights for g in again]

    def test_wmaxcut_reweights_the_er_topologies(self):
        plain = get_workload("maxcut").dataset(3, dataset_seed=7)
        weighted = get_workload("wmaxcut").dataset(3, dataset_seed=7)
        assert [g.edges for g in plain] == [g.edges for g in weighted]
        assert any(
            w != 1.0 for graph in weighted for w in graph.weights
        )
        assert all(
            0.25 <= w <= 1.75 for graph in weighted for w in graph.weights
        )

    def test_maxsat_weights_are_positive(self):
        for graph in get_workload("maxsat").dataset(3, dataset_seed=7):
            assert all(0.5 <= w <= 1.5 for w in graph.weights)

    def test_ising_couplings_mix_signs(self):
        weights = [
            w
            for graph in get_workload("ising").dataset(4, dataset_seed=7)
            for w in graph.weights
        ]
        assert min(weights) < 0 < max(weights)
        assert all(-1.0 <= w <= 1.0 for w in weights)
