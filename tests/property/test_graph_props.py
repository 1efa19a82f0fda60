"""Property-based tests: graphs, max-cut, and QAOA energy bounds."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import Graph, erdos_renyi_graph, random_regular_graph
from repro.qaoa.analytic import maxcut_energy_p1
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.maxcut import brute_force_maxcut, cut_value, greedy_maxcut
from repro.simulators.expectation import cut_values


@st.composite
def graphs(draw, max_nodes=8):
    n = draw(st.integers(2, max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    edges = tuple(e for e, keep in zip(possible, mask) if keep)
    return Graph(n, edges)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_cut_values_bounds(g):
    values = cut_values(g)
    assert values.min() >= 0.0
    assert values.max() <= sum(g.weights) + 1e-12
    assert values[0] == 0.0  # empty cut


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_cut_complement_symmetry(g):
    """Flipping every node leaves the cut unchanged."""
    values = cut_values(g)
    full = 2**g.num_nodes - 1
    flipped = values[[i ^ full for i in range(2**g.num_nodes)]]
    np.testing.assert_array_equal(values, flipped)


@settings(max_examples=30, deadline=None)
@given(graphs(max_nodes=7))
def test_bruteforce_dominates_greedy(g):
    opt = brute_force_maxcut(g)
    heur = greedy_maxcut(g, seed=0)
    assert opt.value >= heur.value - 1e-12


@settings(max_examples=30, deadline=None)
@given(graphs(max_nodes=7), st.integers(0, 100))
def test_bruteforce_dominates_random_assignment(g, seed):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 2, g.num_nodes)
    assert brute_force_maxcut(g).value >= cut_value(g, assignment) - 1e-12


@settings(max_examples=20, deadline=None)
@given(
    graphs(max_nodes=6),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
def test_qaoa_energy_bounded_by_optimum(g, gamma, beta):
    """<C> can never exceed the classical optimum (Eq. 3 ratio <= 1)."""
    assume(g.num_edges > 0)
    energy = AnsatzEnergy(build_qaoa_ansatz(g, 1)).value([gamma, beta])
    assert energy <= brute_force_maxcut(g).value + 1e-9
    assert energy >= -1e-9


@settings(max_examples=20, deadline=None)
@given(
    graphs(max_nodes=6),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
def test_analytic_formula_matches_simulator_everywhere(g, gamma, beta):
    sim = AnsatzEnergy(build_qaoa_ansatz(g, 1)).value([gamma, beta])
    closed = maxcut_energy_p1(g, gamma, beta)
    assert abs(sim - closed) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(0, 500))
def test_er_graphs_always_simple(n, seed):
    g = erdos_renyi_graph(n, 0.5, seed=seed)
    assert all(u != v for u, v in g.edges)
    assert len(set(g.edges)) == g.num_edges


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 300))
def test_regular_graphs_exactly_regular(seed):
    g = random_regular_graph(10, 4, seed=seed)
    assert [g.degree(node) for node in range(10)] == [4] * 10
