"""Compiled engine: equivalence against the dense oracle (and qtensor).

The compiled program must be *indistinguishable* from the statevector
engine — energies and parameter-shift gradients pinned to 1e-10 across the
full mixer token alphabet, random depths, and batched vs. single
evaluation — because the search treats
the two engines as interchangeable via one config flag.
"""

import cmath
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY, Gate, GateSpec
from repro.circuits.parameters import Parameter
from repro.core.alphabet import DEFAULT_TOKENS
from repro.graphs.generators import Graph, cycle_graph, erdos_renyi_graph
from repro.optimizers import spsa as spsa_module
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.mixers import MIXER_TOKENS
from repro.qtensor.simulator import QTensorSimulator
from repro.simulators import compiled as compiled_module
from repro.simulators.backends import MockGPUArrayBackend
from repro.simulators.compiled import CompiledProgram, compile_ansatz, compile_circuit
from repro.simulators.expectation import TABLE_MEMO_MAX_NODES, cut_values
from repro.simulators.statevector import plus_state, simulate, zero_state
from repro.workloads import available_workloads, get_workload

ATOL = 1e-10


@pytest.fixture(scope="module")
def er6():
    return erdos_renyi_graph(6, 0.5, seed=21, require_connected=True)


def _engines(ansatz):
    return (
        AnsatzEnergy(ansatz, engine="compiled"),
        AnsatzEnergy(ansatz, engine="statevector"),
    )


# -- diag_phase is the compiled engine's ground truth ------------------------


def test_every_diagonal_spec_publishes_its_phase_generator():
    rng = np.random.default_rng(7)
    for name, spec in GATE_REGISTRY.items():
        if not spec.is_diagonal:
            assert spec.diag_phase is None
            continue
        params = list(rng.uniform(-3, 3, spec.num_params))
        expected = np.diag(spec.matrix_fn(params))
        h, g0 = spec.diag_phase
        theta = params[0] if spec.num_params else 0.0
        actual = np.exp(1j * (theta * np.asarray(h) + np.asarray(g0)))
        np.testing.assert_allclose(actual, expected, atol=1e-14, err_msg=name)


# -- property-style equivalence over the token alphabet ----------------------


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=4),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_energy_matches_statevector(tokens, p, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(graph, p, tuple(tokens))
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert compiled.value(x) == pytest.approx(oracle.value(x), abs=ATOL)


@settings(max_examples=20, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    p=st.integers(1, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_gradient_matches_statevector(tokens, p, seed):
    graph = cycle_graph(4)
    ansatz = build_qaoa_ansatz(graph, p, tuple(tokens))
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    np.testing.assert_allclose(
        compiled.gradient(x), oracle.gradient(x), atol=ATOL
    )


@settings(max_examples=15, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_matches_single(tokens, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(graph, 2, tuple(tokens))
    program = compile_ansatz(ansatz)
    X = np.random.default_rng(seed).uniform(-np.pi, np.pi, (6, ansatz.num_parameters))
    batched = program.energies(X)
    single = np.array([program.energy(row) for row in X])
    np.testing.assert_allclose(batched, single, atol=1e-12)


def test_qtensor_agrees_where_supported(er6):
    """Tensor-network cross-check on the paper's winning mixer."""
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    compiled = AnsatzEnergy(ansatz, engine="compiled")
    x = [0.3, -0.2, 0.5, 0.1]
    qtensor = QTensorSimulator().maxcut_energy(
        ansatz.bind(x), er6, initial_state="0"
    )
    assert compiled.value(x) == pytest.approx(qtensor, abs=1e-9)


# -- paper-workload pinning --------------------------------------------------


@pytest.mark.parametrize(
    "tokens",
    [
        ("rx",), ("rx", "ry"), ("ry", "p"), ("h", "rz"),
        ("rz", "rx"), ("cz_ring", "ry"), ("rx", "cx_ring"), ("p", "ry"),
    ],
)
def test_paper_scale_energy_and_gradient(tokens):
    graph = erdos_renyi_graph(10, 0.5, seed=3, require_connected=True)
    ansatz = build_qaoa_ansatz(graph, 4, tokens)
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(11).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert compiled.value(x) == pytest.approx(oracle.value(x), abs=ATOL)
    np.testing.assert_allclose(compiled.gradient(x), oracle.gradient(x), atol=ATOL)


def test_final_state_matches_dense_simulation(er6):
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(5).uniform(-1, 1, ansatz.num_parameters)
    np.testing.assert_allclose(
        compiled.final_state(x), oracle.final_state(x), atol=ATOL
    )


# -- program structure -------------------------------------------------------


def test_cost_layer_fuses_to_one_op(er6):
    """Each cost layer (m rzz gates) plus adjacent diagonal mixer columns
    must collapse into a single fused diagonal block."""
    ansatz = build_qaoa_ansatz(er6, 3, ("rx",))
    program = compile_ansatz(ansatz)
    # H column folds into |+>, then per layer: one diag block + one fused
    # rx column (shared angle -> one op covering all qubits).
    assert program.initial_state_label == "+"
    assert program.num_ops == 2 * 3
    assert program.source_gates == 6 + 3 * (er6.num_edges + 6)


def test_shift_site_count_matches_parameterized_occurrences(er6):
    ansatz = build_qaoa_ansatz(er6, 2, ("rx", "ry"))
    program = compile_ansatz(ansatz)
    expected = 2 * (er6.num_edges + 2 * 6)  # p * (rzz edges + 2 tokens x 6 qubits)
    assert program.num_shift_sites == expected


def test_gradient_evaluation_accounting(er6):
    """The compiled engine reports the same 2-evals-per-occurrence cost
    model as the dense engine."""
    ansatz = build_qaoa_ansatz(er6, 1, ("rx",))
    compiled, oracle = _engines(ansatz)
    compiled.gradient([0.2, 0.3])
    oracle.gradient([0.2, 0.3])
    assert compiled.num_evaluations == oracle.num_evaluations


# -- generic circuits via compile_circuit ------------------------------------


def test_compile_circuit_state_without_graph():
    theta = Parameter("theta")
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).rz(theta * 2.0, 1).cx(0, 2).rx(theta, 0).rz(0.3, 2).ry(0.2, 2).rz(0.1, 2)
    program = compile_circuit(qc, [theta])
    dense = simulate(qc.bind_parameters({theta: 0.7}), zero_state(3))
    np.testing.assert_allclose(program.state([0.7]), dense, atol=ATOL)
    with pytest.raises(ValueError, match="without a graph"):
        program.energy([0.7])


@pytest.mark.parametrize("control,target", [(0, 3), (3, 0), (1, 3)])
def test_a_non_adjacent_cx_matches_the_dense_state(control, target):
    theta = Parameter("theta")
    qc = QuantumCircuit(4)
    for q in range(4):
        qc.ry(theta * (q + 1.0), q)
    qc.cx(control, target).rx(theta, target)
    program = compile_circuit(qc, [theta])
    dense = simulate(qc.bind_parameters({theta: 0.37}), zero_state(4))
    np.testing.assert_allclose(program.state([0.37]), dense, atol=ATOL)


def test_an_euler_chain_gradient_matches_finite_differences():
    """rz.ry.rz on every qubit, each factor shifted on its own: the
    general factor-chain path of the gradient."""
    a, b = Parameter("a"), Parameter("b")
    qc = QuantumCircuit(3)
    for q in range(3):
        qc.rz(a, q).ry(b * 2.0, q).rz(a * -0.5, q)
    qc.rzz(b, 0, 1).rzz(a, 1, 2)
    program = compile_circuit(qc, [a, b], initial_state="+", graph=cycle_graph(3))
    x, h = np.array([0.4, -0.9]), 1e-5
    expected = [
        (program.energy(x + h * e) - program.energy(x - h * e)) / (2 * h)
        for e in np.eye(2)
    ]
    np.testing.assert_allclose(program.gradient(x), expected, atol=1e-7)


# -- caller-built gates ------------------------------------------------------
#
# ``QuantumCircuit.append`` takes any ``GateSpec``, not only the registry's.
# These two reach what no registry gate does: a parameterized non-diagonal
# two-qubit gate (per-row chain matrices, ``_contract_per_column``) and a
# parameterized gate with no shift rule (the gradient guards).


def _mat_rxx(params):
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex) * c
    m[0, 3] = m[1, 2] = m[2, 1] = m[3, 0] = -1j * s
    return m


def _mat_u3(params):
    theta, phi, lam = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


RXX = GateSpec("rxx", 2, 1, _mat_rxx)
U3 = GateSpec("u3", 1, 3, _mat_u3)


def test_caller_built_gates_match_the_dense_state():
    theta = Parameter("theta")
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).rz(theta * 2.0, 1)
    qc.append(Gate(RXX, (theta,)), [0, 2]).append(Gate(U3, (0.3, 0.2, 0.1)), [2])
    qc.append(Gate(U3, (theta, 0.1, theta * -0.5)), [1])
    program = compile_circuit(qc, [theta])
    X = np.array([[0.7], [-1.3], [2.1]])
    log = _recording_steps(program)
    states = program.states(X)
    assert {name for _, name, _ in log} >= {"_general_step"}
    for column, (value,) in enumerate(X):
        dense = simulate(qc.bind_parameters({theta: value}), zero_state(3))
        np.testing.assert_allclose(program.state([value]), dense, atol=ATOL)
        np.testing.assert_allclose(states[:, column], dense, atol=ATOL)


def test_a_gate_without_a_shift_rule_evaluates_but_has_no_gradient():
    """Non-shiftable parameterized gates evaluate fine and fail the
    gradient, in the compiled and the dense engine alike."""
    from repro.graphs.generators import path_graph

    theta = Parameter("theta")
    qc = QuantumCircuit(2)
    qc.append(Gate(U3, (theta, 0.1, 0.2)), [0]).rzz(theta * -1.0, 0, 1)
    program = compile_circuit(qc, [theta], graph=path_graph(2))
    assert isinstance(program, CompiledProgram)
    assert np.isfinite(program.energy([0.5]))
    with pytest.raises(NotImplementedError, match="u3"):
        program.gradient([0.5])
    with pytest.raises(NotImplementedError, match="u3"):
        program.gradients(np.array([[0.5], [0.1]]))
    ansatz = build_qaoa_ansatz(path_graph(2), 1, ("rx",))
    (gamma,) = ansatz.gammas
    dense_circuit = QuantumCircuit(2).append(Gate(U3, (gamma, 0.1, 0.2)), [0])
    ansatz.__dict__["circuit"] = dense_circuit  # the built circuit, swapped
    dense = AnsatzEnergy(ansatz, engine="statevector")
    assert np.isfinite(dense.value([0.5, 0.2]))
    with pytest.raises(NotImplementedError, match="u3"):
        dense.gradient([0.5, 0.2])


def test_compile_circuit_plus_initial_state():
    theta = Parameter("t")
    qc = QuantumCircuit(2)
    qc.rzz(theta, 0, 1).ry(0.4, 0)
    program = compile_circuit(qc, [theta], initial_state="+")
    dense = simulate(qc.bind_parameters({theta: -1.2}), plus_state(2))
    np.testing.assert_allclose(program.state([-1.2]), dense, atol=ATOL)


def test_unknown_parameter_rejected():
    theta, phi = Parameter("theta"), Parameter("phi")
    qc = QuantumCircuit(1)
    qc.rx(phi, 0)
    with pytest.raises(ValueError, match="phi"):
        compile_circuit(qc, [theta])


def test_partial_hadamard_prefix_not_folded():
    """An incomplete H column must stay in the program, not fold to |+>."""
    qc = QuantumCircuit(2)
    qc.h(0).rz(0.3, 0).h(1)
    program = compile_circuit(qc, [])
    assert program.initial_state_label == "0"
    np.testing.assert_allclose(program.state([]), simulate(qc), atol=ATOL)


def _without_hadamard_column(circuit):
    n = circuit.num_qubits
    head = circuit.instructions[:n]
    assert [(i.gate.name, i.qubits) for i in head] == [("h", (q,)) for q in range(n)]
    stripped = QuantumCircuit(n)
    for instr in circuit.instructions[n:]:
        stripped.append(instr.gate, instr.qubits)
    return stripped


@pytest.mark.parametrize(
    "tokens",
    [(token,) for token in MIXER_TOKENS] + [("ry", "p"), ("h", "rz"), ("cz_ring", "rx")],
    ids="-".join,
)
def test_a_plus_start_without_the_hadamard_column_is_the_ansatz_program(er6, tokens):
    """The ansatz's H column folds to a |+> start: compiling the circuit
    without it from |+> gives the same program, value for value."""
    ansatz = build_qaoa_ansatz(er6, 2, tokens)
    program = compile_ansatz(ansatz)
    plus = compile_circuit(
        _without_hadamard_column(ansatz.circuit),
        ansatz.parameters,
        initial_state="+",
        graph=er6,
    )
    assert plus.initial_state_label == program.initial_state_label == "+"
    assert plus.source_gates == program.source_gates - er6.num_nodes
    assert [type(op) for op in plus.ops] == [type(op) for op in program.ops]
    assert plus.shift_sites == program.shift_sites
    X = np.random.default_rng(5).uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    np.testing.assert_allclose(program.energies(X), plus.energies(X), rtol=0, atol=ATOL)
    np.testing.assert_allclose(program.gradient(X[0]), plus.gradient(X[0]), rtol=0, atol=ATOL)


def test_wrong_parameter_count_rejected(er6):
    program = compile_ansatz(build_qaoa_ansatz(er6, 2))
    with pytest.raises(ValueError, match="expected 4 parameters"):
        program.energy([0.1, 0.2])


# -- compile_ansatz stitches layer fragments: same program as the flat pass ---

_MEMOS = ("_diag_table", "_cost_fragment", "_mixer_fragment", "_local_index", "_program")

#: the full alphabet one token at a time, all-diagonal mixers, diagonal
#: head and tail, and both entanglers alone, leading, trailing and between
_STITCH_TOKENS = [(token,) for token in MIXER_TOKENS] + [
    ("rz", "p"),
    ("rz", "rx", "rz"),
    ("p", "h", "ry"),
    ("rx", "cz_ring"),
    ("cz_ring", "ry", "cx_ring"),
    ("cx_ring", "rz"),
]


def _clear_memos():
    for name in _MEMOS:
        getattr(compiled_module, name).cache_clear()


def _memo_sizes():
    return {name: getattr(compiled_module, name).cache_info().currsize for name in _MEMOS}


def _flat_and_stitched(ansatz, backends=(None, None), warm_with=None):
    """The reference lowering of the whole symbolic circuit, and
    ``compile_ansatz``'s — with the memos emptied before each, so neither
    reads a table the other computed. ``warm_with`` is compiled between
    the two, so the stitched program reads tables another ansatz left."""
    _clear_memos()
    flat = compile_circuit(
        ansatz.circuit,
        ansatz.parameters,
        initial_state="0",
        graph=ansatz.graph,
        backend=backends[0],
        cost_values=get_workload(ansatz.workload).objective_values(ansatz.graph),
    )
    _clear_memos()
    if warm_with is not None:
        compile_ansatz(warm_with, backend=backends[1])
    return flat, compile_ansatz(ansatz, backend=backends[1])


def _assert_same_program(stitched, flat):
    assert stitched.num_qubits == flat.num_qubits
    assert stitched.num_parameters == flat.num_parameters
    assert stitched.initial_state_label == flat.initial_state_label
    assert stitched.source_gates == flat.source_gates
    assert [type(op) for op in stitched.ops] == [type(op) for op in flat.ops]
    for ours, reference in zip(stitched.ops, flat.ops):
        if isinstance(ours, compiled_module._DiagBlock):
            assert np.array_equal(ours.param_indices, reference.param_indices)
            assert np.array_equal(ours.gens, reference.gens)
            for name in ("gen_const", "static_phase"):
                a, b = getattr(ours, name), getattr(reference, name)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            assert ours.atoms == reference.atoms
        else:
            assert ours.targets == reference.targets
            assert ours.factors == reference.factors
            assert (ours.static_matrix is None) == (reference.static_matrix is None)
            if ours.static_matrix is not None:
                assert np.array_equal(ours.static_matrix, reference.static_matrix)
    assert stitched.shift_sites == flat.shift_sites


@pytest.mark.parametrize("workload", available_workloads())
@pytest.mark.parametrize("memos", ["cold", "warm"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("tokens", _STITCH_TOKENS, ids="-".join)
def test_stitched_program_equals_flat_compile(tokens, p, memos, workload):
    """``warm``: the memos first hold the tables of the same mixer on
    another instance of the same size, so the stitched program reuses its
    mixer fragments and must still take its own cost fragment."""
    graph, other = get_workload(workload).dataset(2, num_nodes=5, dataset_seed=3)
    assert other != graph
    ansatz = build_qaoa_ansatz(graph, p, tokens, workload=workload)
    warm_with = None
    if memos == "warm":
        warm_with = build_qaoa_ansatz(other, p, tokens, workload=workload)
    flat, stitched = _flat_and_stitched(ansatz, warm_with=warm_with)
    assert "circuit" in vars(ansatz)  # the reference read it; see the serving-path test
    _assert_same_program(stitched, flat)
    rng = np.random.default_rng(len(tokens) + 10 * p)
    X = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    pairs = [
        (stitched.energy(X[0]), flat.energy(X[0])),
        (stitched.energies(X), flat.energies(X)),
        (stitched.gradient(X[0]), flat.gradient(X[0])),
    ]
    for ours, reference in pairs:
        if set(tokens) <= set(DEFAULT_TOKENS):
            assert np.array_equal(ours, reference)
        else:
            np.testing.assert_allclose(ours, reference, rtol=0, atol=1e-12)


def test_above_the_table_cap_nothing_is_memoized_and_nothing_changes():
    graph = cycle_graph(17)
    ansatz = build_qaoa_ansatz(graph, 2, ("rz", "rx"))
    flat, stitched = _flat_and_stitched(ansatz)
    assert set(_memo_sizes().values()) == {0}
    _assert_same_program(stitched, flat)
    X = np.random.default_rng(17).uniform(-np.pi, np.pi, (2, ansatz.num_parameters))
    assert stitched.energy(X[0]) == flat.energy(X[0])
    assert np.array_equal(stitched.energies(X), flat.energies(X))
    assert set(_memo_sizes().values()) == {0}


@pytest.mark.parametrize("tokens", [("rx",), ("rz", "ry"), ("cz_ring", "rx")], ids="-".join)
def test_device_transfers_are_per_program_as_before(er6, tokens):
    """Tables are shared on the host only: every program uploads its own
    constants, op by op, exactly like a program that owns them."""
    ansatz = build_qaoa_ansatz(er6, 2, tokens)
    backends = (MockGPUArrayBackend(), MockGPUArrayBackend())
    flat, stitched = _flat_and_stitched(ansatz, backends)
    first = compile_ansatz(ansatz, backend=MockGPUArrayBackend())  # warms the memos
    X = np.random.default_rng(2).uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    for program in (flat, stitched, first):
        program.energy(X[0])
        program.energies(X)
        program.gradient(X[0])
    assert backends[1].stats() == backends[0].stats()
    assert first.backend.stats() == backends[0].stats()


def test_shared_tables_are_read_only(er6):
    program = compile_ansatz(build_qaoa_ansatz(er6, 2, ("cz_ring", "rz", "rx")))
    program.gradient(np.zeros(4))  # fills lookups and atom vectors
    blocks = [op for op in program.ops if isinstance(op, compiled_module._DiagBlock)]
    shared = []
    for block in blocks:
        shared += [block.gens, block.gen_const, block.static_phase]
        shared += [*block.lookup, *block.table.lookup, *block.table.atom_vectors]
    shared = [array for array in shared if array is not None]
    assert len(shared) > 3 * len(blocks)
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        compiled_module._local_index((0, 1), 6)[0] = 1


def test_workloads_on_one_graph_never_share_a_cost_fragment(er6):
    _clear_memos()
    programs = {
        name: compile_ansatz(build_qaoa_ansatz(er6, 1, ("rx",), workload=name))
        for name in ("maxcut", "ising", "maxsat")
    }
    fragments = {
        name: compiled_module._cost_fragment(get_workload(name), er6) for name in programs
    }
    assert len({id(fragment) for fragment in fragments.values()}) == 3
    assert _memo_sizes()["_cost_fragment"] == 3
    tables = {name: program.ops[0].table for name, program in programs.items()}
    assert len({id(table) for table in tables.values()}) == 3
    assert not np.array_equal(tables["maxcut"].gens, tables["ising"].gens)
    assert not np.array_equal(tables["maxcut"].gens, tables["maxsat"].gens)
    # ...while every candidate of one workload reads the same table
    again = compile_ansatz(build_qaoa_ansatz(er6, 2, ("ry", "rx")))
    assert again.ops[0].table is tables["maxcut"] and again.ops[2].table is tables["maxcut"]


def test_memos_stay_bounded_over_many_graphs():
    _clear_memos()
    for index in range(300):
        graph = Graph(4, ((0, 1), (1, 2), (2, 3)), (1.0, 1.0 + index, 2.0))
        compile_ansatz(build_qaoa_ansatz(graph, 2, ("rz", "rx"), workload="wmaxcut"))
    for name, size in _memo_sizes().items():
        assert 0 < size <= getattr(compiled_module, name).cache_info().maxsize, name
    assert compiled_module._cost_fragment.cache_info().currsize == 256


# -- whole programs, memoized per (workload, graph, tokens, p) ---------------


def test_a_program_is_memoized_on_numpy_up_to_the_table_cap_only(er6):
    """Equal ansatzes share one host program; a device backend's program and
    one above the table cap are stitched anew, so their uploads and meters
    stay their own."""
    _clear_memos()
    ansatz = build_qaoa_ansatz(er6, 2, ("rz", "rx"))
    program = compile_ansatz(ansatz)
    assert compile_ansatz(build_qaoa_ansatz(er6, 2, ("rz", "rx"))) is program
    assert compile_ansatz(ansatz, backend="numpy") is program
    assert compile_ansatz(build_qaoa_ansatz(er6, 3, ("rz", "rx"))) is not program
    on_device = [compile_ansatz(ansatz, backend=MockGPUArrayBackend()) for _ in range(2)]
    assert on_device[0] is not on_device[1]
    assert program not in on_device
    big = build_qaoa_ansatz(cycle_graph(TABLE_MEMO_MAX_NODES + 1), 1, ("rx",))
    assert compile_ansatz(big) is not compile_ansatz(big)
    assert compiled_module._program.cache_info().currsize == 2


def test_the_program_memo_never_grows_past_its_bound():
    _clear_memos()
    bound = compiled_module._program.cache_info().maxsize
    for index in range(bound // 4 + 8):
        graph = Graph(4, ((0, 1), (1, 2), (2, 3)), (1.0, 1.0 + index, 2.0))
        for p in (1, 2, 3, 4):
            compile_ansatz(build_qaoa_ansatz(graph, p, ("rx",), workload="wmaxcut"))
    assert compiled_module._program.cache_info().currsize == bound


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def test_memoized_programs_hold_no_shift_phases_after_an_adam_sweep(monkeypatch):
    """The gradient's shift phases — up to 2|E| vectors of 2^n amplitudes —
    live on the shared diagonal tables, never on a program the memo keeps."""
    _clear_memos()
    built = []
    init = CompiledProgram.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CompiledProgram, "__init__", recording)
    graph = cycle_graph(TABLE_MEMO_MAX_NODES)
    api.search([graph], depths=1, config=api.Config(k_max=1, optimizer="adam", steps=2))
    programs = [program for program in built if program.num_parameters == 2]
    assert len(programs) == compiled_module._program.cache_info().currsize > 1
    for program in programs:
        held = [
            name
            for name, value in vars(program).items()
            if name != "ops" and any(array.dtype.kind == "c" for array in _arrays(value))
        ]
        assert not held
    tables = {
        id(op.table): op.table
        for program in programs
        for op in program.ops
        if isinstance(op, compiled_module._DiagBlock)
    }
    assert any(table._shift_phases for table in tables.values())
    _clear_memos()


def _untimed(value):
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if key not in ("seconds", "total_seconds")
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


#: one spec per trainer path — SPSA's replayed table, COBYLA's single-point
#: energy, Adam's parameter-shift gradient, Nelder-Mead's batches — across
#: uniform and interp starts and best_sampled scoring; the two-graph specs
#: train stacked rows
_PIN_SPECS = [
    ("er:2:5", api.Config(k_max=2, optimizer="spsa", steps=16, seed=3, restarts=2)),
    ("er:1:5", api.Config(k_max=2, optimizer="cobyla", steps=16, seed=4, init_strategy="interp")),
    ("er:2:6", api.Config(k_max=1, optimizer="adam", steps=3, seed=5)),
    (
        "er:1:7",
        api.Config(
            k_max=2, optimizer="nelder_mead", steps=16, seed=6, init_strategy="interp", restarts=2
        ),
    ),
    ("er:1:8", api.Config(k_max=2, optimizer="spsa", steps=16, seed=7, metric="best_sampled")),
]


@pytest.mark.parametrize("workload, config", _PIN_SPECS, ids=lambda v: getattr(v, "optimizer", v))
def test_a_search_is_bit_identical_whatever_the_memos_hold(workload, config):
    """Cold, then on every memo the first run left (the program memo, the
    tables, SPSA's ± table), then cold again: the same result, bit for bit."""

    def run():
        return _untimed(api.search(workload, depths=2, config=config).to_dict())

    _clear_memos()
    spsa_module._rademacher_table.cache_clear()
    first = run()
    second = run()
    _clear_memos()
    spsa_module._rademacher_table.cache_clear()
    assert first == second == run()


# -- the batched schedule: decided once, run many ------------------------------

#: shared all-qubit chains, static ``h`` columns alone / leading a chain /
#: around a diagonal, diagonal heads and tails fused at the seams, an entangler
_SCHEDULE_TOKENS = [
    ("rx",), ("rx", "ry"), ("h",), ("h", "rx"), ("rz", "rx"), ("ry", "rz"),
    ("h", "rz", "h"), ("cz_ring", "rx"),
]


# 11 qubits: 4-4-2-1 kron groups; 17: above the table cap, nothing memoized
# (p = 1 only there — three layers of 2^17 amplitudes repeat the same steps
# for 8 s of tier-1 wall time)
@pytest.mark.parametrize("n, p", [(5, 1), (5, 3), (10, 1), (10, 3), (11, 1), (11, 3), (17, 1)])
@pytest.mark.parametrize("tokens", _SCHEDULE_TOKENS, ids="-".join)
def test_batch_rows_are_independent_bit_for_bit(tokens, n, p):
    """``energies(X)[b] == energies(X[b:b+1])[0]``, exactly: what SPSA
    lockstep, restart populations and "sharding never changes results" lean
    on. The one exception is as old as the batched engine and is pinned here
    so it cannot widen: a diagonal block driven by two or more parameters (a
    mixer's ``rz`` head or tail fused with the cost layer) forms its
    exponent as a ``(B, k) @ (k, U)`` gemm, whose last bit depends on B."""
    program = compile_ansatz(build_qaoa_ansatz(cycle_graph(n), p, tokens))
    X = np.random.default_rng(n + p).uniform(-np.pi, np.pi, (8, program.num_parameters))
    alone = np.array([program.energies(X[b:b + 1])[0] for b in range(8)])
    exact = all(
        len(op.params) <= 1 for op in program.ops if isinstance(op, compiled_module._DiagBlock)
    )
    # rz heads meet their layer's cost block; an rz tail only the *next* layer's
    assert exact == (tokens != ("rz", "rx") and (tokens != ("ry", "rz") or p == 1))
    for batch in (1, 2, 3, 8):
        together = program.energies(X[:batch])
        if exact:
            assert np.array_equal(together, alone[:batch]), batch
        else:
            np.testing.assert_allclose(together, alone[:batch], rtol=0, atol=1e-12)


def test_plans_are_shared_not_rebuilt():
    """One plan per fragment op: every layer of every program with that
    mixer, on any graph of that size, holds the same object — and it rides
    the fragment memos, not a new one."""
    _clear_memos()
    tokens = ("h", "rx", "rz", "ry")
    first = compile_ansatz(build_qaoa_ansatz(cycle_graph(6), 3, tokens))
    other = compile_ansatz(
        build_qaoa_ansatz(erdos_renyi_graph(6, 0.5, seed=21, require_connected=True), 2, tokens)
    )
    columns = [op for op in first.ops if isinstance(op, compiled_module._MatrixColumn)]
    assert len(columns) == 2 * 3
    for column in columns:
        assert column.plan is columns[columns.index(column) % 2].plan  # across layers
    assert columns[0].plan is not columns[1].plan
    theirs = [op for op in other.ops if isinstance(op, compiled_module._MatrixColumn)]
    assert [op.plan for op in theirs] == [op.plan for op in columns[:4]]  # across graphs
    assert columns[0] is not columns[2] and columns[0].factors != columns[2].factors
    # a different mixer, or the same one at another size, plans for itself
    assert compile_ansatz(build_qaoa_ansatz(cycle_graph(7), 1, tokens)).ops[1].plan \
        is not columns[0].plan
    memos = {
        name
        for name, value in vars(compiled_module).items()
        if hasattr(value, "cache_info") and value.__module__ == compiled_module.__name__
    }
    assert memos == set(_MEMOS)


def _recording_steps(program):
    """Replace ``program``'s schedule with one that logs, per step call,
    ``(op index, step name, shifts handed to it)``. The memos are emptied
    so no later compile is handed the wrapped program."""
    log = []

    def recording(op_index, step):
        def run(state, X, Xd, shifts_here, dedup):
            log.append((op_index, step.__name__, len(shifts_here)))
            return step(state, X, Xd, shifts_here, dedup)

        return run

    program._steps = tuple(recording(i, step) for i, step in enumerate(program._steps))
    _clear_memos()
    return log


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("tokens", _SCHEDULE_TOKENS, ids="-".join)
def test_gradients_run_the_same_steps_and_match_the_oracle(tokens, batch):
    ansatz = build_qaoa_ansatz(cycle_graph(5), 2, tokens)
    compiled, oracle = _engines(ansatz)
    X = np.random.default_rng(batch).uniform(-np.pi, np.pi, (batch, ansatz.num_parameters))
    program = compiled.program
    plain = _recording_steps(program)
    program.energies(X)
    assert [entry[2] for entry in plain] == [0] * program.num_ops
    schedule = [entry[:2] for entry in plain]
    del plain[:]
    np.testing.assert_allclose(compiled.gradients(X), oracle.gradients(X), atol=ATOL)
    # with shifts: the same steps in the same order, and every shift reached one
    assert [entry[:2] for entry in plain] == schedule * (len(plain) // len(schedule))
    assert sum(entry[2] for entry in plain) == batch * 2 * program.num_shift_sites


def test_a_shift_lands_on_the_step_of_its_op():
    def delivered(program, x):
        log = _recording_steps(program)
        program.gradient(x)
        return {(i, name): count for i, name, count in log if count}

    graph = cycle_graph(4)
    # a static h ahead of rx in one per-qubit chain: the shared all-qubit step
    chain = compile_ansatz(build_qaoa_ansatz(graph, 1, ("h", "rx")))
    assert delivered(chain, [0.3, 0.2]) == {(0, "_lookup_step"): 8, (1, "_shared_step"): 8}
    assert all(site.factor == 1 for site in chain.shift_sites if site.op_index == 1)
    # a diagonal head is an atom of the block it fused into, not a column —
    # whichever phase form that block is (four qubits: too dense to look up)
    for n, form in ((4, "_dense_step"), (6, "_lookup_step")):
        head = compile_ansatz(build_qaoa_ansatz(cycle_graph(n), 1, ("rz", "rx")))
        assert delivered(head, [0.3, 0.2]) == {(0, form): 4 * n, (1, "_shared_step"): 2 * n}
    # partial columns either side of a static entangler: the general step
    theta = Parameter("theta")
    qc = QuantumCircuit(4)
    qc.rx(theta, 0).cx(0, 2).ry(theta * 0.5, 1).rzz(theta, 0, 3)
    flat = compile_circuit(qc, [theta], initial_state="+", graph=graph)
    assert delivered(flat, [0.3]) == {
        (0, "_general_step"): 2, (2, "_general_step"): 2, (3, "_lookup_step"): 2,
    }
    dense = simulate(qc.bind_parameters({theta: 0.3}), plus_state(4))
    np.testing.assert_allclose(flat.state([0.3]), dense, atol=ATOL)
    def oracle_energy(value):
        state = simulate(qc.bind_parameters({theta: value}), plus_state(4))
        return float((np.abs(state) ** 2) @ cut_values(graph))

    h = 1e-6
    numeric = (oracle_energy(0.3 + h) - oracle_energy(0.3 - h)) / (2 * h)
    assert flat.gradient([0.3])[0] == pytest.approx(numeric, abs=1e-6)


def test_threads_sharing_fresh_programs_get_the_serial_results():
    """A memoized program is shared by every thread of a process (the
    service's fleet): threads that build the same fresh programs' schedules,
    lookups and shift phases at once each get the serial result."""
    graph = erdos_renyi_graph(8, 0.5, seed=5, require_connected=True)
    ansatzes = [build_qaoa_ansatz(graph, 2, tokens) for tokens in _SCHEDULE_TOKENS]
    X = np.random.default_rng(4).uniform(-np.pi, np.pi, (2, 4))

    def evaluate():
        return [
            (compile_ansatz(ansatz).energies(X), compile_ansatz(ansatz).gradients(X))
            for ansatz in ansatzes
        ]

    _clear_memos()
    expected = evaluate()
    _clear_memos()
    results = {}

    def work(index):
        results[index] = evaluate()

    threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for outcome in results.values():
        for (values, grads), (want_values, want_grads) in zip(outcome, expected):
            assert np.array_equal(values, want_values)
            assert np.array_equal(grads, want_grads)
