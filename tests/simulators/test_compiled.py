"""Compiled engine: equivalence against the dense oracle (and qtensor).

The compiled program must be *indistinguishable* from the statevector
engine — energies and parameter-shift gradients pinned to 1e-10 across the
full mixer token alphabet, random depths, both ``initial_hadamard``
settings, and batched vs. single evaluation — because the search treats
the two engines as interchangeable via one config flag.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_REGISTRY
from repro.circuits.parameters import Parameter
from repro.core.alphabet import DEFAULT_TOKENS
from repro.graphs.generators import Graph, cycle_graph, erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.mixers import MIXER_TOKENS
from repro.qtensor.simulator import QTensorSimulator
from repro.simulators import compiled as compiled_module
from repro.simulators.backends import MockGPUArrayBackend
from repro.simulators.compiled import CompiledProgram, compile_ansatz, compile_circuit
from repro.simulators.expectation import cut_values
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
    initial_hadamard=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_energy_matches_statevector(tokens, p, initial_hadamard, seed):
    graph = cycle_graph(5)
    ansatz = build_qaoa_ansatz(
        graph, p, tuple(tokens), initial_hadamard=initial_hadamard
    )
    compiled, oracle = _engines(ansatz)
    x = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert compiled.value(x) == pytest.approx(oracle.value(x), abs=ATOL)


@settings(max_examples=20, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(MIXER_TOKENS), min_size=1, max_size=3),
    p=st.integers(1, 2),
    initial_hadamard=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_gradient_matches_statevector(tokens, p, initial_hadamard, seed):
    graph = cycle_graph(4)
    ansatz = build_qaoa_ansatz(
        graph, p, tuple(tokens), initial_hadamard=initial_hadamard
    )
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
        ansatz.bind(x), er6, initial_state=ansatz.initial_state_label
    )
    assert compiled.value(x) == pytest.approx(qtensor, abs=1e-9)


# -- paper-workload pinning --------------------------------------------------


@pytest.mark.parametrize("tokens", [("rx",), ("rx", "ry"), ("ry", "p"), ("h", "rz")])
@pytest.mark.parametrize("initial_hadamard", [True, False])
def test_paper_scale_energy_and_gradient(tokens, initial_hadamard):
    graph = erdos_renyi_graph(10, 0.5, seed=3, require_connected=True)
    ansatz = build_qaoa_ansatz(graph, 4, tokens, initial_hadamard=initial_hadamard)
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
    qc.h(0).cx(0, 1).rz(theta * 2.0, 1).rxx(theta, 0, 2).u3(0.3, 0.2, 0.1, 2)
    program = compile_circuit(qc, [theta])
    dense = simulate(qc, zero_state(3), {theta: 0.7})
    np.testing.assert_allclose(program.state([0.7]), dense, atol=ATOL)
    with pytest.raises(ValueError, match="without a graph"):
        program.energy([0.7])


def test_compile_circuit_plus_initial_state():
    theta = Parameter("t")
    qc = QuantumCircuit(2)
    qc.rzz(theta, 0, 1).ry(0.4, 0)
    program = compile_circuit(qc, [theta], initial_state="+")
    dense = simulate(qc, plus_state(2), {theta: -1.2})
    np.testing.assert_allclose(program.state([-1.2]), dense, atol=ATOL)


def test_unknown_parameter_rejected():
    theta, phi = Parameter("theta"), Parameter("phi")
    qc = QuantumCircuit(1)
    qc.rx(phi, 0)
    with pytest.raises(ValueError, match="phi"):
        compile_circuit(qc, [theta])


def test_u3_energy_works_but_gradient_raises(er6):
    """Non-shiftable parameterized gates evaluate fine and fail the
    gradient exactly like the dense engine does."""
    theta = Parameter("theta")
    qc = QuantumCircuit(2)
    qc.u3(theta, 0.1, 0.2, 0).rzz(theta * -1.0, 0, 1)
    from repro.graphs.generators import path_graph

    program = compile_circuit(qc, [theta], graph=path_graph(2))
    assert isinstance(program, CompiledProgram)
    assert np.isfinite(program.energy([0.5]))
    with pytest.raises(NotImplementedError, match="u3"):
        program.gradient([0.5])


def test_partial_hadamard_prefix_not_folded():
    """An incomplete H column must stay in the program, not fold to |+>."""
    qc = QuantumCircuit(2)
    qc.h(0).rz(0.3, 0).h(1)
    program = compile_circuit(qc, [])
    assert program.initial_state_label == "0"
    np.testing.assert_allclose(program.state([]), simulate(qc), atol=ATOL)


def test_wrong_parameter_count_rejected(er6):
    program = compile_ansatz(build_qaoa_ansatz(er6, 2))
    with pytest.raises(ValueError, match="expected 4 parameters"):
        program.energy([0.1, 0.2])


# -- compile_ansatz stitches layer fragments: same program as the flat pass ---

_MEMOS = ("_diag_table", "_cost_fragment", "_mixer_fragment", "_local_index")

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


def _flat_and_stitched(ansatz, backends=(None, None)):
    """The reference lowering of the whole symbolic circuit, and
    ``compile_ansatz``'s — with the memos emptied before each, so neither
    reads a table the other computed."""
    _clear_memos()
    flat = compile_circuit(
        ansatz.circuit,
        ansatz.parameters,
        initial_state=ansatz.initial_state_label,
        graph=ansatz.graph,
        backend=backends[0],
        cost_values=get_workload(ansatz.workload).objective_values(ansatz.graph),
    )
    _clear_memos()
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
@pytest.mark.parametrize("initial_hadamard", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("tokens", _STITCH_TOKENS, ids="-".join)
def test_stitched_program_equals_flat_compile(tokens, p, initial_hadamard, workload):
    graph = get_workload(workload).dataset(1, num_nodes=5, dataset_seed=3)[0]
    ansatz = build_qaoa_ansatz(
        graph, p, tokens, initial_hadamard=initial_hadamard, workload=workload
    )
    flat, stitched = _flat_and_stitched(ansatz)
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
    ``(op index, step name, shifts handed to it)``."""
    log = []

    def recording(op_index, step):
        def run(prog, state, X, Xd, shifts_here, dedup):
            log.append((op_index, step.__name__, len(shifts_here)))
            return step(prog, state, X, Xd, shifts_here, dedup)

        return run

    program._steps = tuple(recording(i, step) for i, step in enumerate(program._steps))
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
    # a parameterized entangler (and a partial column): the general step
    theta = Parameter("theta")
    qc = QuantumCircuit(4)
    qc.rx(theta, 0).rxx(theta * 0.5, 1, 2).rzz(theta, 0, 3)
    flat = compile_circuit(qc, [theta], initial_state="+", graph=graph)
    assert delivered(flat, [0.3]) == {
        (0, "_general_step"): 2, (1, "_general_step"): 2, (2, "_lookup_step"): 2,
    }
    dense = simulate(qc, plus_state(4), {theta: 0.3})
    np.testing.assert_allclose(flat.state([0.3]), dense, atol=ATOL)
    def oracle_energy(value):
        state = simulate(qc, plus_state(4), {theta: value})
        return float((np.abs(state) ** 2) @ cut_values(graph))

    h = 1e-6
    numeric = (oracle_energy(0.3 + h) - oracle_energy(0.3 - h)) / (2 * h)
    assert flat.gradient([0.3])[0] == pytest.approx(numeric, abs=1e-6)
