"""The graph group: a candidate's programs, one per graph, stacked into one
engine call — pinned **bit for bit** to each program's own call on its rows.

Equality here is ``tobytes``: a tolerance would pass a stacked call that
changed the shape of a k >= 2 block's exponent gemm, which moves SPSA and
Nelder–Mead trajectories.
"""

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy, NegatedPopulation
from repro.simulators import compiled as compiled_module
from repro.simulators.compiled import CompiledProgram, ProgramGroup, _DiagBlock, _Stack

#: plain, two-factor chain, static column, fused tail, fused head (the last
#: two put a k >= 2 diagonal block in the program)
MIXERS = [("rx",), ("rx", "ry"), ("h", "rx"), ("rx", "p"), ("rz", "rx")]
RESTARTS = 2


def graphs_of(sizes):
    return [
        erdos_renyi_graph(n, 0.5, seed=40 + i, require_connected=True)
        for i, n in enumerate(sizes)
    ]


def programs_of(graphs, tokens, p, backend="numpy"):
    return [build_qaoa_ansatz(g, p, tokens).compile(backend=backend) for g in graphs]


def per_program(programs, X, owner):
    """The reference: every program's own call on its own rows."""
    out = np.empty(len(X))
    for index, program in enumerate(programs):
        mine = np.flatnonzero(owner == index)
        if mine.size:
            out[mine] = program.energies(X[mine])
    return out


def layouts(num_graphs, dim, rng):
    """``(name, X, owner)``: the row layouts the batch-native trainers submit."""
    rows = np.arange(num_graphs * RESTARTS)
    start = rng.uniform(-1.0, 1.0, (rows.size, dim))
    delta = 0.1 * (2.0 * rng.integers(0, 2, (rows.size, dim)) - 1.0)
    both = np.concatenate([rows, rows])
    yield "spsa", np.vstack([start + delta, start - delta]), both // RESTARTS
    subset = rng.permutation(np.repeat(rows, 3))[: rows.size + 1]
    yield "subset", rng.uniform(-1.0, 1.0, (subset.size, dim)), subset // RESTARTS


@pytest.mark.parametrize("num_graphs", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("tokens", MIXERS, ids="-".join)
def test_grouped_rows_equal_each_programs_own_call(tokens, p, num_graphs):
    programs = programs_of(graphs_of([8] * num_graphs), tokens, p)
    if tokens == ("rz", "rx") or (tokens == ("rx", "p") and p > 1):
        assert any(
            isinstance(op, _DiagBlock) and len(op.params) >= 2 for op in programs[0].ops
        )
    group = ProgramGroup(programs)
    for name, X, owner in layouts(num_graphs, 2 * p, np.random.default_rng(p)):
        grouped = group.energies(X, owner)
        assert grouped.tobytes() == per_program(programs, X, owner).tobytes(), name


def test_chunks_hold_whole_graphs_up_to_the_cap():
    """Three graphs x four SPSA rows: 8 + 4 under the cap of 8 — a chunk
    boundary between graphs, never inside one; a graph wider than the cap
    is its own chunk, i.e. its program's own call."""
    programs = programs_of(graphs_of([8, 8, 8]), ("rz", "rx"), 2)
    group = ProgramGroup(programs)
    assert compiled_module.STACK_ROWS == 8
    owner = np.repeat([0, 1, 2], 4)
    (first, first_rows), (second, second_rows) = group._plan(owner)
    assert isinstance(first, _Stack) and [b[1:] for b in first.blocks] == [(0, 4), (4, 8)]
    assert second is programs[2]
    assert first_rows.tolist() == list(range(8)) and second_rows.tolist() == [8, 9, 10, 11]
    wide = np.repeat([0, 1], [9, 2])
    assert [lead for lead, _ in group._plan(wide)] == programs[:2]
    X = np.random.default_rng(0).uniform(-1, 1, (12, 4))
    assert group.energies(X, owner).tobytes() == per_program(programs, X, owner).tobytes()


def test_mixed_qubit_counts_split_by_schedule():
    sizes = [6, 6, 8, 8]
    programs = programs_of(graphs_of(sizes), ("rx", "ry"), 2)
    group = ProgramGroup(programs)
    owner = np.array([3, 0, 2, 1, 0, 3, 1, 2])
    plan = group._plan(owner)
    assert [[program.num_qubits for program, _, _ in lead.blocks] for lead, _ in plan] == [
        [6, 6],
        [8, 8],
    ]
    X = np.random.default_rng(1).uniform(-1, 1, (owner.size, 4))
    assert group.energies(X, owner).tobytes() == per_program(programs, X, owner).tobytes()


def test_a_stacked_call_is_booked_like_any_energies_call(monkeypatch):
    """``benchmarks/e2e/trace.py`` wraps ``CompiledProgram.energies`` with a
    ``(program, X)`` counter: every row must pass through it exactly once."""
    programs = programs_of(graphs_of([8, 8, 8]), ("rx",), 1)
    group = ProgramGroup(programs)
    original = CompiledProgram.energies
    booked = []

    def energies(program, X):
        booked.append(len(X))
        return original(program, X)

    monkeypatch.setattr(CompiledProgram, "energies", energies)
    owner = np.repeat([0, 1, 2], 4)
    group.energies(np.zeros((12, 2)), owner)
    assert booked == [8, 4]


def test_a_group_of_one_is_the_programs_own_call():
    """Same kernels, same uploads: the mock GPU's meters cannot tell."""
    graph = graphs_of([8])
    X = np.random.default_rng(2).uniform(-1, 1, (4, 6))
    meters = []
    for grouped in (False, True):
        (program,) = programs_of(graph, ("h", "rx"), 3, backend="mock_gpu")
        if grouped:
            values = ProgramGroup([program]).energies(X, np.zeros(4, dtype=int))
        else:
            values = program.energies(X)
        backend = program.backend
        meters.append(
            (values.tobytes(), backend.kernels, backend.bytes_to_device, backend.bytes_to_host)
        )
    assert meters[0] == meters[1]


@pytest.mark.parametrize("engine", ["compiled", "statevector"])
def test_population_values_and_gradients_are_each_objectives_own(engine):
    energies = [
        AnsatzEnergy(build_qaoa_ansatz(g, 2, ("rz", "rx")), engine=engine)
        for g in graphs_of([6, 6, 6])
    ]
    population = NegatedPopulation(energies, np.repeat([0, 1, 2], RESTARTS))
    rows = np.array([5, 0, 3, 1, 4, 4])
    X = np.random.default_rng(3).uniform(-1, 1, (rows.size, 4))
    values = population.values(X, rows)
    assert [energy.num_evaluations for energy in energies] == [2, 1, 3]
    grads = population.gradients(X, rows)
    for index, energy in enumerate(energies):
        mine = np.flatnonzero(rows // RESTARTS == index)
        assert values[mine].tobytes() == (-energy.values(X[mine])).tobytes()
        assert grads[mine].tobytes() == (-energy.gradients(X[mine])).tobytes()
    assert population.row_objective(3)(X[0]) == -energies[1].value(X[0])
