"""Compiled statevector evaluation: the optimizer's inner loop as pure NumPy.

The dense engine in :mod:`repro.simulators.statevector` is exact but pays
Python-object overhead on *every* energy call: the ansatz is re-bound into
a fresh :class:`~repro.circuits.circuit.QuantumCircuit`, every gate matrix
is re-materialized, and every ``apply_gate`` re-derives its contraction
metadata. None of that depends on the parameter values — only the angles
change between the ~200 COBYLA steps the Evaluator spends per candidate.

:func:`compile_circuit` lowers a symbolic circuit into a
:class:`CompiledProgram`, a flat list of three op kinds:

* **Fused diagonal blocks** — a maximal run of diagonal gates (the entire
  cost layer ``e^{-i gamma C}``, plus any adjacent ``rz``/``p``/``cz``
  mixer columns) collapses into per-parameter *generator vectors* built
  from each gate's :attr:`~repro.circuits.gates.GateSpec.diag_phase`
  (Lykov & Alexeev 2021's diagonal-gate observation, taken to its dense
  conclusion). Applying the block is one ``state *= exp(1j * (g0 + sum_j
  x_j * G_j))`` elementwise op, independent of how many gates it fuses.
* **Matrix columns** — a run of non-diagonal single-qubit gates is grouped
  per qubit (gates on distinct qubits commute) and chained into one 2x2
  product per qubit; qubits whose chain is structurally identical (the
  weight-shared mixer columns) share a single op whose matrix is built
  once per call and applied with a strided in-place kernel.
* **Static gates** — anything parameter-free has its matrix materialized
  at compile time; a complete leading Hadamard column is folded into the
  ``|+>^n`` initial state outright.

``CompiledProgram.energy(x)`` therefore runs the whole optimizer step with
zero circuit rebuilds, zero dict bindings, and zero matrix
re-materialization. ``energies(X)`` evaluates a batch of parameter vectors
through the same ops with a leading batch axis, and ``gradient(x)``
implements the exact two-term parameter-shift rule by injecting per-row
shifts into a single batched run instead of reconstructing shifted
circuits per gate occurrence.

A trainer calls ``energies`` thousands of times per candidate on two or
three rows (SPSA's ± pair), where re-deciding *how* to run an op costs as
much as running it. So the batched path is a schedule, split by when each
thing can be known:

* **per fragment op** (decided by the compile pass, shared by reference by
  every layer of every program with that mixer — :class:`_ColumnPlan`; for
  diagonal blocks the shared :class:`_DiagTable`) — whether a matrix column
  is the weight-shared all-qubit column and its kron groups, its factor
  chain as vectorized builders and static 2x2s materialized once, whether
  a static column may rotate through every qubit, and which of the three
  phase forms (static, unique-value lookup, dense) a block is;
* **per program op** — which flat parameters drive it: each angle's
  ``offset + coeff * X[:, index]`` and the block's views of the lookup;
* **per candidate** — the graph group (:class:`ProgramGroup`): which of its
  programs, one per graph, share a schedule and may stack their rows;
* **per call** — arithmetic on ``X``: ``for step in steps: state =
  step(...)``, ``X`` checked once at the public entry point. A gradient
  runs the *same* steps, each handed the shifts that land on its op; the
  shift bookkeeping exists only on that call. A stacked call runs them too:
  matrix columns once on all rows, diagonal blocks per member on its rows.

A QAOA circuit is ``p`` copies of ``[cost(gamma_k), mixer(beta_k)]``, and
a search trains hundreds of candidate mixers on the same few graphs, so
:func:`compile_ansatz` never lowers a whole circuit. What is lowered when:

* **per (workload, graph)** — the one-layer cost circuit, through
  :func:`compile_circuit`: its generator row, its atoms and (on first
  batched use) its unique-value lookup and atom vectors;
* **per (token sequence, qubit count)** — the one-layer mixer, the same way;
* **per distinct run of diagonal gates** — the fused table itself, keyed
  by the run's content: where a mixer's diagonal head or tail meets the
  cost layer the three are *one* run, fused once and shared by every
  mixer with that head and tail;
* **per candidate** — only the stitching: the fragments' ops re-indexed
  to the flat ``[gammas..., betas...]`` ordering, O(p x ops-per-layer)
  Python with no ``2^n`` arithmetic and without ever building the
  ansatz's symbolic circuit.

The memos are process-wide bounded ``lru_cache`` s of read-only host
arrays, skipped above :data:`~repro.simulators.expectation.
TABLE_MEMO_MAX_NODES` like the cut table — per process, so every worker
process of a pool or a service fills its own. Uploads to a device backend
stay per program. The flat :func:`compile_circuit` of the whole circuit
remains the fragment compiler and the reference the stitched program is
tested against, op for op.

The array library itself is a knob: every array the program allocates is
born under an :class:`~repro.simulators.backends.ArrayBackend` (NumPy by
default — behavior and speed identical to the pre-backend engine — or a
CuPy/mock-GPU device backend), program constants are uploaded to the
device once and memoized, and results cross back to the host only through
``to_host`` at the public entry points. See
:mod:`repro.simulators.backends` for the seam and the registered
backends.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import DiagPhase
from repro.circuits.parameters import Parameter, ParameterExpression
from repro.graphs.generators import Graph
from repro.simulators.backends import ArrayBackend, get_array_backend
from repro.simulators.expectation import (
    TABLE_MEMO_MAX_NODES,
    bit_table,
    cut_values,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (qaoa imports us)
    from repro.qaoa.ansatz import QAOAAnsatz
    from repro.workloads.base import Workload

__all__ = [
    "SHIFT_RULE_GATES",
    "CompiledProgram",
    "ProgramGroup",
    "compile_ansatz",
    "compile_circuit",
]

#: gates whose expectation is single-frequency in the angle, so the exact
#: two-term shift rule applies (shared with repro.qaoa.energy)
SHIFT_RULE_GATES = frozenset({"rx", "ry", "rz", "p", "rzz", "rxx", "cp"})

_SHIFT = np.pi / 2

#: linear angle expression lowered to flat-parameter indices:
#: ``(((j, coeff), ...), offset)``
_Expr = tuple[tuple[tuple[int, float], ...], float]


def _lower_expr(value, index: dict[Parameter, int]) -> _Expr:
    """Lower a gate angle (number or linear expression) to index space."""
    if isinstance(value, ParameterExpression):
        try:
            terms = tuple(
                (index[param], coeff) for param, coeff in value.terms.items()
            )
        except KeyError:
            unknown = sorted(
                p.name for p in value.parameters if p not in index
            )
            raise ValueError(
                f"circuit uses parameters {unknown} missing from the "
                "compile-time parameter ordering"
            ) from None
        return terms, value.offset
    return (), float(value)


def _eval_expr(expr: _Expr, x: np.ndarray) -> float:
    terms, offset = expr
    return offset + sum(coeff * x[j] for j, coeff in terms)


def _memoized(builder, num_qubits: int):
    """``builder`` (an ``lru_cache``d function returning ``2^n``-sized host
    tables) up to the table cap, its uncached body above it — the rule
    :func:`~repro.simulators.expectation.cut_values` follows, so no memo
    here can pin more per entry than the cut-table memo does."""
    return builder if num_qubits <= TABLE_MEMO_MAX_NODES else builder.__wrapped__


@lru_cache(maxsize=128)
def _local_index(qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """For every basis index, the index its bits on ``qubits`` spell in a
    gate-local ``2^m`` vector (shared, read-only)."""
    bits = bit_table(num_qubits)
    local = np.zeros(2**num_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        local += bits[:, q].astype(np.int64) << j
    local.setflags(write=False)
    return local


def _expand_diag(small: Sequence[float], qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Lift a ``2^m`` per-gate vector to the full ``2^n`` basis."""
    return np.asarray(small)[_memoized(_local_index, num_qubits)(qubits, num_qubits)]


# -- compiled op kinds ----------------------------------------------------


#: one gate of a diagonal run, in the form :func:`_fuse_diag` consumes and
#: the table memo is keyed by: ``(gate name, diag_phase, qubits, angle terms
#: over the run's own parameter slots, angle offset)``
_RunGate = tuple[str, DiagPhase, tuple[int, ...], tuple[tuple[int, float], ...], float]


@dataclass(frozen=True)
class _DiagAtom:
    """One parameterized diagonal gate occurrence inside a fused block,
    kept in compact per-gate form so gradient shifts can re-expand it."""

    h_small: tuple[float, ...]
    qubits: tuple[int, ...]
    #: ``((slot, coeff), ...)`` — the angle over the table's parameter slots
    terms: tuple[tuple[int, float], ...]
    gate_name: str


@dataclass(eq=False)
class _DiagTable:
    """A maximal run of diagonal gates fused into phase-exponent vectors.

    Holds everything about the run that does not depend on *which* flat
    parameters drive it: rows are indexed by the run's own parameter
    slots ``0..k-1``. Tables are immutable (every array is read-only) and,
    up to the table cap, shared process-wide by :func:`_diag_table` — every
    candidate on a graph reads the same cost-layer table.
    """

    num_qubits: int
    #: the gates fused here, kept so a seam can fuse this run with its
    #: neighbours (see :func:`_stitch`)
    run: tuple[_RunGate, ...]
    #: parameter-independent part of the exponent (None when zero)
    gen_const: np.ndarray | None
    #: ``(k, 2^n)`` generator vectors, one row per parameter slot
    gens: np.ndarray
    #: per-occurrence generators for parameter-shift injection
    atoms: tuple[_DiagAtom, ...]
    #: ``exp(1j * gen_const)`` precomputed when the run is parameter-free
    static_phase: np.ndarray | None

    @cached_property
    def lookup(self) -> tuple:
        """Unique-value decomposition of the phase exponent.

        The exponent column at basis state ``z`` is ``const[z] + sum_j x_j
        gens[j, z]``; a cost layer takes only ~num_edges distinct values
        over all 2^n basis states, so exponentials are computed per
        *unique* column and gathered — O(B*U) exps plus an O(B*2^n) take
        instead of O(B*2^n) exps. ``(gens_u, const_u, inverse)`` as
        read-only host arrays; all ``None`` when the table is too dense to
        pay off. Computed on first batched use, once per table.
        """
        if self.gen_const is None:
            rows = self.gens
        else:
            rows = np.vstack([self.gen_const[None, :], self.gens])
        unique_cols, inverse = np.unique(rows, axis=1, return_inverse=True)
        if unique_cols.shape[1] * 4 > rows.shape[1]:
            return (None, None, None)  # dense table: exp directly
        inverse = inverse.reshape(-1)
        unique_cols.setflags(write=False)
        inverse.setflags(write=False)
        if self.gen_const is None:
            return (unique_cols, None, inverse)
        return (unique_cols[1:], unique_cols[0], inverse)

    @cached_property
    def atom_vectors(self) -> tuple[np.ndarray, ...]:
        """Every atom's generator expanded to the full basis (read-only)."""
        vectors = tuple(
            _expand_diag(atom.h_small, atom.qubits, self.num_qubits)
            for atom in self.atoms
        )
        for vector in vectors:
            vector.setflags(write=False)
        return vectors


class _DiagBlock:
    """One diagonal op of a program: a :class:`_DiagTable` driven by the
    flat parameters ``params`` (one per table slot).

    The arrays are per-op *views* of the table's: a program memoizes its
    device uploads by array identity (:meth:`CompiledProgram._dev`), so
    each op of each program uploads its own constants exactly as when
    every block owned a private copy, while the host numerics stay shared.
    """

    def __init__(self, table: _DiagTable, params: Sequence[int]) -> None:
        self.table = table
        #: flat indices of the parameters this block depends on
        self.params = tuple(params)
        self.param_indices = np.asarray(self.params, dtype=np.int64)
        self.gens = table.gens.view()
        self.gen_const = None if table.gen_const is None else table.gen_const.view()
        self.static_phase = (
            None if table.static_phase is None else table.static_phase.view()
        )
        self.atoms = table.atoms

    @cached_property
    def lookup(self) -> tuple:
        """This op's views of :attr:`_DiagTable.lookup`."""
        return tuple(
            None if part is None else part.view() for part in self.table.lookup
        )

    @cached_property
    def batch_step(self):
        """Which of the three phase forms this block is, as the step
        :meth:`CompiledProgram._states_batch` runs: a precomputed static
        phase, exp-of-unique-then-take, or a dense exp (a table too dense
        for the lookup to pay off). Read on first batched use, like the
        table's lookup it depends on."""
        if self.static_phase is not None:
            return self._static_step
        return self._dense_step if self.lookup[2] is None else self._lookup_step

    def _static_step(self, program, state, X, Xd, shifts_here, dedup):
        # broadcasts across rows
        return program.backend.xp.multiply(
            state, program._dev(self.static_phase), out=state
        )

    def _lookup_step(self, program, state, X, Xd, shifts_here, dedup):
        # few distinct generator values: exponentiate unique columns,
        # gather, and fold gradient shifts in as cached per-atom phases
        xp, dev = program.backend.xp, program._dev
        gens_u, const_u, inverse = self.lookup
        exponent_u = Xd[:, dev(self.param_indices)] @ dev(gens_u)
        if const_u is not None:
            exponent_u += dev(const_u)
        phases = xp.take(xp.exp(1j * exponent_u), dev(inverse), axis=1)
        for column, site, s in shifts_here:
            phases[column] *= dev(program._atom_shift_phase(self, site.atom, s))
        return xp.multiply(state, phases, out=state)

    def _dense_step(self, program, state, X, Xd, shifts_here, dedup):
        xp, dev = program.backend.xp, program._dev
        exponent = Xd[:, dev(self.param_indices)] @ dev(self.gens)
        if self.gen_const is not None:
            exponent += dev(self.gen_const)
        for column, site, s in shifts_here:
            exponent[column] += s * dev(self.table.atom_vectors[site.atom])
        return xp.multiply(state, xp.exp(1j * exponent), out=state)


def _fuse_diag(num_qubits: int, run: tuple[_RunGate, ...]) -> _DiagTable | None:
    """Sum the phase generators of ``run`` into one table (``None`` for a
    run of identity gates) — the only place a diagonal gate is expanded to
    ``2^n`` numbers."""
    dim = 2**num_qubits
    gen_const: np.ndarray | None = None
    gen_by_slot: dict[int, np.ndarray] = {}
    atoms: list[_DiagAtom] = []

    def add_const(vector: np.ndarray) -> None:
        nonlocal gen_const
        if gen_const is None:
            gen_const = np.zeros(dim)
        gen_const += vector

    for name, (h_small, g0_small), qubits, terms, offset in run:
        if any(g0_small):
            add_const(_expand_diag(g0_small, qubits, num_qubits))
        if offset:
            add_const(offset * _expand_diag(h_small, qubits, num_qubits))
        if terms:
            h_full = _expand_diag(h_small, qubits, num_qubits)
            for slot, coeff in terms:
                if slot not in gen_by_slot:
                    gen_by_slot[slot] = np.zeros(dim)
                gen_by_slot[slot] += coeff * h_full
            atoms.append(_DiagAtom(tuple(h_small), qubits, terms, name))

    if not gen_by_slot:
        if gen_const is None:
            return None
        static_phase = np.exp(1j * gen_const)
        static_phase.setflags(write=False)
        return _DiagTable(num_qubits, run, None, np.empty((0, dim)), (), static_phase)
    gens = np.stack([gen_by_slot[slot] for slot in range(len(gen_by_slot))])
    gens.setflags(write=False)
    if gen_const is not None:
        gen_const.setflags(write=False)
    return _DiagTable(num_qubits, run, gen_const, gens, tuple(atoms), None)


#: content-keyed: equal runs — the same cost layer under every candidate,
#: the same ``rz`` column at the head of many mixers — share one table
_diag_table = lru_cache(maxsize=256)(_fuse_diag)


def _fused_block(num_qubits: int, gates: Sequence[_RunGate]) -> _DiagBlock | None:
    """The op for a run of diagonal ``gates`` whose angle terms are over
    *flat* parameter indices (``None`` for a run of identity gates).

    The run is rewritten over its own parameter slots (ordered like the
    flat indices) before it is fused, so equal runs meet in one memoized
    table whichever parameters drive them.
    """
    params = sorted({j for _, _, _, terms, _ in gates for j, _ in terms})
    slot = {j: s for s, j in enumerate(params)}
    run = tuple(
        (name, phase, qubits, tuple((slot[j], coeff) for j, coeff in terms), offset)
        for name, phase, qubits, terms, offset in gates
    )
    table = _memoized(_diag_table, num_qubits)(num_qubits, run)
    return None if table is None else _DiagBlock(table, params)


@dataclass(frozen=True)
class _Factor:
    """One primitive gate inside a fused matrix chain."""

    name: str
    matrix_fn: object
    exprs: tuple[_Expr, ...]
    has_free: bool


class _ColumnPlan:
    """The part of a matrix column's batched apply that depends on neither
    the parameter values nor *which* flat parameters drive them — decided
    once per fragment op by the compile pass and passed by reference
    through :meth:`_MatrixColumn.rebound`, so every layer of every program
    with that mixer reads one plan."""

    def __init__(
        self,
        num_qubits: int,
        targets: tuple[tuple[int, ...], ...],
        factors: tuple[_Factor, ...],
    ) -> None:
        self.num_qubits = num_qubits
        self.dim = 2 ** len(targets[0])
        single = self.dim == 2
        #: one single-qubit chain on every qubit, qubit 0 first — what lets
        #: a static column (``h``) run :func:`_apply_1q_all`
        self.ascending = targets == tuple((q,) for q in range(num_qubits))
        #: the factor chain as ``(vectorized builder, None)`` / ``(None,
        #: static 2x2)`` entries — the hot mixer rotations and parameter-free
        #: factors such as ``h``, materialized once; ``None`` when some
        #: factor needs the per-row loop instead
        self.chain = None
        if single and all(
            not factor.exprs
            or (len(factor.exprs) == 1 and factor.name in _BATCH_MATRIX_FNS)
            for factor in factors
        ):
            self.chain = tuple(
                (_BATCH_MATRIX_FNS[factor.name], None)
                if factor.exprs
                else (None, factor.matrix_fn([]))
                for factor in factors
            )
        #: for the weight-shared column (one single-qubit chain on every
        #: qubit): target indices in kron groups of (4, ..., 4, 2, 1) qubits
        #: from the top qubit down; ``None`` for any other column
        self.groups = None
        if single and len(targets) == num_qubits:
            target_of = {target[0]: t_index for t_index, target in enumerate(targets)}
            n = num_qubits
            groups, top = [], n - 1
            for size in [4] * (n // 4) + [2] * (n % 4 // 2) + [1] * (n % 2):
                groups.append(tuple(target_of[top - j] for j in range(size)))
                top -= size
            self.groups = tuple(groups)


@dataclass
class _MatrixColumn:
    """One factor chain applied to each of several disjoint qubit tuples.

    For the weight-shared mixer columns all qubits carry the identical
    chain, so the matrix is built once per call and applied n times.
    """

    targets: tuple[tuple[int, ...], ...]
    factors: tuple[_Factor, ...]
    #: precomputed product when no factor has free parameters
    static_matrix: np.ndarray | None
    #: the schedule every rebinding of this column shares
    plan: _ColumnPlan

    def __post_init__(self) -> None:
        # all of a column that is a program op's own: every angle of the
        # chain, in factor order, as ``offset + coeff * X[:, index] + ...``
        exprs = [expr for factor in self.factors for expr in factor.exprs]
        self._offsets = np.array([offset for _, offset in exprs])
        self._terms = tuple(
            (angle, index, coeff)
            for angle, (terms, _) in enumerate(exprs)
            for index, coeff in terms
        )

    def rebound(self, param: int) -> _MatrixColumn:
        """This column of a one-parameter layer fragment, driven by flat
        parameter ``param`` instead (a new op, so every layer of every
        program uploads its own ``static_matrix`` — see :class:`_DiagBlock`)."""
        factors = tuple(
            _Factor(
                factor.name,
                factor.matrix_fn,
                tuple(
                    (tuple((param, coeff) for _, coeff in terms), offset)
                    for terms, offset in factor.exprs
                ),
                True,
            )
            if factor.has_free
            else factor
            for factor in self.factors
        )
        static = None if self.static_matrix is None else self.static_matrix.view()
        return _MatrixColumn(self.targets, factors, static, self.plan)

    # -- batched apply -----------------------------------------------------
    #
    # One of three steps per column, fixed by the plan. Chain matrices are
    # built on the host (tiny per-point stacks, heavy Python bookkeeping)
    # and uploaded right before the device gemms — the natural host→device
    # transfer point a real GPU backend pays per column.

    @property
    def batch_step(self):
        """The step :meth:`CompiledProgram._states_batch` runs for this op."""
        if self.static_matrix is not None:
            return self._static_step
        return self._general_step if self.plan.groups is None else self._shared_step

    def _static_step(self, program, state, X, Xd, shifts_here, dedup):
        """A parameter-free column (it has no shift sites)."""
        backend = program.backend
        xp = backend.xp
        matrix = program._dev(self.static_matrix)
        if self.plan.ascending:
            return _apply_1q_all(state, matrix, backend)
        if self.plan.dim == 2:
            # the flat view's bit strides match the single-state case, so
            # the strided 2x2 kernel applies unchanged
            flat = state.reshape(-1)
            for target in self.targets:
                flat = _apply_1q(flat, matrix, target[0], backend)
            return flat.reshape(state.shape)
        work = xp.ascontiguousarray(state.T)
        for target in self.targets:
            work = _contract(work, matrix, target, self.plan.num_qubits, backend)
        return xp.ascontiguousarray(work.T)

    def _shared_step(self, program, state, X, Xd, shifts_here, dedup):
        """The weight-shared column: per-point 2x2 chains on every qubit.

        Runs the scalar engine's rotating trick as stacked gemms over
        qubit *groups*. Each round exposes the next group of original
        qubits as the leading basis bits of every row; right-multiplying
        the (B, 2^{n-g}, 2^g) view by the per-point kron'd (B, 2^g, 2^g)
        stack cycles the axis order left by g, so once the group sizes sum
        to n every qubit has been hit once and the layout is back where it
        started. Grouping (4s, then a 2, then a 1) cuts gemm dispatches
        and fattens their inner dimension — measurably faster than
        per-qubit or per-pair rounds. The right-multiplier is the
        *transposed* kron, built as the kron of the transposed stacks
        (``kron(a, b).T == kron(a.T, b.T)`` entry for entry) so no
        per-call transposed copy is made.
        """
        backend = program.backend
        batch = state.shape[0]
        base, angle_rows = self._chain_stacks(X, dedup)
        shifts_by_target: dict[int, list] = {}
        for entry in shifts_here:
            shifts_by_target.setdefault(entry[1].target, []).append(entry)
        shared = {1: base.transpose(0, 2, 1)}
        uploaded: dict[int, object] = {}
        for group in self.plan.groups:
            size = len(group)
            if shifts_by_target and any(t in shifts_by_target for t in group):
                group_T = None
                for t_index in group:
                    qubit_T = self._patched(
                        base, angle_rows, shifts_by_target.get(t_index, ())
                    ).transpose(0, 2, 1)
                    group_T = qubit_T if group_T is None else _kron_pairs(group_T, qubit_T)
                group_T = backend.asarray(np.ascontiguousarray(group_T))
            else:
                group_T = uploaded.get(size)
                if group_T is None:
                    uploaded[size] = group_T = backend.asarray(
                        np.ascontiguousarray(_shared_kron(shared, size))
                    )
            state = (
                state.reshape(batch, 1 << size, -1).transpose(0, 2, 1) @ group_T
            ).reshape(batch, -1)
        return state

    def _general_step(self, program, state, X, Xd, shifts_here, dedup):
        """Multi-qubit targets and partial columns: the trailing-batch
        kernels on a transposed view. Matrix stacks are assembled (and
        shift-patched) on the host, uploaded per target."""
        backend = program.backend
        xp = backend.xp
        base, angle_rows = self._chain_stacks(X, dedup)
        work = xp.ascontiguousarray(state.T)
        base_trailing = np.ascontiguousarray(np.moveaxis(base, 0, -1))
        base_trailing_dev = None
        for t_index, target in enumerate(self.targets):
            shifted = [entry for entry in shifts_here if entry[1].target == t_index]
            if shifted:
                patched = base_trailing.copy()
                for column, site, s in shifted:
                    patched[:, :, column] = self._chain_matrix(
                        angle_rows[column], shift_factor=site.factor, shift=s
                    )
                matrices = backend.asarray(patched)
            else:
                if base_trailing_dev is None:
                    base_trailing_dev = backend.asarray(base_trailing)
                matrices = base_trailing_dev
            if len(target) == 1:
                work = _apply_1q_per_column(work, matrices, target[0], backend)
            else:
                work = _contract_per_column(
                    work, matrices, target, self.plan.num_qubits, backend
                )
        return xp.ascontiguousarray(work.T)

    def _chain_stacks(self, X: np.ndarray, dedup: bool) -> tuple[np.ndarray, np.ndarray]:
        """Per-point chain matrices ``(B, dim, dim)`` plus the raw angle
        rows (for shift re-builds).

        ``dedup`` collapses duplicate angle rows before building — worth
        it on gradient batches (one x tiled 2*sites times carries a
        handful of distinct combinations), pure overhead on optimizer
        batches whose rows are all distinct.
        """
        angle_rows = np.empty((X.shape[0], self._offsets.size))
        angle_rows[:] = self._offsets
        for angle, index, coeff in self._terms:
            angle_rows[:, angle] += coeff * X[:, index]
        if dedup:
            unique_rows, inverse = np.unique(angle_rows, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
        else:
            unique_rows, inverse = angle_rows, None
        if self.plan.chain is not None:
            # build all unique 2x2 factors from the whole angle vector at
            # once and chain them as stacked matmuls (a static factor
            # broadcasts against the stack)
            built = None
            cursor = 0
            for builder, static in self.plan.chain:
                if builder is None:
                    stack = static
                else:
                    stack = builder(unique_rows[:, cursor])
                    cursor += 1
                built = stack if built is None else stack @ built
        else:
            dim = self.plan.dim
            built = np.empty((unique_rows.shape[0], dim, dim), dtype=complex)
            for u_index, angles in enumerate(unique_rows):
                built[u_index] = self._chain_matrix(angles)
        if inverse is not None:
            built = built[inverse]
        return np.ascontiguousarray(built), angle_rows

    def _patched(self, base: np.ndarray, angle_rows: np.ndarray, shifted) -> np.ndarray:
        """``base`` with the rows of the ``shifted`` entries rebuilt at
        their shifted angle (``base`` itself when there are none)."""
        if not shifted:
            return base
        stack = base.copy()
        for column, site, s in shifted:
            stack[column] = self._chain_matrix(
                angle_rows[column], shift_factor=site.factor, shift=s
            )
        return stack

    def _chain_matrix(
        self, angles: np.ndarray, *, shift_factor: int = -1, shift: float = 0.0
    ) -> np.ndarray:
        matrix = None
        cursor = 0
        for f_index, factor in enumerate(self.factors):
            count = len(factor.exprs)
            values = list(angles[cursor:cursor + count])
            cursor += count
            if f_index == shift_factor:
                values[0] += shift
            factor_matrix = factor.matrix_fn(values)
            matrix = factor_matrix if matrix is None else factor_matrix @ matrix
        return matrix


@dataclass(frozen=True)
class _ShiftSite:
    """One parameterized gate occurrence, addressable for a shift rule."""

    op_index: int
    #: atom index for diagonal occurrences, -1 otherwise
    atom: int
    #: (factor, target) indices for matrix occurrences, (-1, -1) otherwise
    factor: int
    target: int
    coeffs: tuple[tuple[int, float], ...]
    gate_name: str
    shiftable: bool


# -- kernels ---------------------------------------------------------------


def _apply_1q(
    state: np.ndarray, matrix: np.ndarray, qubit: int, backend: ArrayBackend
) -> np.ndarray:
    """Strided in-place 2x2 apply on a flat (or flattened-batch) state.

    ``state`` may be ``(2^n,)`` or a ``(2^n, B)`` batch — either way bit
    ``qubit`` of the basis index has stride ``2^qubit * B``, so one
    reshape exposes it as the middle axis. Mutates (and returns) ``state``,
    copying first only if it is not C-contiguous — a reshape of a
    non-contiguous array would silently write into a throwaway copy.
    ``state`` and ``matrix`` must live under ``backend``.
    """
    if not state.flags.c_contiguous:
        state = backend.xp.ascontiguousarray(state)
    inner = (1 << qubit) * (state.size // state.shape[0])
    view = state.reshape(-1, 2, inner)
    a = view[:, 0, :]
    b = view[:, 1, :]
    new_a = matrix[0, 0] * a + matrix[0, 1] * b
    view[:, 1, :] = matrix[1, 0] * a + matrix[1, 1] * b
    view[:, 0, :] = new_a
    return state


def _apply_1q_all(state: np.ndarray, matrix: np.ndarray, backend: ArrayBackend) -> np.ndarray:
    """One 2x2 ``matrix`` on every qubit of a batch-major ``(B, 2^n)``
    state, qubit 0 first.

    Entry for entry the arithmetic of n :func:`_apply_1q` calls in qubit
    order — ``m00*a + m01*b`` and ``m10*a + m11*b`` per amplitude pair —
    but every round reads bit 0 and writes it back as the *top* bit of the
    other buffer, so after n rounds the layout is back where it started
    and no round pays the short inner loops that low qubits cost the
    strided kernel. Overwrites ``state``; returns whichever buffer holds
    the result.
    """
    xp = backend.xp
    if not state.flags.c_contiguous:
        state = xp.ascontiguousarray(state)
    batch, dim = state.shape
    m00, m01, m10, m11 = matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]
    scratch = xp.empty((batch, 2, dim // 2), dtype=complex)
    buffers = (state, xp.empty_like(state))
    #: per buffer: its bit-0 pairs to read, its two halves to write
    views = [
        (buf.reshape(batch, -1, 2)[:, :, 0], buf.reshape(batch, -1, 2)[:, :, 1],
         buf.reshape(batch, 2, -1))
        for buf in buffers
    ]
    rounds = dim.bit_length() - 1
    for r in range(rounds):
        a, b, _ = views[r % 2]
        out = views[(r + 1) % 2][2]
        xp.multiply(m00, a, out=out[:, 0])
        xp.multiply(m10, a, out=out[:, 1])
        xp.multiply(m01, b, out=scratch[:, 0])
        xp.multiply(m11, b, out=scratch[:, 1])
        xp.add(out, scratch, out=out)
    return buffers[rounds % 2]


def _contract(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: ArrayBackend,
) -> np.ndarray:
    """Lean apply_gate: same contraction, validation and reshape math done
    at compile time. Supports trailing batch axes."""
    m = len(qubits)
    batch_shape = state.shape[1:]
    tensor = state.reshape((2,) * num_qubits + batch_shape)
    gate_tensor = matrix.reshape((2,) * (2 * m))
    axes = [num_qubits - 1 - qubits[j] for j in reversed(range(m))]
    moved = backend.xp.tensordot(
        gate_tensor, tensor, axes=(list(range(m, 2 * m)), axes)
    )
    result = backend.xp.moveaxis(moved, list(range(m)), axes)
    return result.reshape(state.shape)


def _batch_mat_rx(angles: np.ndarray) -> np.ndarray:
    half = angles / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty((angles.size, 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = out[:, 1, 0] = -1j * s
    return out


def _batch_mat_ry(angles: np.ndarray) -> np.ndarray:
    half = angles / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty((angles.size, 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    return out


#: vectorized (angle-vector -> (U, 2, 2)) builders for the hot mixer
#: rotations; chains of anything else fall back to the per-row loop
_BATCH_MATRIX_FNS = {"rx": _batch_mat_rx, "ry": _batch_mat_ry}


def _kron_pairs(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Per-point ``kron(hi, lo)``: ``(B, d, d)`` x ``(B, e, e)`` stacks
    -> ``(B, d*e, d*e)``."""
    dim = hi.shape[1] * lo.shape[1]
    return np.einsum("bij,bkl->bikjl", hi, lo).reshape(hi.shape[0], dim, dim)


def _shared_kron(stacks: dict[int, np.ndarray], size: int) -> np.ndarray:
    """The ``size``-qubit kron power of ``stacks[1]``, squaring up from the
    largest power ``stacks`` already holds (and keeping what it builds)."""
    stack = stacks.get(size)
    if stack is None:
        half = _shared_kron(stacks, size // 2)
        stacks[size] = stack = _kron_pairs(half, half)
    return stack


def _apply_1q_per_column(
    state: np.ndarray, matrices: np.ndarray, qubit: int, backend: ArrayBackend
) -> np.ndarray:
    """Apply a different 2x2 matrix to every batch column on one qubit.

    ``state`` is ``(2^n, B)``; ``matrices`` is ``(2, 2, B)``. In the
    C-contiguous layout the batch index is the fastest axis, so exposing
    bit ``qubit`` as its own axis leaves ``B`` trailing — the per-column
    matrix entries then broadcast straight across it, turning the apply
    into six ufunc sweeps instead of a per-qubit einsum contraction.
    Mutates (and returns) ``state``; copies first only if non-contiguous.
    """
    if not state.flags.c_contiguous:
        state = backend.xp.ascontiguousarray(state)
    batch = state.shape[1]
    view = state.reshape(-1, 2, 1 << qubit, batch)
    a = view[:, 0]
    b = view[:, 1]
    new_a = matrices[0, 0] * a + matrices[0, 1] * b
    view[:, 1] = matrices[1, 0] * a + matrices[1, 1] * b
    view[:, 0] = new_a
    return state


def _contract_per_column(
    state: np.ndarray,
    matrices: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: ArrayBackend,
) -> np.ndarray:
    """Apply a different ``2^m x 2^m`` matrix to every batch column.

    ``state`` is ``(2^n, B)``; ``matrices`` is ``(2^m, 2^m, B)``.
    """
    m = len(qubits)
    batch = state.shape[1]
    axes = [num_qubits - 1 - qubits[j] for j in reversed(range(m))]
    tensor = state.reshape((2,) * num_qubits + (batch,))
    moved = backend.xp.moveaxis(tensor, axes, range(m))
    rest = moved.shape[m:]
    view = moved.reshape((2**m, -1, batch))
    out = backend.xp.einsum("ijb,jrb->irb", matrices, view)
    out = out.reshape((2,) * m + rest)
    out = backend.xp.moveaxis(out, range(m), axes)
    return out.reshape(state.shape)


# -- the program -----------------------------------------------------------


class CompiledProgram:
    """A lowered circuit: flat vectorized ops over a fixed parameter order.

    Produced by :func:`compile_circuit` / :func:`compile_ansatz`; see the
    module docstring for the op kinds. All evaluation entry points take
    flat parameter vectors in the compile-time ordering.
    """

    #: ``(program, lo, hi)`` row blocks of a stacked call (:class:`_Stack`)
    blocks: tuple = ()

    def __init__(
        self,
        num_qubits: int,
        num_parameters: int,
        ops: list[object],
        initial_state_label: str,
        graph: Graph | None,
        source_gates: int,
        backend: ArrayBackend | str | None = None,
        cost_values: np.ndarray | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_parameters = num_parameters
        self.ops = ops
        self.initial_state_label = initial_state_label
        self.graph = graph
        #: gate count of the source circuit (fusion diagnostics)
        self.source_gates = source_gates
        #: the array backend every evaluation runs under (see
        #: :mod:`repro.simulators.backends`); program constants are
        #: uploaded to it lazily, once, via :meth:`_dev`
        self.backend = get_array_backend(backend if backend is not None else "numpy")
        self._device: dict[int, object] = {}
        # the objective diagonal `energy`/`energies` contract against: an
        # explicit workload table when given, else the graph's MaxCut cuts
        # (the seed behavior — the maxcut workload passes the identical
        # memoized cut_values array, so this path stays bit-for-bit)
        if cost_values is not None:
            self._cut = np.asarray(cost_values, dtype=float)
            if self._cut.shape != (2**num_qubits,):
                raise ValueError(
                    f"cost_values has shape {self._cut.shape}; expected "
                    f"({2**num_qubits},) for {num_qubits} qubits"
                )
        else:
            self._cut = None if graph is None else cut_values(graph)
        # exp(1j * s * atom) vectors for the gradient's +-pi/2 shifts, per
        # distinct (h_small, qubits, s): a cost-layer edge appears once per
        # QAOA layer and shares one entry
        self._atom_shift_phases: dict[tuple, np.ndarray] = {}

    # -- introspection -----------------------------------------------------

    @property
    def num_ops(self) -> int:
        """Fused op count — compare against :attr:`source_gates`."""
        return len(self.ops)

    @cached_property
    def shift_sites(self) -> list[_ShiftSite]:
        """Every parameterized gate occurrence, in program order — read off
        the ops on first use, so programs that never differentiate (SPSA,
        COBYLA) never pay for it."""
        sites: list[_ShiftSite] = []
        for op_index, op in enumerate(self.ops):
            if isinstance(op, _DiagBlock):
                sites.extend(
                    _ShiftSite(
                        op_index=op_index,
                        atom=atom_index,
                        factor=-1,
                        target=-1,
                        coeffs=tuple(
                            (op.params[slot], coeff) for slot, coeff in atom.terms
                        ),
                        gate_name=atom.gate_name,
                        shiftable=atom.gate_name in SHIFT_RULE_GATES,
                    )
                    for atom_index, atom in enumerate(op.atoms)
                )
                continue
            for t_index in range(len(op.targets)):
                for f_index, factor in enumerate(op.factors):
                    if not factor.has_free:
                        continue
                    sites.append(
                        _ShiftSite(
                            op_index=op_index,
                            atom=-1,
                            factor=f_index,
                            target=t_index,
                            coeffs=factor.exprs[0][0],
                            gate_name=factor.name,
                            shiftable=(
                                factor.name in SHIFT_RULE_GATES
                                and len(factor.exprs) == 1
                            ),
                        )
                    )
        return sites

    @property
    def num_shift_sites(self) -> int:
        """Parameterized gate occurrences (2 energy evals each per
        gradient, matching the dense engine's accounting)."""
        return len(self.shift_sites)

    # -- single evaluation -------------------------------------------------

    def _dev(self, host: np.ndarray):
        """Device-resident view of a *persistent* host constant.

        Program constants (generator vectors, static phases, the cut
        table, lookup tables, atom vectors — most of them views of tables
        shared with other programs) live on the host and are uploaded
        through ``backend.asarray`` the first time an evaluation touches
        them; the upload is memoized by object identity, so a device
        backend pays one transfer per constant per program lifetime. On
        the NumPy backend this is the identity.
        """
        key = id(host)
        dev = self._device.get(key)
        if dev is None:
            dev = self.backend.asarray(host)
            self._device[key] = dev
        return dev

    def _initial_states(self, batch: int):
        """``batch`` fresh device-resident rows of the initial state (safe
        to mutate), filled in place — no host vector built or uploaded."""
        xp = self.backend.xp
        shape = (batch, 2**self.num_qubits)
        if self.initial_state_label == "+":
            return xp.full(shape, 2.0 ** (-self.num_qubits / 2), dtype=complex)
        if self.initial_state_label == "0":
            state = xp.zeros(shape, dtype=complex)
            state[:, 0] = 1.0
            return state
        raise ValueError(
            f"unknown initial state label {self.initial_state_label!r}"
        )

    def _atom_shift_phase(
        self, op: _DiagBlock, atom_index: int, shift: float
    ) -> np.ndarray:
        """``exp(1j * shift * atom_generator)`` memoized per (atom, shift):
        the gradient's +-pi/2 shifts reuse two vectors per distinct edge
        generator instead of re-exponentiating every call."""
        atom = op.atoms[atom_index]
        key = (atom.h_small, atom.qubits, shift)
        phase = self._atom_shift_phases.get(key)
        if phase is None:
            phase = np.exp(1j * shift * op.table.atom_vectors[atom_index])
            self._atom_shift_phases[key] = phase
        return phase

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {x.shape[0]}"
            )
        return x

    def state(self, x: Sequence[float]) -> np.ndarray:
        """The final statevector at the flat parameter vector ``x``, as a
        host array.

        (Shifted evaluations for the gradient's parameter-shift rule go
        through the batched :meth:`states` path, which injects shifts per
        column — there is deliberately no single-state shift variant.)
        """
        return self.backend.to_host(self._state_device(self._check_x(x)))

    def _state_device(self, x: np.ndarray):
        """:meth:`state` without the final device→host crossing; ``x`` is
        an already-validated host vector."""
        backend = self.backend
        xp = backend.xp
        state = self._initial_states(1)[0]
        n = self.num_qubits
        for op in self.ops:
            if isinstance(op, _DiagBlock):
                if op.static_phase is not None:
                    state = xp.multiply(
                        state, self._dev(op.static_phase), out=state
                    )
                    continue
                exponent = xp.dot(
                    backend.asarray(x[op.param_indices]), self._dev(op.gens)
                )
                if op.gen_const is not None:
                    exponent = exponent + self._dev(op.gen_const)
                state = xp.multiply(state, xp.exp(1j * exponent), out=state)
            else:
                if op.static_matrix is not None:
                    matrix = self._dev(op.static_matrix)
                else:
                    matrix = backend.asarray(self._column_matrix(op, x))
                if len(op.targets) == n and len(op.targets[0]) == 1:
                    # The column covers every qubit with one shared 2x2 (the
                    # weight-shared mixer case): rotate the leading qubit
                    # axis through a small gemm n times. Each product takes
                    # (2, 2^{n-1}) -> (2^{n-1}, 2), cycling the axis order
                    # left, so after n rounds every qubit has been hit once
                    # and the layout is back where it started — one BLAS
                    # call per qubit instead of eight strided ufunc sweeps.
                    transposed = matrix.T
                    for _ in range(n):
                        state = state.reshape(2, -1).T @ transposed
                    state = state.reshape(-1)
                    continue
                for target in op.targets:
                    if len(target) == 1:
                        state = _apply_1q(state, matrix, target[0], backend)
                    else:
                        state = _contract(state, matrix, target, n, backend)
        return state

    def _column_matrix(self, op: _MatrixColumn, x: np.ndarray) -> np.ndarray:
        if op.static_matrix is not None:
            return op.static_matrix
        matrix = None
        for factor in op.factors:
            values = [_eval_expr(e, x) for e in factor.exprs]
            factor_matrix = factor.matrix_fn(values)
            matrix = factor_matrix if matrix is None else factor_matrix @ matrix
        return matrix

    def energy(self, x: Sequence[float]) -> float:
        """``<C>`` of the attached graph at ``x``."""
        state = self._state_device(self._check_x(x))
        probs = state.real**2 + state.imag**2
        value = self.backend.xp.dot(probs, self._dev(self._cut_table()))
        return float(self.backend.to_host(value))

    def _cut_table(self) -> np.ndarray:
        if self._cut is None:
            raise ValueError(
                "program was compiled without a graph; only state() is available"
            )
        return self._cut

    # -- batched evaluation ------------------------------------------------

    def _check_batch(self, X) -> np.ndarray:
        """``X`` as a ``(B, num_parameters)`` host array — the one place a
        batch is coerced and checked, at the public entry points."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected batch of {self.num_parameters}-parameter rows, "
                f"got shape {X.shape}"
            )
        return X

    def states(self, X: np.ndarray) -> np.ndarray:
        """Final statevectors of a ``(B, num_parameters)`` batch, as
        ``(2^n, B)`` host columns."""
        xp = self.backend.xp
        return self.backend.to_host(
            xp.ascontiguousarray(self._states_batch(self._check_batch(X)).T)
        )

    @cached_property
    def _steps(self) -> tuple:
        """The batched schedule: one bound step per op, each already the
        form its plan (or table) selected — see the module docstring for
        what is decided when."""
        return tuple(op.batch_step for op in self.ops)

    def _states_batch(
        self,
        X: np.ndarray,
        shifts: Sequence[tuple[_ShiftSite, float]] | None = None,
    ) -> np.ndarray:
        """Batch-major final statevectors: row ``b`` is the state at
        ``X[b]``, an already-validated ``(B, num_parameters)`` host array.
        The batch axis leads so every per-point quantity (diag exponents,
        probabilities, cut energies) stays row-contiguous and the
        per-column matrix applies reduce to stacked gemms.

        ``X`` stays on the host (angle-expression evaluation and dedup
        are host bookkeeping) and is uploaded once as ``Xd``; the state
        and every per-basis-state quantity live on the array backend.
        ``shifts`` (one ``(site, shift)`` per row) is the gradient's: the
        same steps run, each handed the ``(row, site, shift)`` entries that
        land on its op, and matrix columns dedup their angle rows before
        building — a gradient batch tiles one x across 2*sites rows.
        """
        by_op: dict[int, list[tuple[int, _ShiftSite, float]]] = {}
        for column, (site, s) in enumerate(shifts or ()):
            by_op.setdefault(site.op_index, []).append((column, site, s))
        dedup = shifts is not None
        Xd = self.backend.asarray(X)
        state = self._initial_states(X.shape[0])
        for op_index, step in enumerate(self._steps):
            if self.blocks and isinstance(self.ops[op_index], _DiagBlock):
                for program, lo, hi in self.blocks:  # in place, on its rows
                    rows = slice(lo, hi)
                    program._steps[op_index](program, state[rows], X[rows], Xd[rows], (), dedup)
            else:
                state = step(self, state, X, Xd, by_op.get(op_index, ()), dedup)
        return state

    def energies(self, X: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of a ``(B, num_parameters)`` batch."""
        return self._cut_energies(self._states_batch(self._check_batch(X)))

    def _cut_energies(self, states) -> np.ndarray:
        """Row-wise ``sum_z |amp|^2 cut(z)`` without materializing the
        probability matrix (two single-pass contractions on the backend;
        only the ``(B,)`` energy vector crosses back to the host)."""
        cut = self._dev(self._cut_table())
        xp = self.backend.xp
        values = xp.einsum(
            "bz,bz,z->b", states.real, states.real, cut
        ) + xp.einsum(
            "bz,bz,z->b", states.imag, states.imag, cut
        )
        return self.backend.to_host(values)

    # -- gradient ----------------------------------------------------------

    def gradient(self, x: Sequence[float]) -> np.ndarray:
        """Exact parameter-shift gradient of :meth:`energy` at ``x``.

        All ``2 * num_shift_sites`` shifted evaluations run as one batched
        pass (chunked to bound memory) with the shift injected into the
        relevant op, instead of rebuilding a shifted circuit per site.
        """
        return self.gradients(self._check_x(x)[None, :])[0]

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Parameter-shift gradients for every row of a ``(B,
        num_parameters)`` batch, as ``(B, num_parameters)``.

        The ``B * 2 * num_shift_sites`` shifted evaluations of the whole
        batch share the chunked shift-injecting :meth:`_states_batch`
        passes — the seam batch-native gradient optimizers (Adam over a
        restart population) ride instead of looping per-point
        :meth:`gradient` calls.
        """
        X = self._check_batch(X)
        batch = X.shape[0]
        grads = np.zeros((batch, self.num_parameters))
        sites = self.shift_sites
        if not sites or batch == 0:
            return grads
        for site in sites:
            if not site.shiftable:
                raise NotImplementedError(
                    f"no shift rule for gate '{site.gate_name}'"
                )
        specs: list[tuple[_ShiftSite, float]] = []
        for site in sites:
            specs.append((site, +_SHIFT))
            specs.append((site, -_SHIFT))
        per_point = len(specs)
        total = batch * per_point
        energies = np.empty(total)
        chunk = max(1, (1 << 22) >> self.num_qubits)
        for start in range(0, total, chunk):
            rows = np.arange(start, min(start + chunk, total))
            energies[rows] = self._cut_energies(
                self._states_batch(
                    X[rows // per_point], [specs[r % per_point] for r in rows]
                )
            )
        paired = energies.reshape(batch, len(sites), 2)
        for k, site in enumerate(sites):
            site_grad = (paired[:, k, 0] - paired[:, k, 1]) / 2.0
            for j, coeff in site.coeffs:
                grads[:, j] += coeff * site_grad
        return grads


# -- the graph group ---------------------------------------------------------

#: most rows one stacked call takes, in whole graphs: one graph's block is
#: never split, which would change the shape of a k >= 2 block's ``(B, k) @
#: (k, U)`` exponent gemm and with it the last bits. Measured, us per row of
#: ``energies`` (n = 10, ``('rx', 'ry')``, p = 3) at B = 1 2 4 8 12 16 20 24
#: 32: 215 128 85 65 58 53 51 69 78; stacked at two rows a graph 126 (B = 2),
#: 79 (8), 68 (20), 90 (24). Rows leave the cache at 24 on a quiet box, at 12
#: beside a busy neighbour, and then cost a third more; 8 is under both and
#: within 15% of the best (table in docs/architecture.md).
STACK_ROWS = 8


class _Stack(CompiledProgram):
    """The row blocks of several programs of one schedule as one ``energies``
    call (inherited; a stack has no gradients). The initial state and every
    matrix column — the lead's ops, which the members share — run once on the
    stacked rows; each diagonal block and the cut contraction run per member
    on its own row slice, so every per-member array has the shape and row
    order of that member's own call and the result is bit-identical to it."""

    def __init__(self, programs: Sequence[CompiledProgram], counts: Sequence[int]) -> None:
        # the lead's schedule, constants and device memo, by reference
        self.__dict__.update(programs[0].__dict__)
        stops = np.cumsum(counts).tolist()
        self.blocks = tuple(zip(programs, [0] + stops, stops))

    def _cut_energies(self, states) -> np.ndarray:
        return np.concatenate(
            [program._cut_energies(states[lo:hi]) for program, lo, hi in self.blocks]
        )


class ProgramGroup:
    """One candidate's programs, one per graph, evaluated together: they
    share the mixer ops and the parameter layout and differ only in their
    diagonal tables, so the graph axis is a batch axis. Rows are partitioned
    graph-major and reach the engine in chunks of consecutive whole graphs of
    one schedule, at most :data:`STACK_ROWS` rows each; a graph alone in its
    chunk is that program's own call."""

    def __init__(self, programs: Sequence[CompiledProgram]) -> None:
        self._programs = tuple(programs)
        #: per program, what a stacked call runs once for all its members
        self._schedules = [
            (program.num_qubits, program.initial_state_label, type(program.backend))
            + tuple(isinstance(op, _DiagBlock) or (op.targets, op.factors) for op in program.ops)
            for program in self._programs
        ]
        #: chunks per row ownership seen, for one candidate's training
        self._plans: dict[bytes, list] = {}

    def _plan(self, owner: np.ndarray) -> list[tuple[CompiledProgram, np.ndarray]]:
        """``(program or stack, its rows)`` per chunk, for rows owned so."""
        chunks: list[tuple[list, list]] = []  # (program, row count) members; row indices
        held = None  # the open chunk's schedule
        for index, (program, schedule) in enumerate(zip(self._programs, self._schedules)):
            mine = np.flatnonzero(owner == index).tolist()
            if not mine:
                continue
            if schedule != held or len(chunks[-1][1]) + len(mine) > STACK_ROWS:
                chunks.append(([], []))
                held = schedule
            chunks[-1][0].append((program, len(mine)))
            chunks[-1][1].extend(mine)
        return [
            (members[0][0] if len(members) == 1 else _Stack(*zip(*members)), np.array(rows))
            for members, rows in chunks
        ]

    def energies(self, X: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """``<C>`` of every row ``X[i]`` under program ``owner[i]``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        key = owner.tobytes()
        plan = self._plans.get(key) or self._plans.setdefault(key, self._plan(owner))
        out = np.empty(len(X))
        for lead, rows in plan:
            out[rows] = lead.energies(X[rows])
        return out


# -- the compile pass ------------------------------------------------------


def compile_circuit(
    circuit: QuantumCircuit,
    parameters: Sequence[Parameter],
    *,
    initial_state: str = "0",
    graph: Graph | None = None,
    backend: ArrayBackend | str | None = None,
    cost_values: np.ndarray | None = None,
) -> CompiledProgram:
    """Lower ``circuit`` over the flat parameter ordering ``parameters``.

    ``initial_state`` is ``"0"`` or ``"+"``; pass ``graph`` to enable the
    ``energy``/``energies``/``gradient`` entry points, and optionally
    ``cost_values`` (a ``(2^n,)`` objective diagonal from a
    :mod:`repro.workloads` workload) to contract against something other
    than the graph's MaxCut table. ``backend`` selects the array backend
    the program evaluates under — a registered name or an
    :class:`~repro.simulators.backends.ArrayBackend` instance (default
    ``"numpy"``); the compile pass itself always runs on the host.
    """
    n = circuit.num_qubits
    index = {param: j for j, param in enumerate(parameters)}
    if len(index) != len(parameters):
        raise ValueError("duplicate parameters in the compile-time ordering")
    instructions = list(circuit.instructions)
    source_gates = len(instructions)

    # Fold a complete leading Hadamard column into the |+>^n start.
    initial_label = initial_state
    if initial_state == "0":
        seen: set = set()
        cursor = 0
        while (
            cursor < len(instructions)
            and instructions[cursor].gate.name == "h"
            and instructions[cursor].qubits[0] not in seen
        ):
            seen.add(instructions[cursor].qubits[0])
            cursor += 1
        if len(seen) == n:
            instructions = instructions[cursor:]
            initial_label = "+"

    ops: list[object] = []
    diag_run: list = []  # pending diagonal instructions
    sq_run: list = []  # pending non-diagonal single-qubit instructions

    def flush_diag() -> None:
        if not diag_run:
            return
        gates = []
        for instr in diag_run:
            spec = instr.gate.spec
            terms, offset = (
                _lower_expr(instr.gate.params[0], index) if spec.num_params else ((), 0.0)
            )
            gates.append((spec.name, spec.diag_phase, instr.qubits, terms, offset))
        diag_run.clear()
        block = _fused_block(n, gates)
        if block is not None:
            ops.append(block)

    def make_factor(gate) -> _Factor:
        exprs = tuple(_lower_expr(value, index) for value in gate.params)
        return _Factor(
            name=gate.spec.name,
            matrix_fn=gate.spec.matrix_fn,
            exprs=exprs,
            has_free=any(terms for terms, _ in exprs),
        )

    def emit_column(
        targets: tuple[tuple[int, ...], ...], factors: tuple[_Factor, ...]
    ) -> None:
        static_matrix = None
        if not any(factor.has_free for factor in factors):
            matrix = None
            for factor in factors:
                values = [offset for _, offset in factor.exprs]
                factor_matrix = factor.matrix_fn(values)
                matrix = factor_matrix if matrix is None else factor_matrix @ matrix
            static_matrix = matrix
        ops.append(
            _MatrixColumn(targets, factors, static_matrix, _ColumnPlan(n, targets, factors))
        )

    def flush_sq() -> None:
        if not sq_run:
            return
        # Group the run per qubit (distinct qubits commute, per-qubit order
        # is preserved), then share one op across qubits whose factor
        # chains are structurally identical — the weight-shared mixer case.
        per_qubit: dict[int, list[_Factor]] = {}
        qubit_order: list[int] = []
        for instr in sq_run:
            qubit = instr.qubits[0]
            if qubit not in per_qubit:
                per_qubit[qubit] = []
                qubit_order.append(qubit)
            per_qubit[qubit].append(make_factor(instr.gate))
        sq_run.clear()
        groups: dict[tuple, list[int]] = {}
        group_order: list[tuple] = []
        for qubit in qubit_order:
            signature = tuple(
                (factor.name, factor.exprs) for factor in per_qubit[qubit]
            )
            if signature not in groups:
                groups[signature] = []
                group_order.append(signature)
            groups[signature].append(qubit)
        for signature in group_order:
            qubits = groups[signature]
            emit_column(
                tuple((q,) for q in qubits), tuple(per_qubit[qubits[0]])
            )

    for instr in instructions:
        spec = instr.gate.spec
        if spec.is_diagonal:
            flush_sq()
            diag_run.append(instr)
        elif spec.num_qubits == 1:
            flush_diag()
            sq_run.append(instr)
        else:
            flush_diag()
            flush_sq()
            emit_column((instr.qubits,), (make_factor(instr.gate),))
    flush_diag()
    flush_sq()

    return CompiledProgram(
        num_qubits=n,
        num_parameters=len(parameters),
        ops=ops,
        initial_state_label=initial_label,
        graph=graph,
        source_gates=source_gates,
        backend=backend,
        cost_values=cost_values,
    )


# -- layer fragments ---------------------------------------------------------
#
# A QAOA program is p copies of [cost(gamma_k), mixer(beta_k)]. Every
# candidate on a graph has the identical cost layer and every graph of a
# size the identical mixer, so each is lowered once, as a one-parameter
# program, and a candidate's program is stitched from the two.


@lru_cache(maxsize=256)
def _cost_fragment(workload: Workload, graph: Graph) -> CompiledProgram:
    """``workload``'s one-layer phase separator on ``graph``, lowered over
    its single ``gamma`` — keyed by the workload *object*, so a workload
    re-registered under an old name never reads its predecessor's layer."""
    gamma = Parameter("gamma")
    layer = workload.append_cost_layer(
        QuantumCircuit(graph.num_nodes, name="cost"), graph, gamma
    )
    return compile_circuit(layer, [gamma], initial_state="+")


@lru_cache(maxsize=1024)
def _mixer_fragment(tokens: tuple[str, ...], num_qubits: int) -> CompiledProgram:
    """The one-layer mixer ``tokens`` on ``num_qubits`` qubits, lowered
    over its single shared ``beta``."""
    # imported lazily: repro.qaoa imports this module
    from repro.qaoa.mixers import mixer_layer

    beta = Parameter("beta")
    # "+": a fragment is mid-circuit, its leading ``h`` column is a gate
    return compile_circuit(
        mixer_layer(num_qubits, tokens, beta), [beta], initial_state="+"
    )


def _stitch(cost: CompiledProgram, mixer: CompiledProgram, p: int) -> list[object]:
    """The ops of ``p x [cost(gamma_k), mixer(beta_k)]`` over the flat
    ``[gammas..., betas...]`` ordering, from the two one-layer fragments.

    Matrix columns are re-indexed; diagonal blocks that meet at a seam (a
    mixer's ``rz`` head after the cost layer, its tail before the next)
    are one diagonal run to :func:`compile_circuit`, so their gates are
    concatenated and fused by the same :func:`_diag_table` — the
    stitched program equals the flat compile of the whole circuit op for
    op. Requires that ``cost`` is a single diagonal block, which keeps
    matrix columns of different layers apart.
    """
    n = cost.num_qubits
    ops: list[object] = []
    # diagonal blocks adjacent so far, each with its flat parameter
    seam: list[tuple[_DiagBlock, int]] = []

    def flush_seam() -> None:
        if len(seam) == 1:
            # nothing to fuse: the fragment's own table, no key to build
            (block, param), = seam
            ops.append(_DiagBlock(block.table, (param,) if block.params else ()))
        elif seam:
            ops.append(
                _fused_block(
                    n,
                    [
                        (name, phase, qubits, tuple((param, c) for _, c in terms), offset)
                        for block, param in seam
                        for name, phase, qubits, terms, offset in block.table.run
                    ],
                )
            )
        seam.clear()

    for k in range(p):
        for fragment, param in ((cost, k), (mixer, p + k)):
            for op in fragment.ops:
                if isinstance(op, _DiagBlock):
                    seam.append((op, param))
                else:
                    flush_seam()
                    ops.append(op.rebound(param))
    flush_seam()
    return ops


def compile_ansatz(
    ansatz: QAOAAnsatz, *, backend: ArrayBackend | str | None = None
) -> CompiledProgram:
    """Lower a QAOA ansatz into its compiled program.

    The parameter ordering is the ansatz's flat ``[gammas..., betas...]``
    layout — the same vectors the optimizers drive — and the ansatz's
    graph plus its workload's objective diagonal are attached so the
    energy entry points are live for whichever problem built the ansatz.
    ``backend`` picks the array backend evaluations run under (see
    :mod:`repro.simulators.backends`; default ``"numpy"``).

    The program is stitched from the memoized cost-layer and mixer
    fragments (see :func:`_stitch`) without building ``ansatz.circuit``;
    only a workload whose cost layer is not one parameterized diagonal
    block (none of the built-ins; also any graph without edges) is
    lowered gate by gate from the circuit.
    """
    from repro.workloads import get_workload

    workload = get_workload(ansatz.workload)
    graph = ansatz.graph
    n = graph.num_nodes
    cost_values = workload.objective_values(graph)
    cost = _memoized(_cost_fragment, n)(workload, graph)
    if not (
        len(cost.ops) == 1
        and isinstance(cost.ops[0], _DiagBlock)
        and cost.ops[0].params
    ):
        return compile_circuit(
            ansatz.circuit,
            ansatz.parameters,
            initial_state=ansatz.initial_state_label,
            graph=graph,
            backend=backend,
            cost_values=cost_values,
        )
    mixer = _memoized(_mixer_fragment, n)(ansatz.mixer_tokens, n)
    return CompiledProgram(
        num_qubits=n,
        num_parameters=ansatz.num_parameters,
        ops=_stitch(cost, mixer, ansatz.p),
        # with its own Hadamard column or without, the program starts in |+>^n
        initial_state_label="+",
        graph=graph,
        source_gates=(n if ansatz.initial_hadamard else 0)
        + ansatz.p * (cost.source_gates + mixer.source_gates),
        backend=backend,
        cost_values=cost_values,
    )
