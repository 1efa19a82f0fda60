"""QAOA energy evaluation: ``<gamma, beta| C |gamma, beta>``.

:class:`AnsatzEnergy` is the objective the classical optimizer drives (the
Evaluator module's inner loop). It supports two engines:

* ``"compiled"`` (default) — the ansatz is lowered once by
  :func:`repro.simulators.compiled.compile_ansatz` into a flat sequence of
  fused array ops (cost layers become single precomputed phase diagonals);
  every optimizer step then runs with zero circuit rebuilds, zero dict
  bindings, and zero gate-matrix re-materialization. Numerically
  equivalent to ``"statevector"`` to ~1e-12 and roughly an order of
  magnitude faster on the paper's workloads; also the only engine with a
  batched :meth:`AnsatzEnergy.values` fast path, and the only one with a
  pluggable *array backend* (``array_backend=``: NumPy default, CuPy when
  installed, or the metered mock GPU — see
  :mod:`repro.simulators.backends`).
* ``"statevector"`` — per-gate dense simulation of the freshly bound
  circuit; the exactness oracle the compiled engine is pinned against in
  the equivalence tests, and the right choice when instrumenting or
  mutating circuits between evaluations.

(The tensor-network simulator, :mod:`repro.qtensor`, is not an engine
here: it evaluates MaxCut only, ~5000x slower than ``"compiled"`` at the
paper's sizes, and earns its keep where no dense state fits — a p=2
energy at n=48 in under a reference-box second. It is driven directly —
``QTensorSimulator().maxcut_energy``, on the same array backends — by the
ablation benches and the cross-engine pin.)

Exact gradients come from the two-term parameter-shift rule applied per
gate occurrence: every parameterized gate in the package generates
evolution with a single frequency (Pauli-word generators, or projectors for
``p``/``cp``), so ``dE/da = [E(a + pi/2) - E(a - pi/2)] / 2`` holds exactly
and chain-rules through the linear angle expressions (``2*beta``,
``-w*gamma``). The compiled engine evaluates all shifted energies in one
batched pass; the dense engine reconstructs a shifted circuit per
occurrence.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.parameters import Parameter, ParameterExpression
from repro.qaoa.ansatz import QAOAAnsatz
from repro.simulators.backends import ArrayBackend, get_array_backend
from repro.simulators.compiled import SHIFT_RULE_GATES, CompiledProgram, ProgramGroup
from repro.simulators.statevector import simulate, zero_state
from repro.utils.validation import check_choice

__all__ = ["AnsatzEnergy", "ENGINES", "NegatedEnergy", "NegatedPopulation"]

#: the recognised simulation engines, fastest first
ENGINES = ("compiled", "statevector")

_SHIFT = np.pi / 2

#: gates whose expectation is single-frequency in the angle (shift rule exact)
_SHIFTABLE = SHIFT_RULE_GATES


class AnsatzEnergy:
    """Callable energy (and gradient) of a QAOA ansatz on its graph."""

    def __init__(
        self,
        ansatz: QAOAAnsatz,
        *,
        engine: str = "compiled",
        array_backend: str | ArrayBackend = "numpy",
    ) -> None:
        check_choice(engine, "engine", ENGINES)
        self.ansatz = ansatz
        self.engine = engine
        #: the array backend the compiled engine evaluates under (see
        #: :mod:`repro.simulators.backends`); resolved eagerly so an
        #: unknown name fails here, not on the first energy call
        self.array_backend = get_array_backend(array_backend)
        self._program: CompiledProgram | None = None
        self.num_evaluations = 0

    @property
    def program(self) -> CompiledProgram:
        """The compiled program (lowered lazily, once per ansatz)."""
        if self._program is None:
            self._program = self.ansatz.compile(backend=self.array_backend)
        return self._program

    # -- energy -----------------------------------------------------------------

    def value(self, x: Sequence[float]) -> float:
        """``<C>`` at the flat parameter vector ``[gammas..., betas...]``."""
        if self.engine == "compiled":
            self.num_evaluations += 1
            return self.program.energy(x)
        return self._energy_of_circuit(self.ansatz.bind(list(x)))

    def __call__(self, x: Sequence[float]) -> float:
        return self.value(x)

    def negative_objective(self) -> NegatedEnergy:
        """The minimization view of this energy as a batch objective
        (:mod:`repro.optimizers.base`) — scalar calls, batched ``values``,
        and (batched) parameter-shift gradients all negated, so
        batch-native optimizers can drive it directly."""
        return NegatedEnergy(self)

    def values(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        """``<C>`` for a batch of parameter vectors (rows of ``X``).

        The compiled engine pushes the whole batch through its ops with a
        trailing batch axis; the dense engine falls back to a loop.
        """
        if self.engine == "compiled":
            # the program coerces and checks the batch itself, once
            energies = self.program.energies(X)
            self.num_evaluations += energies.shape[0]
            return energies
        return np.array(
            [self.value(row) for row in np.atleast_2d(np.asarray(X, dtype=float))]
        )

    def _dense_initial_state(self) -> np.ndarray:
        """|0...0>: the circuit carries its own H column."""
        return zero_state(self.ansatz.circuit.num_qubits)

    def final_state(self, x: Sequence[float]) -> np.ndarray:
        """The trained circuit's output statevector at ``x`` (dense)."""
        if self.engine == "compiled":
            return self.program.state(x)
        return simulate(self.ansatz.bind(list(x)), self._dense_initial_state())

    def _objective_table(self) -> np.ndarray:
        """The workload's ``(2^n,)`` objective diagonal for this graph."""
        from repro.workloads import get_workload

        return get_workload(self.ansatz.workload).objective_values(self.ansatz.graph)

    def _energy_of_circuit(self, bound: QuantumCircuit) -> float:
        """The dense engine's ``<C>`` of an already-bound circuit."""
        self.num_evaluations += 1
        state = simulate(bound, self._dense_initial_state())
        probs = np.abs(state) ** 2
        return float(probs @ self._objective_table())

    # -- gradient ---------------------------------------------------------------

    def gradient(self, x: Sequence[float]) -> np.ndarray:
        """Exact parameter-shift gradient of :meth:`value` at ``x``.

        Cost: two energy evaluations per parameterized gate occurrence per
        parameter it contains — batched into one vectorized pass by the
        compiled engine, sequential shifted circuits otherwise.
        """
        if self.engine == "compiled":
            grad = self.program.gradient(x)
            self.num_evaluations += 2 * self.program.num_shift_sites
            return grad
        x = list(x)
        params = self.ansatz.parameters
        bindings: dict[Parameter, float] = dict(zip(params, x))
        grad = np.zeros(len(params))
        instructions = self.ansatz.circuit.instructions
        for gate_idx, instr in enumerate(instructions):
            free = instr.gate.parameters
            if not free:
                continue
            if instr.gate.name not in _SHIFTABLE:
                raise NotImplementedError(
                    f"no shift rule for gate '{instr.gate.name}'"
                )
            (angle_expr,) = instr.gate.params  # all shiftable gates take 1 angle
            assert isinstance(angle_expr, ParameterExpression)
            plus = self._energy_with_shift(gate_idx, angle_expr, bindings, +_SHIFT)
            minus = self._energy_with_shift(gate_idx, angle_expr, bindings, -_SHIFT)
            gate_grad = (plus - minus) / 2.0
            for j, param in enumerate(params):
                coeff = angle_expr.terms.get(param, 0.0)
                if coeff:
                    grad[j] += coeff * gate_grad
        return grad

    def _energy_with_shift(
        self,
        gate_idx: int,
        angle_expr: ParameterExpression,
        bindings: dict[Parameter, float],
        shift: float,
    ) -> float:
        shifted = QuantumCircuit(self.ansatz.circuit.num_qubits)
        for idx, instr in enumerate(self.ansatz.circuit.instructions):
            if idx == gate_idx:
                gate = Gate(instr.gate.spec, (angle_expr + shift,))
                shifted.append(gate, instr.qubits)
            else:
                shifted.append(instr.gate, instr.qubits)
        return self._energy_of_circuit(shifted.bind_parameters(bindings))

    def gradients(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        """Parameter-shift gradients for a batch of parameter vectors.

        The compiled engine runs all rows' shifted evaluations through the
        shared chunked batch passes; the dense engine loops
        :meth:`gradient` per row.
        """
        if self.engine == "compiled":
            grads = self.program.gradients(X)
            self.num_evaluations += 2 * self.program.num_shift_sites * grads.shape[0]
            return grads
        return np.stack(
            [self.gradient(row) for row in np.atleast_2d(np.asarray(X, dtype=float))]
        )


class NegatedEnergy:
    """Minimization view of an :class:`AnsatzEnergy` (``-<C>``).

    A batch objective (:mod:`repro.optimizers.base`): scalar ``__call__``,
    batched ``values``, and (batched) gradients, each
    the negation of the underlying energy — one graph's objective; the
    Evaluator trains a candidate's graphs together, as rows of a
    :class:`NegatedPopulation`.
    """

    def __init__(self, energy: AnsatzEnergy) -> None:
        self.energy = energy

    def __call__(self, x: Sequence[float]) -> float:
        return -self.energy.value(x)

    def values(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        return -self.energy.values(X)

    def gradient(self, x: Sequence[float]) -> np.ndarray:
        return -self.energy.gradient(x)

    def gradients(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        return -self.energy.gradients(X)


class NegatedPopulation:
    """Minimization view of a start block that spans objectives: population
    row ``r`` trains ``energies[owner[r]]`` — one candidate's graphs, which
    share a parameter layout (a population objective, see
    :mod:`repro.optimizers.base`). On the compiled engine ``values`` is one
    :class:`~repro.simulators.compiled.ProgramGroup` call, bit-identical to
    each objective's own ``values`` on its rows."""

    def __init__(self, energies: Sequence[AnsatzEnergy], owner: Sequence[int]) -> None:
        self.energies = list(energies)
        self.owner = np.asarray(owner, dtype=np.intp)

    def row_objective(self, row: int) -> NegatedEnergy:
        return self.energies[self.owner[row]].negative_objective()

    @cached_property
    def _group(self) -> ProgramGroup | None:
        compiled = self.energies[0].engine == "compiled"
        return ProgramGroup([e.program for e in self.energies]) if compiled else None

    def values(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(self.energies) == 1:  # one graph: its own call
            return -self.energies[0].values(X)
        owner = self.owner[rows]
        if self._group is None:  # point by point, like the dense ``values``
            points = zip(owner.tolist(), np.atleast_2d(X))
            return -np.array([self.energies[index].value(x) for index, x in points])
        for index in owner.tolist():
            self.energies[index].num_evaluations += 1
        return -self._group.energies(X, owner)

    def gradients(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per objective on its own rows: a point's ``2 x sites`` shifted
        evaluations fill a batch already, and the sites are its graph's."""
        X, owner = np.atleast_2d(np.asarray(X, dtype=float)), self.owner[rows]
        out = np.empty_like(X)
        for index in np.unique(owner).tolist():
            out[owner == index] = self.energies[index].gradients(X[owner == index])
        return -out
