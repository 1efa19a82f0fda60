"""Quantum circuit simulators.

* :mod:`repro.simulators.compiled` — the evaluator's fast path: a one-time
  compile pass lowers an ansatz into fused, pre-materialized array ops
  (cost layers collapse to single phase diagonals), so every optimizer
  step is pure vectorized work. Pick it (the default engine) whenever the
  same parameterized circuit is evaluated many times.
* :mod:`repro.simulators.backends` — the array library behind the compiled
  engine, as a knob: NumPy (default), CuPy (registered when importable),
  or the metered mock GPU that keeps the dispatch seam tested on CPU-only
  CI. Mirrors :mod:`repro.qtensor.backends` one layer down.
* :mod:`repro.simulators.statevector` — exact per-gate dense simulation of
  a concrete bound circuit; the reference engine every other path is
  cross-validated against, and the one to use for one-off circuits.
* :mod:`repro.simulators.expectation` — vectorized observable evaluation
  (max-cut cost — memoized per graph — and Pauli strings).

(The tensor-network alternative for circuits too wide for a dense state
lives in :mod:`repro.qtensor`.)
"""

from repro.simulators.backends import (
    ArrayBackend,
    CupyArrayBackend,
    MockGPUArrayBackend,
    NumpyArrayBackend,
    available_array_backends,
    get_array_backend,
    register_array_backend,
)
from repro.simulators.compiled import CompiledProgram, compile_ansatz, compile_circuit
from repro.simulators.expectation import (
    bit_table,
    cut_values,
    maxcut_expectation,
    pauli_expectation,
)
from repro.simulators.statevector import (
    apply_gate,
    basis_state,
    circuit_unitary,
    plus_state,
    simulate,
    zero_state,
)

__all__ = [
    "ArrayBackend",
    "CupyArrayBackend",
    "MockGPUArrayBackend",
    "NumpyArrayBackend",
    "available_array_backends",
    "get_array_backend",
    "register_array_backend",
    "CompiledProgram",
    "compile_ansatz",
    "compile_circuit",
    "simulate",
    "circuit_unitary",
    "apply_gate",
    "zero_state",
    "plus_state",
    "basis_state",
    "bit_table",
    "cut_values",
    "maxcut_expectation",
    "pauli_expectation",
]
