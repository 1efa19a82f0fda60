"""Multi-restart meta-optimization: K seeds trained as one batch.

Independent restarts are the standard defence against bad initial angles
in variational training (the Evaluator's ``restarts`` knob), but running
them one after another leaves the compiled engine's batched evaluation on
the floor: every restart is the *same* objective, so their per-step
proposals can ride one :meth:`~repro.simulators.compiled.CompiledProgram.energies`
call. :class:`MultiRestart` wraps any :class:`~repro.optimizers.base.Optimizer`
and trains a whole population of start points at once — batch-natively in
lockstep when the base optimizer supports it, serially otherwise — then
returns the best result with population-wide ``nfev`` accounting.

Pinned: on an *exact* objective the two paths are identical point for point
(property tests in ``tests/optimizers/test_batched.py``); on the compiled
engine the serial walk runs the single-point kernels and the lockstep the
batched ones, equal to round-off only (``test_spsa_batched_close_to_serial``,
``abs=1e-8``; the ROADMAP results-epoch item). The lockstep of a population objective over G
graphs is bit-identical to G lockstep runs. The Evaluator sets the mode from
:class:`~repro.core.evaluator.EvaluationConfig` (``batch_mode=``, CLI
``--batch-mode``), and the batched population is exactly the wide
``energies(X)`` call that a device array backend
(:mod:`repro.simulators.backends`) accelerates — K restarts' probes ride
one kernel launch instead of K.

.. seealso::

   :mod:`repro.optimizers.base`
       the ``values(X)`` method a batchable objective implements;
       :class:`~repro.qaoa.energy.NegatedEnergy` is the production
       instance.
   ``benchmarks/bench_batched_optimizers.py``
       the CI gate: >=3x batched-vs-serial multi-restart SPSA at K=8.
   ``docs/architecture.md``
       the evaluator layer this meta-optimizer lives in.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import Objective, Optimizer, OptimizeResult
from repro.utils.validation import check_choice

__all__ = ["BATCH_MODES", "MultiRestart"]

#: how a restart population is driven: "auto" batches whenever the base
#: optimizer is batch-native and a batch objective is available, "batched"
#: always routes through minimize_batch (its serial fallback included),
#: "serial" forces one minimize call per restart
BATCH_MODES = ("auto", "batched", "serial")


class MultiRestart:
    """Train every row of a start-point population, return the best.

    The population result keeps the winning restart's ``x``/``fun``/
    ``history`` but sums ``nfev`` over all restarts (the total points the
    objective paid for) and exposes the per-restart results via
    ``sub_results``. It drives an :class:`~repro.optimizers.base.Optimizer`;
    it is not one — :meth:`minimize_population` is its whole interface.
    """

    def __init__(self, base: Optimizer, batch_mode: str = "auto") -> None:
        check_choice(batch_mode, "batch mode", BATCH_MODES)
        self.base = base
        self.batch_mode = batch_mode

    def _use_batch(self, fn: Objective) -> bool:
        if self.batch_mode == "serial":
            return False
        if self.batch_mode == "batched":
            return True
        return self.base.supports_batch and hasattr(fn, "values")

    def minimize_population(self, fn: Objective, X0: np.ndarray) -> OptimizeResult:
        """Minimize from every row of ``X0``; aggregate to the best."""
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        if X0.shape[0] == 0:
            raise ValueError("restart population is empty")
        if self._use_batch(fn):
            results = self.base.minimize_batch(fn, X0)
            mode = "batched"
        else:
            results = Optimizer.minimize_batch(self.base, fn, X0)  # the serial walk
            mode = "serial"
        best = min(results, key=lambda r: r.fun)
        return OptimizeResult(
            x=best.x,
            fun=best.fun,
            nfev=sum(r.nfev for r in results),
            nit=max(r.nit for r in results),
            converged=best.converged,
            message=(
                f"best of {len(results)} {mode} restart(s): {best.message}"
            ),
            history=best.history,
            sub_results=results,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiRestart({self.base!r}, batch_mode={self.batch_mode!r})"
