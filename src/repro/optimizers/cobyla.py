"""COBYLA — the optimizer the paper trains every candidate with.

§2.1: "run the variational algorithm for 200 steps with the COBYLA
optimizer." We adapt SciPy's implementation (linear-approximation
trust-region, derivative-free) to the package interface; SciPy is a
declared dependency, not a stub — re-implementing Powell's COBYLA would
add risk without adding fidelity. The initial trust-region radius and the
final accuracy are class constants of :class:`Cobyla`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.optimizers.base import Objective, ObjectiveTracer, Optimizer, OptimizeResult

__all__ = ["Cobyla"]


class Cobyla(Optimizer):
    """SciPy COBYLA with the paper's 200-evaluation default budget."""

    name = "cobyla"
    #: initial trust-region radius and final accuracy: class constants
    rhobeg = 0.5
    tol = 1e-6

    def __init__(self, maxiter: int = 200) -> None:
        self.maxiter = int(maxiter)

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        # on use, not at ``import repro`` (0.46 s of a 0.67 s start-up): already
        # loaded when an ``EvaluationConfig`` named cobyla in this process or
        # the one it was forked from (``preload_optimizer``), paid here once
        # by a spawned or pre-forked worker and by direct ``Cobyla()`` users
        from scipy import optimize as sp_optimize

        tracer = ObjectiveTracer(fn)
        x0 = np.asarray(x0, dtype=float)
        # COBYLA needs num_vars + 2 evaluations to build its first simplex;
        # below that scipy warns and substitutes exactly this value.
        maxiter = max(self.maxiter, len(x0) + 2)
        result = sp_optimize.minimize(
            tracer,
            x0,
            method="COBYLA",
            options={"maxiter": maxiter, "rhobeg": self.rhobeg, "tol": self.tol},
        )
        # Report the best point seen, not the last iterate: COBYLA's final
        # simplex point can be worse than an earlier trial.
        best_x = tracer.best_x if tracer.best_x is not None else x0
        return OptimizeResult(
            x=best_x,
            fun=tracer.best,
            nfev=tracer.nfev,
            nit=int(result.get("nit", tracer.nfev)),
            converged=bool(result.success),
            message=str(result.message),
            history=tracer.trace,
        )
