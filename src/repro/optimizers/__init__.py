"""Classical optimizers for the variational training loop.

:class:`Cobyla` is the paper's choice (200 steps); :class:`NelderMead`,
:class:`SPSA` and :class:`Adam` support the ablation benches and noisy /
gradient-based training modes — all three are batch-native
(:meth:`~repro.optimizers.base.Optimizer.minimize_batch`), and
:class:`MultiRestart` trains a whole population of restarts as one batch
on the compiled engine's vectorized evaluation seam.

A trainer takes its budget (``maxiter``, and SPSA's ``seed``) and nothing
else: each one's hyperparameters — SPSA's gains, Adam's rate and moment
decays, the simplex and trust-region sizes and tolerances — are class
constants, which a test monkeypatches.
"""

from repro.optimizers.adam import Adam
from repro.optimizers.base import (
    ObjectiveTracer,
    Optimizer,
    OptimizeResult,
    batch_values,
)
from repro.optimizers.cobyla import Cobyla
from repro.optimizers.nelder_mead import NelderMead
from repro.optimizers.restarts import BATCH_MODES, MultiRestart
from repro.optimizers.spsa import SPSA
from repro.utils.validation import check_choice

__all__ = [
    "BATCH_MODES",
    "TRAINING_OPTIMIZERS",
    "Adam",
    "Cobyla",
    "MultiRestart",
    "NelderMead",
    "ObjectiveTracer",
    "OptimizeResult",
    "Optimizer",
    "SPSA",
    "batch_values",
    "preload_optimizer",
    "training_optimizer",
]


#: the trainers :func:`training_optimizer` builds (cobyla is the paper's)
TRAINING_OPTIMIZERS = ("cobyla", "nelder_mead", "spsa", "adam")


def preload_optimizer(name: str) -> None:
    """Pay now the import ``name`` defers to first use — COBYLA's
    ``scipy.optimize``, the only scipy import in the package.

    Called where a process first *names* its trainer
    (``EvaluationConfig.__post_init__``, which unpickling in a worker does
    not re-run), so a pool forked afterwards inherits the module instead of
    importing it once per worker per call.
    """
    if name == "cobyla":
        import scipy.optimize  # noqa: F401


def training_optimizer(name: str, *, max_steps: int, seed=None) -> Optimizer:
    """Budget-aware construction for the variational training loop.

    One home for the per-optimizer budget rules so the Evaluator and the
    warm-started depth sweep can never drift apart: COBYLA/Nelder-Mead
    take ``max_steps`` directly, SPSA spends 2 evals per iteration so its
    iteration count is halved to respect the same evaluation budget, and
    Adam reads the (batched) gradient of whichever objective it is handed.
    """
    check_choice(name, "optimizer", TRAINING_OPTIMIZERS)
    if name == "cobyla":
        return Cobyla(maxiter=max_steps)
    if name == "nelder_mead":
        return NelderMead(maxiter=max_steps)
    if name == "spsa":
        return SPSA(maxiter=max(1, max_steps // 2), seed=seed)
    return Adam(maxiter=max_steps)  # adam, the one name left
