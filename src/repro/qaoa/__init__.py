"""QAOA for max-cut: the paper's driver application.

Cost function and classical baselines (:mod:`~repro.qaoa.maxcut`), the
Eq. (2) ansatz with pluggable mixers (:mod:`~repro.qaoa.ansatz`,
:mod:`~repro.qaoa.mixers`), energy/gradient evaluation on either simulation
engine (:mod:`~repro.qaoa.energy`), and the p=1 closed form used as a test
oracle (:mod:`~repro.qaoa.analytic`).
"""

from repro.qaoa.analytic import edge_energy_p1, grid_search_p1, maxcut_energy_p1
from repro.qaoa.ansatz import QAOAAnsatz, build_qaoa_ansatz
from repro.qaoa.cost_operator import append_cost_layer, cost_layer
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.initialization import interp_init, ramp_init, uniform_init
from repro.qaoa.maxcut import (
    CutSolution,
    approximation_ratio,
    brute_force_maxcut,
    cut_value,
    expected_best_value,
)
from repro.qaoa.mixers import (
    ENTANGLER_TOKENS,
    FIXED_TOKENS,
    MIXER_TOKENS,
    PARAMETERIZED_TOKENS,
    append_mixer_layer,
    baseline_mixer,
    mixer_label,
    mixer_layer,
)

__all__ = [
    "QAOAAnsatz",
    "build_qaoa_ansatz",
    "AnsatzEnergy",
    "append_cost_layer",
    "cost_layer",
    "append_mixer_layer",
    "mixer_layer",
    "baseline_mixer",
    "mixer_label",
    "MIXER_TOKENS",
    "PARAMETERIZED_TOKENS",
    "FIXED_TOKENS",
    "ENTANGLER_TOKENS",
    "cut_value",
    "CutSolution",
    "brute_force_maxcut",
    "expected_best_value",
    "approximation_ratio",
    "edge_energy_p1",
    "maxcut_energy_p1",
    "grid_search_p1",
    "uniform_init",
    "ramp_init",
    "interp_init",
]
