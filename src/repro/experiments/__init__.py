"""Experiment harness: one driver per paper figure, shared rendering and
records. The benchmarks/ scripts are thin wrappers over these drivers."""

from repro.experiments.comparison import (
    BASELINE_MIXER,
    QNAS_MIXER,
    MixerComparison,
    run_fig8,
    run_fig9,
)
from repro.experiments.discovery import (
    PAPER_FIG7_MIXERS,
    Fig6Result,
    Fig7Result,
    draw_mixer,
    run_fig6,
    run_fig7,
)
from repro.experiments.figures import render_bars, render_grouped_bars, render_series, render_table
from repro.experiments.profiling import Fig4Result, Fig5Result, run_fig4, run_fig5
from repro.experiments.records import ExperimentRecord, default_results_dir
from repro.experiments.scale import SCALES, ExperimentScale, get_scale

__all__ = [
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "MixerComparison",
    "draw_mixer",
    "PAPER_FIG7_MIXERS",
    "BASELINE_MIXER",
    "QNAS_MIXER",
    "render_table",
    "render_bars",
    "render_grouped_bars",
    "render_series",
    "ExperimentRecord",
    "default_results_dir",
    "ExperimentScale",
    "SCALES",
    "get_scale",
]
