"""Baseline-vs-searched mixer drivers: Figs. 8 and 9 (§3.2).

Fig. 8 — mean approximation ratio of the baseline X mixer vs the searched
("qnas") mixer on the ER dataset, averaged over p = 1, 2, 3; the searched
mixer wins (both land in the ~0.986–1.0 band).

Fig. 9 — the same comparison broken out per p on the 10-node 4-regular
dataset; the two mixers perform comparably (aggregates equal ~1.0).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluator import EvaluationConfig
from repro.experiments.discovery import _run_panel
from repro.graphs.generators import Graph

__all__ = [
    "BASELINE_MIXER",
    "QNAS_MIXER",
    "MixerComparison",
    "run_fig8",
    "run_fig9",
]

#: the default max-cut QAOA mixer
BASELINE_MIXER: tuple[str, ...] = ("rx",)
#: the mixer QArchSearch discovers (Fig. 6)
QNAS_MIXER: tuple[str, ...] = ("rx", "ry")
_MIXERS = {"baseline": BASELINE_MIXER, "qnas": QNAS_MIXER}


@dataclass
class MixerComparison:
    """Ratios of two mixers over a dataset and a set of depths."""

    p_values: list[int]
    #: mixer name -> per-p mean ratio
    per_p: dict[str, list[float]]
    #: mixer name -> ratio averaged over p (the Fig. 8 bar)
    aggregated: dict[str, float]
    #: mixer name -> per-p per-graph ratios, for distribution plots
    per_graph: dict[str, list[tuple[float, ...]]] = field(default_factory=dict)

    def winner(self) -> str:
        return max(self.aggregated, key=self.aggregated.get)


def _compare(
    graphs: Sequence[Graph],
    p_values: Sequence[int],
    config: EvaluationConfig | None,
) -> MixerComparison:
    panel = _run_panel(graphs, list(_MIXERS.values()), p_values, config)
    per_p = {name: [panel[m, p].ratio for p in p_values] for name, m in _MIXERS.items()}
    per_graph = {
        name: [panel[m, p].per_graph_ratio for p in p_values] for name, m in _MIXERS.items()
    }
    aggregated = {name: float(np.mean(vals)) for name, vals in per_p.items()}
    return MixerComparison(
        p_values=list(p_values),
        per_p=per_p,
        aggregated=aggregated,
        per_graph=per_graph,
    )


def run_fig8(
    er_graphs: Sequence[Graph],
    *,
    p_values: Sequence[int] = (1, 2, 3),
    config: EvaluationConfig | None = None,
) -> MixerComparison:
    """Baseline vs searched mixer on ER graphs, averaged over p=1,2,3.

    Both mixers train through the search runtime as one sweep of every
    depth up to the deepest asked: under ``init_strategy="interp"`` depth
    ``p`` warm-starts from depth ``p - 1``, as in a search."""
    return _compare(er_graphs, p_values, config)


def run_fig9(
    regular_graphs: Sequence[Graph],
    *,
    p_values: Sequence[int] = (1, 2, 3),
    config: EvaluationConfig | None = None,
) -> MixerComparison:
    """Same comparison, per-p, on the 4-regular dataset (values ~1.0); one
    sweep, as in :func:`run_fig8`."""
    return _compare(regular_graphs, p_values, config)
