"""Discovered-circuit drivers: Figs. 6 and 7 (§3.2).

Fig. 6 — the best mixer the search finds, drawn as a circuit
(paper: ``RX(2 beta) RY(2 beta)`` on every qubit).

Fig. 7 — approximation ratios at p=1 of four two-gate mixers —
``('ry','p'), ('rx','h'), ('h','p'), ('rx','ry')`` — on the 4-regular
evaluation dataset, with ``('rx','ry')`` winning.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.parameters import Parameter
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.results import SearchResult
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.generators import Graph
from repro.parallel.executor import Executor
from repro.qaoa.mixers import mixer_label, mixer_layer

__all__ = [
    "PAPER_FIG7_MIXERS",
    "Fig6Result",
    "Fig7Result",
    "run_fig6",
    "run_fig7",
    "draw_mixer",
]

#: the four candidates Fig. 7 plots, in the paper's order
PAPER_FIG7_MIXERS: tuple[tuple[str, ...], ...] = (
    ("ry", "p"),
    ("rx", "h"),
    ("h", "p"),
    ("rx", "ry"),
)


def draw_mixer(tokens: Sequence[str], num_qubits: int = 10) -> str:
    """ASCII rendering of a mixer layer on ``num_qubits`` qubits (Fig. 6)."""
    return mixer_layer(num_qubits, tuple(tokens), Parameter("beta")).draw()


@dataclass
class Fig6Result:
    """Search outcome plus the winning circuit's drawing."""

    search: SearchResult
    drawing: str

    @property
    def best_tokens(self) -> tuple[str, ...]:
        return self.search.best_tokens


def run_fig6(
    train_graphs: Sequence[Graph],
    *,
    config: SearchConfig,
    executor: Executor | None = None,
    draw_qubits: int = 10,
) -> Fig6Result:
    """Run Algorithm 1 on the training (ER) dataset and draw the winner."""
    search = search_mixer(train_graphs, config, executor=executor)
    return Fig6Result(search, draw_mixer(search.best_tokens, draw_qubits))


@dataclass
class Fig7Result:
    """Per-mixer mean approximation ratios at fixed p."""

    p: int
    mixers: list[tuple[str, ...]]
    ratios: list[float]
    per_graph: dict[tuple[str, ...], tuple[float, ...]] = field(default_factory=dict)

    @property
    def labels(self) -> list[str]:
        return [mixer_label(m) for m in self.mixers]

    @property
    def winner(self) -> tuple[str, ...]:
        return self.mixers[int(np.argmax(self.ratios))]


def run_fig7(
    eval_graphs: Sequence[Graph],
    *,
    mixers: Sequence[tuple[str, ...]] = PAPER_FIG7_MIXERS,
    p: int = 1,
    config: EvaluationConfig | None = None,
) -> Fig7Result:
    """Score each candidate mixer on the 4-regular evaluation dataset."""
    evaluator = Evaluator(eval_graphs, config)
    ratios: list[float] = []
    per_graph: dict[tuple[str, ...], tuple[float, ...]] = {}
    for tokens in mixers:
        evaluation = evaluator.evaluate(tokens, p)
        ratios.append(evaluation.ratio)
        per_graph[tuple(tokens)] = evaluation.per_graph_ratio
    return Fig7Result(p=p, mixers=[tuple(m) for m in mixers], ratios=ratios, per_graph=per_graph)
