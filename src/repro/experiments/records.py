"""Persistent experiment records.

Each bench run writes an :class:`ExperimentRecord` JSON next to its output
so a paper-vs-measured table can be rebuilt from saved runs (and so CI
diffs catch behavioural drift in the harness itself).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["ExperimentRecord", "default_results_dir"]


def default_results_dir() -> Path:
    """``benchmarks/results`` relative to the repo root, created on demand."""
    root = Path(__file__).resolve().parents[3]
    out = root / "benchmarks" / "results"
    out.mkdir(parents=True, exist_ok=True)
    return out


@dataclass
class ExperimentRecord:
    """One figure-reproduction run: inputs, outputs, and the paper's claim."""

    experiment: str  # e.g. "fig4"
    #: what the paper reports (shape/claim being reproduced)
    paper_claim: str
    #: workload parameters actually used in this run
    parameters: dict[str, Any] = field(default_factory=dict)
    #: measured series/values
    measured: dict[str, Any] = field(default_factory=dict)
    #: one-line verdict on whether the shape holds
    verdict: str = ""
    timestamp: float = field(default_factory=time.time)

    def save(self, directory: Path | None = None) -> Path:
        directory = directory or default_results_dir()
        path = Path(directory) / f"{self.experiment}.json"
        path.write_text(json.dumps(asdict(self), indent=2, default=str))
        return path
