"""Result records for evaluations and searches, with JSON persistence.

Everything the experiment harness reports is assembled from these records,
and every figure can be regenerated from a saved JSON run without
re-simulating.

**Wire format.** Every record has symmetric ``to_dict``/``from_dict``, and
the dict *is* the wire object: the result cache stores it, ``save``/
``load`` write it to disk, and the search service's HTTP API returns it
verbatim from ``/result/{id}`` — one schema, three transports. The current
format is ``repro-search-result-v3``: v3 adds the per-evaluation trained
parameters (``best_params``), the per-depth OpenQASM export of the winning
candidate (``best_qasm``), and the workload key inside ``config``. v1 and
v2 files written by earlier releases load transparently — every v3 field
defaults when absent.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

__all__ = [
    "CandidateEvaluation",
    "DepthResult",
    "SearchResult",
    "WIRE_FORMAT_V2",
    "WIRE_FORMAT_V3",
]

#: format tags, newest first; ``from_dict`` accepts any of them
WIRE_FORMAT_V3 = "repro-search-result-v3"
WIRE_FORMAT_V2 = "repro-search-result-v2"
_WIRE_FORMAT_V1 = "repro-search-result-v1"
_ACCEPTED_FORMATS = (WIRE_FORMAT_V3, WIRE_FORMAT_V2, _WIRE_FORMAT_V1)


@lru_cache(maxsize=4096)
def _shared_tokens(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """One tuple object per distinct token sequence: a decoded sweep holds
    thousands of evaluations of a few hundred sequences, and a private
    tuple of private strings is over a quarter of each record's memory."""
    return tuple(sys.intern(token) for token in tokens)


@dataclass(frozen=True)
class CandidateEvaluation:
    """One trained candidate mixer on one workload (graph or dataset)."""

    tokens: tuple[str, ...]
    p: int
    #: mean trained max-cut energy over the workload graphs
    energy: float
    #: mean approximation ratio (Eq. 3) over the workload graphs
    ratio: float
    #: per-graph trained energies
    per_graph_energy: tuple[float, ...] = ()
    #: per-graph approximation ratios
    per_graph_ratio: tuple[float, ...] = ()
    #: total objective evaluations spent training this candidate
    nfev: int = 0
    #: wall-clock seconds spent training this candidate
    seconds: float = 0.0
    #: per-graph trained parameter vectors ``[gammas..., betas...]`` (v3) —
    #: feeds the INTERP depth hand-off and the per-depth QASM export
    best_params: tuple[tuple[float, ...], ...] = ()

    @property
    def reward(self) -> float:
        """The scalar the search maximizes (the approximation ratio — scale
        free across graphs, unlike raw energy)."""
        return self.ratio

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "tokens": list(self.tokens),
            "p": self.p,
            "energy": self.energy,
            "ratio": self.ratio,
            "per_graph_energy": list(self.per_graph_energy),
            "per_graph_ratio": list(self.per_graph_ratio),
            "nfev": self.nfev,
            "seconds": self.seconds,
            "best_params": [list(row) for row in self.best_params],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> CandidateEvaluation:
        return cls(
            tokens=_shared_tokens(tuple(data["tokens"])),
            p=int(data["p"]),
            energy=data["energy"],
            ratio=data["ratio"],
            per_graph_energy=tuple(data.get("per_graph_energy", ())),
            per_graph_ratio=tuple(data.get("per_graph_ratio", ())),
            nfev=data.get("nfev", 0),
            seconds=data.get("seconds", 0.0),
            best_params=tuple(
                tuple(float(v) for v in row)
                for row in data.get("best_params", ())
            ),
        )


@dataclass(frozen=True)
class DepthResult:
    """Algorithm 1's inner loop at one depth p: all candidates, ranked."""

    p: int
    evaluations: tuple[CandidateEvaluation, ...]
    seconds: float = 0.0
    #: OpenQASM 2.0 export of this depth's winning candidate, bound with
    #: its trained parameters on the first workload graph (v3) — the exit
    #: path to downstream toolchains; None when export is unavailable
    best_qasm: str | None = None

    @property
    def best(self) -> CandidateEvaluation:
        if not self.evaluations:
            raise ValueError(f"no evaluations recorded at p={self.p}")
        return max(self.evaluations, key=lambda e: e.reward)

    def ranked(self) -> list[CandidateEvaluation]:
        return sorted(self.evaluations, key=lambda e: -e.reward)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "p": self.p,
            "seconds": self.seconds,
            "evaluations": [e.to_dict() for e in self.evaluations],
            "best_qasm": self.best_qasm,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> DepthResult:
        return cls(
            int(data["p"]),
            tuple(CandidateEvaluation.from_dict(e) for e in data["evaluations"]),
            data.get("seconds", 0.0),
            data.get("best_qasm"),
        )


@dataclass
class SearchResult:
    """Full output of Algorithm 1 (``U_B^best`` and ``<C_best>``)."""

    best_tokens: tuple[str, ...]
    best_p: int
    best_energy: float
    best_ratio: float
    depth_results: list[DepthResult] = field(default_factory=list)
    total_seconds: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def num_candidates(self) -> int:
        return sum(len(d.evaluations) for d in self.depth_results)

    # -- wire format / persistence -----------------------------------------

    def to_dict(self) -> dict:
        """The v3 wire object: file payload and HTTP payload alike."""
        return {
            "format": WIRE_FORMAT_V3,
            "best_tokens": list(self.best_tokens),
            "best_p": self.best_p,
            "best_energy": self.best_energy,
            "best_ratio": self.best_ratio,
            "total_seconds": self.total_seconds,
            "config": self.config,
            "depth_results": [d.to_dict() for d in self.depth_results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> SearchResult:
        """Inverse of :meth:`to_dict`; accepts v1, v2, and v3 payloads
        (the nested record shape is shared — older versions merely lack
        the fields newer ones added, all of which default)."""
        fmt = data.get("format")
        if fmt not in _ACCEPTED_FORMATS:
            raise ValueError(
                f"unrecognized search result format {fmt!r}; "
                f"accepted: {', '.join(_ACCEPTED_FORMATS)}"
            )
        return cls(
            best_tokens=tuple(data["best_tokens"]),
            best_p=data["best_p"],
            best_energy=data["best_energy"],
            best_ratio=data["best_ratio"],
            depth_results=[DepthResult.from_dict(d) for d in data["depth_results"]],
            total_seconds=data.get("total_seconds", 0.0),
            config=data.get("config", {}),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> SearchResult:
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as error:
            raise ValueError(f"{error} (in {path})") from None
