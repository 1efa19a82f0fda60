"""The Quantum Builder (QBuilder) module.

§2.1: "accepts the encoded tensor representation from the predictor module
and generates the appropriate quantum circuit in an available quantum
computing software" — here, :mod:`repro.circuits` instead of Qiskit, and
the representation is the token tuple every predictor emits. The builder
owns the two constructions of Algorithm 1, both inside
:meth:`QBuilder.build_qaoa`:

* ``BUILD_MIXER_CKT(G, gate_comb)`` — the mixer layer over the graph's
  nodes with the shared beta parameter;
* ``BUILD_QAOA_CKT(U_B, p)`` — the full p-layer ansatz around that mixer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.alphabet import GateAlphabet
from repro.graphs.generators import Graph
from repro.qaoa.ansatz import QAOAAnsatz, build_qaoa_ansatz

__all__ = ["QBuilder"]


@dataclass(frozen=True)
class QBuilder:
    """Turns predictor output (token tuples) into circuits."""

    alphabet: GateAlphabet = GateAlphabet()

    def validate_tokens(self, tokens: Sequence[str]) -> tuple[str, ...]:
        tokens = tuple(tokens)
        for t in tokens:
            self.alphabet.index(t)  # raises KeyError on foreign tokens
        if not tokens:
            raise ValueError("cannot build a mixer from an empty gate sequence")
        return tokens

    # -- Algorithm 1, lines 6-7 -------------------------------------------------

    def build_qaoa(
        self,
        graph: Graph,
        tokens: Sequence[str],
        p: int,
        *,
        workload: str = "maxcut",
    ) -> QAOAAnsatz:
        """``BUILD_QAOA_CKT``: the full Eq. (2) ansatz around the mixer.

        ``workload`` selects the phase separator from the
        :mod:`repro.workloads` registry (default: the paper's MaxCut).
        """
        tokens = self.validate_tokens(tokens)
        return build_qaoa_ansatz(graph, p, tokens, workload=workload)
