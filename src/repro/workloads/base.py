"""The :class:`Workload` abstraction: one optimization problem per instance.

A workload interprets a :class:`~repro.graphs.generators.Graph` as a problem
instance and supplies everything the search stack needs to optimize it:

* ``objective_values(graph)`` — the full ``2^n`` diagonal of the (classical)
  objective ``C``, the weight-diagonal the compiled engine consumes. The
  search *maximizes* this quantity.
* ``append_cost_layer(circuit, graph, gamma)`` — the phase separator
  ``e^{-i gamma C}`` (up to global phase) as native gates, so the QAOA
  ansatz builder stays problem-agnostic.
* ``classical_optimum(graph)`` — the exact optimum, denominator of the
  paper's Eq. (3) approximation ratio.
* ``dataset(count, dataset_seed=...)`` — seeded paper-style instances,
  drawn by the ``family``'s :data:`~repro.graphs.datasets.DATASET_FAMILIES`
  factory — the same one the CLI/service ``"family[:count[:seed]]"`` spec
  calls — so a workload writes no dataset code of its own.

Any objective expressible as a diagonal Hamiltonian built from 1- and
2-local Z terms fits: the compiled engine fuses the cost layer into a
single phase-exponent generator regardless of which workload emitted the
gates, so new problems are pure encoding work, not engine work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import ParameterValue
from repro.graphs.datasets import DATASET_FAMILIES
from repro.graphs.generators import Graph

__all__ = ["Workload", "BRUTE_FORCE_MAX_NODES"]

#: largest instance whose 2^n objective table we will enumerate exactly
BRUTE_FORCE_MAX_NODES = 24


class Workload(ABC):
    """One problem family: objective diagonal, cost layer, oracle, dataset.

    Subclasses set ``name`` (the registry key, also stored in configs and
    cache fingerprints), ``family`` (the default dataset-spec family for
    ``"family[:count[:seed]]"`` strings, whose factory is the workload's
    :meth:`dataset`), and ``summary`` (one line for ``--help`` and docs).
    """

    #: registry key, e.g. ``"maxcut"``
    name: str = ""
    #: default dataset family accepted by the workload-spec parser; a key of
    #: ``DATASET_FAMILIES``
    family: str = ""
    #: one-line description
    summary: str = ""

    @abstractmethod
    def objective_values(self, graph: Graph) -> np.ndarray:
        """The objective of every bitstring as a ``(2^n,)`` float array.

        Bit convention: qubit ``k`` is bit ``k`` of the basis index, matching
        :mod:`repro.simulators.statevector`. The array may be shared/memoized
        and read-only — copy before mutating.
        """

    @abstractmethod
    def append_cost_layer(
        self, circuit: QuantumCircuit, graph: Graph, gamma: ParameterValue
    ) -> QuantumCircuit:
        """Append ``e^{-i gamma C}`` (up to global phase) to ``circuit``."""

    def dataset(
        self, count: int, *, num_nodes: int = 10, dataset_seed: int = 2023
    ) -> list[Graph]:
        """``count`` seeded paper-style instances of this problem: the
        ``family``'s ``DATASET_FAMILIES`` factory."""
        return DATASET_FAMILIES[self.family][1](count, num_nodes, dataset_seed=dataset_seed)

    def classical_optimum(self, graph: Graph) -> float:
        """Exact optimum ``max_z C(z)`` by enumerating the objective table.

        Per-workload oracles may override this with something smarter; the
        default brute force matches the paper's 10-node regime.
        """
        if graph.num_nodes > BRUTE_FORCE_MAX_NODES:
            raise ValueError(
                f"brute force over {graph.num_nodes} nodes is intractable "
                f"for workload {self.name!r}"
            )
        return float(np.max(self.objective_values(graph)))

    def validate_instance(self, graph: Graph) -> None:
        """Reject graphs this workload cannot encode. Default: accept all."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Workload {self.name!r}>"
