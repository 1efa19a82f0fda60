"""QArchSearch reproduction: scalable quantum architecture search.

Reimplementation of Kulshrestha, Lykov, Safro & Alexeev, "QArchSearch: A
Scalable Quantum Architecture Search Package" (SC 2023 workshops,
arXiv:2310.07858), together with every substrate it runs on: a circuit
library, a state-vector simulator, a QTensor-style tensor-network
simulator, the QAOA/max-cut application, classical optimizers, a NumPy RL
controller, and the two-level parallel execution layer.

Quickstart (the stable facade — see :mod:`repro.api`)::

    from repro import Config, search

    result = search("er:3", depths=2, config=Config(k_min=2, k_max=2))
    print(result.best_tokens, result.best_ratio)

The same sweep runs against a long-lived search service (``python -m
repro serve``) via ``connect(url).submit(...)``. Deep imports
(``search_mixer``, ``SearchConfig``, …) remain available for code that
composes the internals directly.

See docs/architecture.md for the system inventory and README.md ("What
this reproduces") for the figure-by-figure map onto ``benchmarks/``.
"""

from repro.api import Config, connect, search

from repro.core import (
    ControllerPredictor,
    EvaluationConfig,
    Evaluator,
    GateAlphabet,
    PolicyController,
    QBuilder,
    RandomPredictor,
    RuntimeConfig,
    SearchConfig,
    SearchResult,
    SearchRuntime,
    search_mixer,
)
from repro.graphs import (
    Graph,
    erdos_renyi_graph,
    paper_er_dataset,
    paper_regular_dataset,
    random_regular_graph,
)
from repro.qaoa import AnsatzEnergy, approximation_ratio, build_qaoa_ansatz
from repro.workloads import (
    Workload,
    available_workloads,
    get_workload,
    register_workload,
)

__version__ = "1.0.0"

__all__ = [
    "search",
    "connect",
    "Config",
    "search_mixer",
    "SearchConfig",
    "SearchResult",
    "RuntimeConfig",
    "SearchRuntime",
    "EvaluationConfig",
    "Evaluator",
    "GateAlphabet",
    "QBuilder",
    "RandomPredictor",
    "PolicyController",
    "ControllerPredictor",
    "Graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "paper_er_dataset",
    "paper_regular_dataset",
    "build_qaoa_ansatz",
    "AnsatzEnergy",
    "approximation_ratio",
    "Workload",
    "get_workload",
    "register_workload",
    "available_workloads",
    "__version__",
]
