"""Tensor-network quantum circuit simulator (the QTensor substitute).

Pipeline: circuit → :class:`TensorNetwork` (diagonal-gate-aware) →
elimination order (:mod:`~repro.qtensor.ordering`) → bucket elimination
(:mod:`~repro.qtensor.contraction`) on a pluggable backend
(:mod:`~repro.qtensor.backends`), with reverse-lightcone pruning for local
expectations (:mod:`~repro.qtensor.lightcone`). The
:class:`QTensorSimulator` façade ties it together.
"""

from repro.qtensor.backends import (
    ContractionBackend,
    NumpyBackend,
    SimulatedGPUBackend,
    get_backend,
)
from repro.qtensor.contraction import (
    bucket_elimination,
    choose_slice_vars,
    contract_network,
    contract_sliced,
)
from repro.qtensor.lightcone import lightcone_circuit, lightcone_qubits
from repro.qtensor.network import TensorNetwork, interaction_graph, product_state_vectors
from repro.qtensor.ordering import (
    EliminationOrder,
    evaluate_order,
    greedy_random_restarts,
    min_degree_order,
    min_fill_order,
    order_for_tensors,
    random_order,
)
from repro.qtensor.simulator import CUT_DIAGONAL, QTensorSimulator
from repro.qtensor.tensor import Tensor
from repro.qtensor.variables import Variable, VariableFactory

__all__ = [
    "QTensorSimulator",
    "TensorNetwork",
    "Tensor",
    "Variable",
    "VariableFactory",
    "interaction_graph",
    "product_state_vectors",
    "bucket_elimination",
    "contract_network",
    "contract_sliced",
    "choose_slice_vars",
    "lightcone_circuit",
    "lightcone_qubits",
    "EliminationOrder",
    "min_degree_order",
    "min_fill_order",
    "random_order",
    "greedy_random_restarts",
    "order_for_tensors",
    "evaluate_order",
    "ContractionBackend",
    "NumpyBackend",
    "SimulatedGPUBackend",
    "get_backend",
    "CUT_DIAGONAL",
]
