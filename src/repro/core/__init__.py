"""QArchSearch core: predictor → QBuilder → evaluator → reward loop.

This package is the paper's contribution (Fig. 1 / Algorithm 1). The three
modules of §2.1 map to :mod:`~repro.core.predictor` (+
:mod:`~repro.core.controller` for the DNN variant),
:mod:`~repro.core.qbuilder`, and :mod:`~repro.core.evaluator`;
:func:`~repro.core.search.search_mixer` drives them across depths, serial
or parallel.
"""

from repro.core.alphabet import (
    DEFAULT_TOKENS,
    GateAlphabet,
    count_sequences,
    enumerate_search_space,
    gate_sequences,
    paper_space_size,
)
from repro.core.cache import ResultCache, SweepCheckpoint
from repro.core.constraints import (
    Constraint,
    ConstraintSet,
    ForbiddenTokens,
    MaxGates,
    MaxMixerDepth,
    MinGates,
    NoAdjacentRepeats,
    PredicateConstraint,
    RequiredTokens,
    RequiresParameterizedGate,
)
from repro.core.controller import ControllerPredictor, PolicyController
from repro.core.encoding import (
    PAD_INDEX,
    decode_encoding,
    encode_sequence,
    encoding_shape,
    is_valid_encoding,
)
from repro.core.evaluator import EvaluationConfig, Evaluator, classical_optima, evaluate_candidate
from repro.core.predictor import (
    EpsilonGreedyPredictor,
    ExhaustivePredictor,
    FixedPoolProposer,
    Predictor,
    PredictorProposer,
    Proposer,
    RandomPredictor,
)
from repro.core.qbuilder import QBuilder
from repro.core.results import CandidateEvaluation, DepthResult, SearchResult
from repro.core.runtime import RuntimeConfig, SearchRuntime, predicted_cost
from repro.core.search import SearchConfig, search_mixer
from repro.parallel.jobs import ShardFailedError

__all__ = [
    "GateAlphabet",
    "DEFAULT_TOKENS",
    "gate_sequences",
    "count_sequences",
    "enumerate_search_space",
    "paper_space_size",
    "encode_sequence",
    "decode_encoding",
    "encoding_shape",
    "is_valid_encoding",
    "PAD_INDEX",
    "QBuilder",
    "Predictor",
    "RandomPredictor",
    "ExhaustivePredictor",
    "EpsilonGreedyPredictor",
    "Proposer",
    "FixedPoolProposer",
    "PredictorProposer",
    "PolicyController",
    "ControllerPredictor",
    "EvaluationConfig",
    "Evaluator",
    "classical_optima",
    "evaluate_candidate",
    "ResultCache",
    "SweepCheckpoint",
    "RuntimeConfig",
    "SearchRuntime",
    "ShardFailedError",
    "predicted_cost",
    "SearchConfig",
    "search_mixer",
    "CandidateEvaluation",
    "DepthResult",
    "SearchResult",
    "Constraint",
    "ConstraintSet",
    "MaxGates",
    "MinGates",
    "ForbiddenTokens",
    "RequiredTokens",
    "RequiresParameterizedGate",
    "NoAdjacentRepeats",
    "MaxMixerDepth",
    "PredicateConstraint",
]
