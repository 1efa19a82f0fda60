"""Surrogate-assisted evaluation: learn from the result stream, rank
candidate pools, and spend real simulator time on the predicted-top
slice (plus a seeded exploration floor).

Public surface:

* :class:`~repro.surrogate.config.SurrogateConfig` — one frozen
  dataclass of knobs, carried on ``SearchConfig.surrogate`` and folded
  into depth-checkpoint fingerprints.
* :class:`~repro.surrogate.model.SurrogateModel` — the tiny
  Embedding→LSTM→Dense regressor (on :mod:`repro.ml` layers) trained
  online from completed evaluations.
* :class:`~repro.surrogate.cost.CostModel` — measured-seconds
  regression that replaces the static shard-placement heuristic.
* :class:`~repro.surrogate.ranking.SurrogateAssistant` — the filter
  (train → rank → account) ``search_mixer`` wraps around whichever
  :class:`~repro.core.predictor.Proposer` the sweep uses, exhaustive
  pool or predictor alike.
"""

from repro.surrogate.config import SurrogateConfig
from repro.surrogate.cost import CostModel
from repro.surrogate.model import SurrogateModel
from repro.surrogate.ranking import SurrogateAssistant, rank_and_select

__all__ = [
    "CostModel",
    "SurrogateAssistant",
    "SurrogateConfig",
    "SurrogateModel",
    "rank_and_select",
]
