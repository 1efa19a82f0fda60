"""Configuration of the surrogate-assisted evaluation layer.

One frozen dataclass fixes everything about how a sweep's surrogate
behaves: whether it runs at all, how aggressively it prunes
(``keep_fraction``), how much unconditional exploration survives the
pruning (``explore_floor``) and the seed. When the ranker is trusted
enough to start filtering (``min_observations``) and the model
hyperparameters are class constants no caller sets (a test monkeypatches
them). All of it is part of the sweep's *checkpoint* fingerprint (see
:class:`~repro.core.runtime.SearchRuntime`) so a surrogate-assisted
sweep can never restore — or be restored by — a plain sweep's depth
checkpoints, while individual candidate evaluations (pure functions of
the :class:`~repro.core.evaluator.EvaluationConfig`) stay shared across
both.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

__all__ = ["SurrogateConfig"]

#: the settings that were fields once and are class constants now
_CONSTANTS = ("min_observations", "embedding_dim", "hidden_dim", "learning_rate", "train_epochs")


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of surrogate-assisted candidate ranking for one sweep."""

    #: master switch; off keeps the exact pre-surrogate behaviour
    enabled: bool = False
    #: fraction of each depth's candidate pool forwarded to real
    #: evaluation once the ranker is trained (the predicted-top slice)
    keep_fraction: float = 0.5
    #: fraction of the pool evaluated *regardless* of predicted rank —
    #: a seeded uniform sample that keeps the surrogate from locking in
    #: a bad prior; 1.0 degenerates to the unfiltered search
    explore_floor: float = 0.1
    #: seed for model init and the exploration-floor draws
    seed: int = 0

    # Class constants, not fields (no annotation): completed evaluations
    # the model must have seen before it may filter anything (until then
    # every candidate passes), the encoder's token-embedding and LSTM
    # widths, and the online Adam loop's rate and full-batch epochs per
    # training round (one round per finished depth).
    min_observations = 8
    embedding_dim = 16
    hidden_dim = 32
    learning_rate = 0.05
    train_epochs = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {self.keep_fraction}"
            )
        if not 0.0 <= self.explore_floor <= 1.0:
            raise ValueError(
                f"explore_floor must be in [0, 1], got {self.explore_floor}"
            )

    def fingerprint(self) -> str:
        """Stable hash of every setting — folded into the sweep's depth
        checkpoint fingerprints so surrogate and plain runs never alias.
        The class constants count as they did when they were fields, and
        so does the cost model they once let a caller switch off: a
        checkpoint written then is still a hit."""
        settings = asdict(self)
        for name in _CONSTANTS:
            settings[name] = getattr(self, name)
        settings["cost_model"] = True
        blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
