"""NumPy-only deep-learning substrate for the DNN predictor.

Layers with hand-written backward passes (:mod:`~repro.ml.layers`),
parameter-dict optimizers (:mod:`~repro.ml.optim`), and REINFORCE
(:mod:`~repro.ml.reinforce`). No autograd framework is available offline,
so gradients are manual and finite-difference-tested.
"""

from repro.ml.activations import dsigmoid, dtanh, sigmoid, softmax, tanh
from repro.ml.layers import Dense, Embedding, LSTMCell
from repro.ml.optim import AdamUpdater, clip_gradients, global_grad_norm
from repro.ml.reinforce import Episode, MovingBaseline

__all__ = [
    "Dense",
    "Embedding",
    "LSTMCell",
    "AdamUpdater",
    "clip_gradients",
    "global_grad_norm",
    "Episode",
    "MovingBaseline",
    "sigmoid",
    "dsigmoid",
    "tanh",
    "dtanh",
    "softmax",
]
