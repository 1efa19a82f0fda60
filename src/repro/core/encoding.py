"""Tensor encoding of candidate circuits.

The paper's Predictor module "accepts a tensor that represents the rotation
gates and entanglement operators and generates a new circuit representation
that is passed to the quantum builder module" (§2.1). This module defines
that interchange format: a fixed-shape one-hot matrix over the alphabet
plus a PAD/STOP symbol, so predictors of any kind (random, bandit, neural)
emit the same artifact and the QBuilder consumes exactly one format.

Layout: row ``t`` one-hot encodes the token at position ``t``; column 0 is
PAD (sequence ended), columns ``1..V`` are alphabet tokens in order.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.alphabet import GateAlphabet

__all__ = [
    "PAD_INDEX",
    "encoding_shape",
    "encode_sequence",
    "decode_encoding",
    "is_valid_encoding",
]

PAD_INDEX = 0


def encoding_shape(alphabet: GateAlphabet, max_gates: int) -> tuple[int, int]:
    """``(max_gates, alphabet size + 1)`` — +1 for the PAD column."""
    return (max_gates, alphabet.size + 1)


def encode_sequence(
    tokens: Sequence[str], alphabet: GateAlphabet, max_gates: int
) -> np.ndarray:
    """One-hot encode ``tokens``, padding with PAD rows to ``max_gates``."""
    if len(tokens) > max_gates:
        raise ValueError(f"sequence of {len(tokens)} gates exceeds max_gates={max_gates}")
    out = np.zeros(encoding_shape(alphabet, max_gates), dtype=np.float64)
    for t, token in enumerate(tokens):
        out[t, alphabet.index(token) + 1] = 1.0
    for t in range(len(tokens), max_gates):
        out[t, PAD_INDEX] = 1.0
    return out


def decode_encoding(encoding: np.ndarray, alphabet: GateAlphabet) -> tuple[str, ...]:
    """Inverse of :func:`encode_sequence`; validates shape and one-hotness.

    Rows after the first PAD are ignored (PAD is a stop symbol), matching
    how a sampling controller terminates sequences early.
    """
    if not is_valid_encoding(encoding, alphabet):
        raise ValueError("not a valid one-hot circuit encoding for this alphabet")
    tokens: list[str] = []
    for row in encoding:
        idx = int(np.argmax(row))
        if idx == PAD_INDEX:
            break
        tokens.append(alphabet.token(idx - 1))
    return tuple(tokens)


def is_valid_encoding(encoding: np.ndarray, alphabet: GateAlphabet) -> bool:
    """Shape ``(*, V+1)``, rows one-hot, entries in {0, 1}."""
    encoding = np.asarray(encoding)
    if encoding.ndim != 2 or encoding.shape[1] != alphabet.size + 1:
        return False
    if not np.all((encoding == 0.0) | (encoding == 1.0)):
        return False
    return bool(np.all(encoding.sum(axis=1) == 1.0))
