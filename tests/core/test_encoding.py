"""Predictor <-> builder tensor encoding."""

import numpy as np
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.encoding import (
    PAD_INDEX,
    decode_encoding,
    encode_sequence,
    encoding_shape,
    is_valid_encoding,
)


@pytest.fixture
def alphabet():
    return GateAlphabet()


class TestEncode:
    def test_shape(self, alphabet):
        enc = encode_sequence(("rx", "ry"), alphabet, 4)
        assert enc.shape == encoding_shape(alphabet, 4) == (4, 6)

    def test_one_hot_rows(self, alphabet):
        enc = encode_sequence(("rx", "h"), alphabet, 3)
        np.testing.assert_array_equal(enc.sum(axis=1), np.ones(3))

    def test_padding_rows(self, alphabet):
        enc = encode_sequence(("rx",), alphabet, 3)
        assert enc[1, PAD_INDEX] == 1.0
        assert enc[2, PAD_INDEX] == 1.0

    def test_token_columns_offset_by_pad(self, alphabet):
        enc = encode_sequence(("rx",), alphabet, 1)
        assert enc[0, alphabet.index("rx") + 1] == 1.0

    def test_too_long_rejected(self, alphabet):
        with pytest.raises(ValueError, match="exceeds"):
            encode_sequence(("rx",) * 5, alphabet, 4)


class TestDecode:
    def test_roundtrip_all_lengths(self, alphabet):
        for tokens in [("rx",), ("ry", "p"), ("h", "rz", "rx"), ("p", "p", "p", "p")]:
            enc = encode_sequence(tokens, alphabet, 4)
            assert decode_encoding(enc, alphabet) == tokens

    def test_pad_acts_as_stop(self, alphabet):
        enc = np.zeros((3, 6))
        enc[0, 1] = 1.0  # rx
        enc[1, PAD_INDEX] = 1.0
        enc[2, 2] = 1.0  # ry after PAD: ignored
        assert decode_encoding(enc, alphabet) == ("rx",)

    def test_invalid_shape_rejected(self, alphabet):
        with pytest.raises(ValueError):
            decode_encoding(np.zeros((2, 3)), alphabet)

    def test_non_one_hot_rejected(self, alphabet):
        enc = np.zeros((1, 6))
        enc[0, 1] = enc[0, 2] = 1.0
        with pytest.raises(ValueError):
            decode_encoding(enc, alphabet)

    def test_fractional_values_rejected(self, alphabet):
        enc = np.zeros((1, 6))
        enc[0, 1] = 0.5
        enc[0, 2] = 0.5
        assert not is_valid_encoding(enc, alphabet)
