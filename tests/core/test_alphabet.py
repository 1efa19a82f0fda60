"""Gate alphabet and search-space counting (pins the paper's 2500)."""

import numpy as np
import pytest

from repro.core.alphabet import (
    DEFAULT_TOKENS,
    GateAlphabet,
    count_sequences,
    enumerate_search_space,
    gate_sequences,
)


class TestAlphabet:
    def test_default_is_paper_alphabet(self):
        assert DEFAULT_TOKENS == ("rx", "ry", "rz", "h", "p")
        assert GateAlphabet().size == 5

    def test_token_index_roundtrip(self):
        alphabet = GateAlphabet()
        for i, token in enumerate(alphabet):
            assert alphabet.index(token) == i
            assert alphabet.token(i) == token

    def test_unknown_token_lookup(self):
        with pytest.raises(KeyError):
            GateAlphabet().index("cx")

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            GateAlphabet().token(5)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GateAlphabet(("rx", "rx"))

    def test_unbuildable_tokens_rejected(self):
        with pytest.raises(ValueError, match="not buildable"):
            GateAlphabet(("rx", "warp_gate"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GateAlphabet(())

    def test_entangler_extension_allowed(self):
        alphabet = GateAlphabet(("rx", "cz_ring"))
        assert alphabet.size == 2

    def test_sample_sequence(self):
        alphabet = GateAlphabet()
        seq = alphabet.sample_sequence(3, np.random.default_rng(0))
        assert len(seq) == 3
        assert all(t in alphabet.tokens for t in seq)


class TestCounting:
    def test_sequences(self):
        assert count_sequences(5, 4) == 625

    def test_permutations(self):
        assert count_sequences(5, 2, ordered=True, repetition=False) == 20
        assert count_sequences(5, 6, ordered=True, repetition=False) == 0

    def test_combinations(self):
        assert count_sequences(5, 2, ordered=False, repetition=False) == 10

    def test_multisets(self):
        assert count_sequences(5, 2, ordered=False, repetition=True) == 15

    def test_counts_match_enumeration(self):
        alphabet = GateAlphabet()
        for ordered in (True, False):
            for repetition in (True, False):
                for k in (1, 2, 3):
                    listed = list(
                        gate_sequences(alphabet, k, ordered=ordered, repetition=repetition)
                    )
                    assert len(listed) == count_sequences(
                        5, k, ordered=ordered, repetition=repetition
                    )
                    assert len(set(listed)) == len(listed)

    def test_paper_2500(self):
        """§3.1: 2500 circuit combinations = 4 depths x 5^4 sequences."""
        assert 4 * count_sequences(5, 4, ordered=True, repetition=True) == 2500


class TestSearchSpace:
    def test_sequences_space_size(self):
        space = enumerate_search_space(GateAlphabet(), 2, mode="sequences")
        assert len(space) == 5 + 25

    def test_combinations_space(self):
        space = enumerate_search_space(GateAlphabet(), 2, mode="combinations")
        assert len(space) == 5 + 10
        assert ("rx", "ry") in space

    def test_fig7_candidates_present(self):
        space = enumerate_search_space(GateAlphabet(), 2, mode="combinations")
        for mixer in [("ry", "p"), ("rx", "h"), ("h", "p"), ("rx", "ry")]:
            assert tuple(sorted(mixer, key=GateAlphabet().index)) in space or mixer in space

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            enumerate_search_space(GateAlphabet(), 2, mode="kitchen_sink")

    def test_no_duplicates(self):
        space = enumerate_search_space(GateAlphabet(), 3, mode="sequences")
        assert len(set(space)) == len(space)

    def test_lengths_bounded(self):
        space = enumerate_search_space(GateAlphabet(), 3, mode="sequences")
        assert all(1 <= len(s) <= 3 for s in space)


class TestKMin:
    def test_k_min_restricts_space(self):
        space = enumerate_search_space(GateAlphabet(), 2, k_min=2, mode="combinations")
        assert len(space) == 10
        assert all(len(s) == 2 for s in space)

    def test_k_min_default_is_one(self):
        space = enumerate_search_space(GateAlphabet(), 1)
        assert all(len(s) == 1 for s in space)

    def test_k_min_exceeding_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            enumerate_search_space(GateAlphabet(), 2, k_min=3)
