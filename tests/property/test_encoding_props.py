"""Property-based tests: encodings, expressions, scheduling invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.parameters import Parameter
from repro.core.alphabet import GateAlphabet
from repro.core.encoding import decode_encoding, encode_sequence, is_valid_encoding
from repro.experiments.profiling import _replayed
from repro.parallel.cluster import least_loaded_partition

ALPHABET = GateAlphabet()
TOKENS = st.sampled_from(ALPHABET.tokens)


@settings(max_examples=50, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=4))
def test_encoding_roundtrip(tokens):
    enc = encode_sequence(tokens, ALPHABET, 4)
    assert is_valid_encoding(enc, ALPHABET)
    assert decode_encoding(enc, ALPHABET) == tuple(tokens)


@settings(max_examples=50, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=4))
def test_encoding_is_one_hot(tokens):
    enc = encode_sequence(tokens, ALPHABET, 4)
    assert enc.shape == (4, 6)
    np.testing.assert_array_equal(enc.sum(axis=1), np.ones(4))
    assert set(np.unique(enc)) <= {0.0, 1.0}


FLOATS = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(FLOATS, FLOATS, FLOATS)
def test_parameter_expression_linearity(a, b, value):
    p = Parameter("p")
    expr = a * p + b
    assert abs(expr.bind({p: value}).constant_value() - (a * value + b)) < 1e-6 * max(
        1.0, abs(a * value + b)
    )


@settings(max_examples=50, deadline=None)
@given(FLOATS, FLOATS)
def test_expression_algebra_commutes_with_binding(a, b):
    p, q = Parameter("p"), Parameter("q")
    expr = 2 * p - q / 2 + 1
    bound_then_add = expr.bind({p: a}).bind({q: b}).constant_value()
    all_at_once = expr.bind({p: a, q: b}).constant_value()
    assert bound_then_add == all_at_once


DURATIONS = st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=50, deadline=None)
@given(DURATIONS, st.integers(1, 48))
def test_fig5_replay_bounds(durations, workers):
    """Fig. 5's replay is a real placement: never faster than the longest task
    or a perfect split, never slower than serial. LPT is not monotone in the
    core count, so no order across counts is asserted."""
    total, longest = sum(durations), max(durations)
    makespan = _replayed(durations, workers)
    assert longest <= makespan <= total + 1e-9
    assert makespan >= total / workers - 1e-9
    if workers == 1:
        assert makespan == pytest.approx(total, rel=1e-12)
    if workers >= len(durations):
        assert makespan == longest


@settings(max_examples=50, deadline=None)
@given(DURATIONS, st.integers(1, 64))
def test_partition_places_every_item_once(costs, bins):
    placed = least_loaded_partition(costs, bins)
    assert len(placed) == bins
    assert sorted(i for b in placed for i in b) == list(range(len(costs)))


@settings(max_examples=50, deadline=None)
@given(DURATIONS, st.integers(1, 64))
def test_fig5_replay_within_list_scheduling_bound(durations, workers):
    """Greedy placement is never worse than a perfect split plus one
    longest task's remainder (Graham's list-scheduling bound)."""
    total, longest = sum(durations), max(durations)
    bound = total / workers + (1 - 1 / workers) * longest
    assert _replayed(durations, workers) <= bound + 1e-9
