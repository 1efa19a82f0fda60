"""Contract tests every registered predictor must satisfy.

``PREDICTORS`` is the registry the search front-ends instantiate from;
anything registered there is driven through the same protocol: propose
token tuples, accept rewards, report exhaustion. These tests run each
factory against the invariants the runtime relies on — so a new strategy
(the LSTM policy controller being the latest) cannot silently propose tokens
outside the alphabet, sequences beyond ``k_max``, or diverge between
identically-seeded runs.
"""

import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.predictor import PREDICTORS, Predictor, make_predictor

ALPHABET = GateAlphabet(("rx", "ry", "rz", "h"))
K_MAX = 3

pytestmark = pytest.mark.parametrize("name", sorted(PREDICTORS))


def build(name, seed=7):
    return make_predictor(name, ALPHABET, K_MAX, seed=seed)


def drive(predictor, rounds=4, num=8):
    """Propose/update loop; returns every proposal seen, in order."""
    seen = []
    for round_index in range(rounds):
        if predictor.exhausted():
            break
        proposals = predictor.propose(num)
        seen.extend(proposals)
        for tokens in proposals:
            # a deterministic fake reward keeps learners' updates stable
            predictor.update(tokens, 1.0 / (len(tokens) + round_index + 1))
    return seen


def test_factory_builds_a_predictor(name):
    predictor = build(name)
    assert isinstance(predictor, Predictor)
    assert predictor.name == name


def test_proposals_are_token_tuples_within_bounds(name):
    for tokens in drive(build(name)):
        assert isinstance(tokens, tuple)
        assert 1 <= len(tokens) <= K_MAX, f"{name} proposed length {len(tokens)}"
        for token in tokens:
            assert token in ALPHABET.tokens, (
                f"{name} proposed {token!r} outside the alphabet"
            )


def test_propose_never_exceeds_request(name):
    predictor = build(name)
    for _ in range(4):
        if predictor.exhausted():
            break
        proposals = predictor.propose(6)
        assert len(proposals) <= 6


def test_seeded_determinism(name):
    assert drive(build(name, seed=13)) == drive(build(name, seed=13))


def test_update_accepts_any_proposed_tokens(name):
    predictor = build(name)
    if predictor.exhausted():
        pytest.skip("nothing to propose")
    for tokens in predictor.propose(5):
        predictor.update(tokens, 0.5)  # must not raise


def test_exhausted_is_boolean_and_stable_under_queries(name):
    predictor = build(name)
    first = predictor.exhausted()
    assert isinstance(first, bool)
    assert predictor.exhausted() == first  # querying must not mutate


def test_exhaustive_semantics(name):
    """Predictors that report exhaustion stop producing; the others keep
    proposing indefinitely."""
    predictor = build(name)
    for _ in range(200):
        if predictor.exhausted():
            break
        assert predictor.propose(16)
    if predictor.exhausted():
        # once exhausted, the whole space was emitted at most once each
        # (the exhaustive enumerator's contract)
        fresh = build(name)
        seen = []
        while not fresh.exhausted():
            seen.extend(fresh.propose(16))
        assert len(seen) == len(set(seen))
