"""Unit tests of the surrogate layer: config, model, cost, selection."""

import numpy as np
import pytest

from repro.core.alphabet import DEFAULT_TOKENS, GateAlphabet
from repro.core.predictor import (
    ExhaustivePredictor,
    FixedPoolProposer,
    PredictorProposer,
    RandomPredictor,
)
from repro.core.results import CandidateEvaluation
from repro.core.runtime import predicted_cost
from repro.obs.metrics import MetricsRegistry
from repro.surrogate import (
    CostModel,
    SurrogateAssistant,
    SurrogateConfig,
    SurrogateModel,
    rank_and_select,
)
from repro.utils.rng import as_rng

ALPHABET = GateAlphabet(DEFAULT_TOKENS)


def sequences(count, seed=0, max_len=3):
    rng = as_rng(seed)
    return [
        tuple(rng.choice(DEFAULT_TOKENS, size=int(rng.integers(1, max_len + 1))))
        for _ in range(count)
    ]


def evaluation(tokens, p=1, ratio=None, seconds=0.01):
    return CandidateEvaluation(
        tokens=tokens,
        p=p,
        energy=1.0,
        ratio=0.2 * len(tokens) if ratio is None else ratio,
        seconds=seconds,
    )


class TestSurrogateConfig:
    def test_defaults_disabled(self):
        assert not SurrogateConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_fraction": 0.0},
            {"keep_fraction": 1.5},
            {"explore_floor": -0.1},
            {"explore_floor": 1.1},
            {"min_observations": 0},
            {"embedding_dim": 0},
            {"hidden_dim": 0},
            {"train_epochs": 0},
            {"learning_rate": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SurrogateConfig(**kwargs)

    def test_fingerprint_sensitive_to_every_knob(self):
        base = SurrogateConfig(enabled=True)
        variants = [
            SurrogateConfig(enabled=True, keep_fraction=0.3),
            SurrogateConfig(enabled=True, explore_floor=0.2),
            SurrogateConfig(enabled=True, min_observations=9),
            SurrogateConfig(enabled=True, seed=1),
            SurrogateConfig(enabled=True, cost_model=False),
            SurrogateConfig(enabled=False),
        ]
        prints = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)
        assert base.fingerprint() == SurrogateConfig(enabled=True).fingerprint()


class TestSurrogateModel:
    def test_learns_a_length_signal(self):
        model = SurrogateModel(
            ALPHABET, embedding_dim=4, hidden_dim=8, train_epochs=40, seed=1
        )
        train = sequences(40, seed=2)
        for tokens in train:
            model.observe(tokens, 1, float(len(tokens)))
        assert model.fit() is not None
        assert model.trained
        short = model.predict(("rx",), 1)
        long = model.predict(("rx", "ry", "rz"), 1)
        assert long > short  # ranking signal, not exact regression

    def test_deterministic_given_seed(self):
        scores = []
        for _ in range(2):
            model = SurrogateModel(
                ALPHABET, embedding_dim=4, hidden_dim=6, train_epochs=10, seed=5
            )
            for tokens in sequences(12, seed=3):
                model.observe(tokens, 1, float(len(tokens)))
            model.fit()
            scores.append(model.predict_many(sequences(6, seed=4), 1))
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_fit_is_lazy(self):
        model = SurrogateModel(ALPHABET, train_epochs=2, seed=0)
        assert model.fit() is None  # nothing observed
        for tokens in sequences(4):
            model.observe(tokens, 1, 0.5)
        assert model.fit() is not None
        assert model.fit() is None  # no new rows since

    def test_buffer_trims_to_max(self):
        model = SurrogateModel(ALPHABET, max_buffer=10, train_epochs=1, seed=0)
        for tokens in sequences(25, seed=6):
            model.observe(tokens, 1, 0.1)
        assert len(model._buffer) == 10
        assert model.observations == 25


class TestCostModel:
    def test_static_heuristic_until_fitted(self):
        model = CostModel()
        assert not model.fitted
        assert model.predict(("rx", "ry"), 3) == predicted_cost(("rx", "ry"), 3)

    def test_fits_measured_seconds(self):
        model = CostModel()
        rng = as_rng(0)
        for tokens in sequences(30, seed=7):
            p = int(rng.integers(1, 4))
            # ground truth deliberately unlike the static heuristic
            model.observe(tokens, p, 0.5 + 2.0 * len(tokens))
        model.fit()
        assert model.fitted
        assert model.predict(("rx", "ry", "rz"), 2) == pytest.approx(6.5, rel=0.05)

    def test_prediction_clamped_positive(self):
        model = CostModel(min_observations=4)
        for i in range(6):
            model.observe(("rx",), 1, 0.0)
        model.fit()
        assert model.predict(("rx",), 1) > 0.0

    def test_negative_seconds_ignored(self):
        model = CostModel()
        model.observe(("rx",), 1, -5.0)
        assert model.observations == 0


class TestRankAndSelect:
    def test_keeps_top_fraction_in_original_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.8, 0.2])
        kept = rank_and_select(
            scores, keep_fraction=0.4, explore_floor=0.0, rng=as_rng(0)
        )
        assert kept == [1, 3]  # top-2 by score, pool order preserved

    def test_at_least_one_survives(self):
        kept = rank_and_select(
            np.array([0.5]), keep_fraction=0.01, explore_floor=0.0, rng=as_rng(0)
        )
        assert kept == [0]

    def test_floor_one_keeps_everything(self):
        scores = np.arange(10, dtype=float)
        kept = rank_and_select(
            scores, keep_fraction=0.1, explore_floor=1.0, rng=as_rng(0)
        )
        assert kept == list(range(10))

    def test_floor_adds_seeded_exploration(self):
        scores = np.arange(20, dtype=float)
        no_floor = rank_and_select(
            scores, keep_fraction=0.2, explore_floor=0.0, rng=as_rng(3)
        )
        with_floor = rank_and_select(
            scores, keep_fraction=0.2, explore_floor=0.3, rng=as_rng(3)
        )
        assert set(no_floor) <= set(with_floor)
        assert len(with_floor) > len(no_floor)
        again = rank_and_select(
            scores, keep_fraction=0.2, explore_floor=0.3, rng=as_rng(3)
        )
        assert with_floor == again


class TestSurrogateAssistant:
    def make(self, **overrides):
        kwargs = dict(
            enabled=True,
            keep_fraction=0.4,
            explore_floor=0.1,
            min_observations=4,
            embedding_dim=4,
            hidden_dim=6,
            train_epochs=10,
        )
        kwargs.update(overrides)
        return SurrogateAssistant(
            FixedPoolProposer([]), ALPHABET, SurrogateConfig(**kwargs)
        )

    def test_requires_enabled_config(self):
        with pytest.raises(ValueError, match="enabled"):
            SurrogateAssistant(FixedPoolProposer([]), ALPHABET, SurrogateConfig())

    def test_wraps_a_proposer(self):
        """The seam: propose filters the inner pool, observe trains and
        forwards, identity (name, shard-safety) follows the composition."""
        pool = sequences(20, seed=9)
        observed = []

        class Inner(FixedPoolProposer):
            def observe(self, evaluations):
                observed.extend(evaluations)

        assistant = SurrogateAssistant(
            Inner(pool), ALPHABET, self.make().config
        )
        assert assistant.name == "exhaustive"
        assert not assistant.shard_safe
        assert assistant.propose(1) == pool  # nothing learned yet
        results = [evaluation(t) for t in pool]
        assistant.observe(results)
        assert observed == results
        kept = assistant.propose(2)
        assert 0 < len(kept) < len(pool)
        assert set(kept) <= set(pool)

    def test_passes_everything_until_min_observations(self):
        assistant = self.make(min_observations=50)
        pool = sequences(10, seed=8)
        assistant.observe([evaluation(t) for t in pool])
        assert assistant.select(pool, 2) == pool
        assert assistant.skipped == 0

    def test_filters_after_training(self):
        assistant = self.make()
        pool = sequences(20, seed=9)
        assistant.observe([evaluation(t) for t in pool])
        kept = assistant.select(pool, 2)
        assert 0 < len(kept) < len(pool)
        assert assistant.kept == len(kept)
        assert assistant.skipped == len(pool) - len(kept)
        # kept preserves pool order
        positions = [pool.index(t) for t in kept]
        assert positions == sorted(positions)

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        config = SurrogateConfig(
            enabled=True,
            min_observations=4,
            embedding_dim=4,
            hidden_dim=6,
            train_epochs=5,
        )
        assistant = SurrogateAssistant(
            FixedPoolProposer([]), ALPHABET, config, metrics=registry
        )
        pool = sequences(12, seed=10)
        assistant.observe([evaluation(t) for t in pool])
        assistant.select(pool, 1)
        text = registry.render()
        assert "repro_surrogate_candidates_kept_total" in text
        assert "repro_surrogate_candidates_skipped_total" in text
        assert "repro_surrogate_ranking_seconds" in text

    def test_cost_model_feeds_predicted_cost(self):
        assistant = self.make()
        pool = sequences(20, seed=11)
        assistant.observe([evaluation(t, seconds=2.0 * len(t)) for t in pool])
        assistant.select(pool, 1)  # triggers the lazy fit
        assert assistant.cost.fitted
        assert assistant.predicted_cost(("rx", "ry"), 1) == pytest.approx(
            4.0, rel=0.2
        )

    def test_cost_model_disabled(self):
        assistant = self.make(cost_model=False)
        assert assistant.cost is None
        assert assistant.predicted_cost(("rx",), 2) == predicted_cost(("rx",), 2)


class TestSurrogateRankedPredictor:
    """Predictor proposals ranked by the surrogate: the filter composed
    over a :class:`PredictorProposer` (what ``search_mixer`` builds for
    ``predictor=`` + ``config.surrogate.enabled``)."""

    def config(self, **overrides):
        kwargs = dict(
            enabled=True,
            keep_fraction=0.4,
            explore_floor=0.1,
            min_observations=4,
            embedding_dim=4,
            hidden_dim=6,
            train_epochs=10,
        )
        kwargs.update(overrides)
        return SurrogateConfig(**kwargs)

    def ranked(self, predictor, num, **overrides):
        return SurrogateAssistant(
            PredictorProposer(predictor, num), ALPHABET, self.config(**overrides)
        )

    def test_proposals_subset_of_base(self):
        base = PredictorProposer(RandomPredictor(ALPHABET, 3, seed=1), 10)
        ranked = self.ranked(RandomPredictor(ALPHABET, 3, seed=1), 10)
        first = ranked.propose(1)
        assert first == base.propose(1)
        ranked.observe([evaluation(t) for t in first])
        pruned = ranked.propose(2)
        full = base.propose(2)  # the twin-seeded base's unfiltered pool
        assert 0 < len(pruned) < len(full)
        assert set(pruned) <= set(full)
        assert ranked.skipped == len(full) - len(pruned)

    def test_passthrough_until_trained(self):
        ranked = self.ranked(RandomPredictor(ALPHABET, 3, seed=2), 6)
        base = PredictorProposer(RandomPredictor(ALPHABET, 3, seed=2), 6)
        assert ranked.propose(1) == base.propose(1)
        assert ranked.skipped == 0

    def test_requires_alphabet(self):
        """The filter ranks with the alphabet it is given; the wrapped
        predictor need not expose one (``ExhaustivePredictor`` does not)."""
        base = ExhaustivePredictor(ALPHABET, 2)
        assert not hasattr(base, "alphabet")
        ranked = self.ranked(base, 10)
        first = ranked.propose(1)
        ranked.observe([evaluation(t) for t in first])
        assert 0 < len(ranked.propose(2)) < 10

    def test_exhausted_delegates(self):
        """An exhausted base's empty pool passes straight through."""
        base = ExhaustivePredictor(ALPHABET, 1)
        ranked = self.ranked(base, 16)
        while not base.exhausted():
            assert ranked.propose(1)
        assert ranked.propose(1) == []

    def test_requires_enabled_config(self):
        with pytest.raises(ValueError, match="enabled"):
            SurrogateAssistant(
                PredictorProposer(RandomPredictor(ALPHABET, 2, seed=0), 4),
                ALPHABET,
                SurrogateConfig(),
            )

    def test_rewards_reach_the_wrapped_predictor(self):
        """observe trains the ranker *and* forwards: only evaluated
        (kept) candidates carry a reward back to the learner."""
        updates = []

        class Recording(RandomPredictor):
            def update(self, tokens, reward):
                updates.append((tokens, reward))

        ranked = self.ranked(Recording(ALPHABET, 3, seed=3), 8)
        pool = ranked.propose(1)
        ranked.observe([evaluation(t) for t in pool])
        assert updates == [(t, evaluation(t).reward) for t in pool]
