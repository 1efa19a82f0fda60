"""Surrogate-assisted search against the unfiltered baseline.

Three end-to-end guarantees: an ``explore_floor=1.0`` surrogate run
degenerates to the base search exactly (same per-depth bests, same
winner); an actually-pruning run evaluates strictly fewer candidates; and
the fingerprint scheme keeps surrogate and plain runs from ever aliasing
each other's depth checkpoints while still sharing candidate-level cache
entries (evaluations are pure functions of the evaluation config).
"""

import pytest

from repro.api import Config, search
from repro.core.evaluator import EvaluationConfig
from repro.core.predictor import RandomPredictor
from repro.core.runtime import SearchRuntime
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.datasets import DATASET_FAMILIES
from repro.surrogate import SurrogateConfig

FAST = dict(k_min=1, k_max=2, steps=6)


def run(tmp_path=None, **overrides):
    config = Config(**FAST, **overrides)
    return search("er:2", depths=3, config=config)


class TestEquivalence:
    def test_floor_one_degenerates_to_base_search(self):
        baseline = run()
        degenerate = run(surrogate=True, explore_floor=1.0)
        assert degenerate.best_tokens == baseline.best_tokens
        assert degenerate.best_p == baseline.best_p
        assert degenerate.best_ratio == pytest.approx(
            baseline.best_ratio, abs=1e-12
        )
        for plain_depth, surr_depth in zip(
            baseline.depth_results, degenerate.depth_results
        ):
            assert surr_depth.best.tokens == plain_depth.best.tokens
            assert surr_depth.best.ratio == pytest.approx(
                plain_depth.best.ratio, abs=1e-12
            )
        # same candidates evaluated — nothing was pruned
        assert degenerate.config["surrogate_skipped"] == 0
        assert (
            degenerate.config["jobs_submitted"]
            == baseline.config["jobs_submitted"]
        )

    def test_pruning_run_evaluates_fewer_candidates(self):
        baseline = run()
        pruned = run(surrogate=True, surrogate_keep=0.3, explore_floor=0.1)
        assert (
            pruned.config["jobs_submitted"] < baseline.config["jobs_submitted"]
        )
        assert pruned.config["surrogate_skipped"] > 0
        assert pruned.config["surrogate"] is True
        assert baseline.config["surrogate"] is False

    def test_surrogate_runs_are_seeded_deterministic(self):
        kwargs = dict(surrogate=True, surrogate_keep=0.3, explore_floor=0.2)
        first = run(**kwargs)
        second = run(**kwargs)
        assert first.best_tokens == second.best_tokens
        assert first.config["surrogate_kept"] == second.config["surrogate_kept"]
        assert (
            first.config["surrogate_skipped"]
            == second.config["surrogate_skipped"]
        )


class TestFingerprintSensitivity:
    def test_checkpoints_never_alias_but_cache_entries_share(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plain = run(cache_dir=cache_dir)
        resumed_plain = run(cache_dir=cache_dir, resume=True)
        assert resumed_plain.config["restored_depths"] == 3

        # the surrogate run must not restore the plain run's checkpoints...
        surrogate = run(
            cache_dir=cache_dir, resume=True, surrogate=True, explore_floor=1.0
        )
        assert surrogate.config["restored_depths"] == 0
        # ...but candidate evaluations ARE shared: every candidate the
        # degenerate surrogate sweep wants is already cached
        assert surrogate.config["jobs_submitted"] == 0
        assert surrogate.config["cache_hits"] == plain.config["jobs_submitted"]

        # and the plain run never restores surrogate checkpoints either
        resumed_again = run(cache_dir=cache_dir, resume=True)
        assert resumed_again.config["restored_depths"] == 3

    def test_different_surrogate_settings_never_alias(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run(
            cache_dir=cache_dir, surrogate=True, explore_floor=1.0
        )
        assert first.config["restored_depths"] == 0
        same = run(
            cache_dir=cache_dir, resume=True, surrogate=True, explore_floor=1.0
        )
        assert same.config["restored_depths"] == 3  # identical settings restore
        other = run(
            cache_dir=cache_dir,
            resume=True,
            surrogate=True,
            explore_floor=1.0,
            surrogate_keep=0.3,
        )
        assert other.config["restored_depths"] == 0  # any knob change re-runs

    def test_depth_fingerprint_carries_surrogate_suffix(self):
        graphs = DATASET_FAMILIES["er"][1](2, dataset_seed=2023)
        plain_cfg = SearchConfig(p_max=1, k_max=1)
        surr_cfg = SearchConfig(
            p_max=1, k_max=1, surrogate=SurrogateConfig(enabled=True)
        )
        with SearchRuntime(graphs, plain_cfg) as plain_rt, SearchRuntime(
            graphs, surr_cfg
        ) as surr_rt:
            assert plain_rt._depth_config_fp == plain_rt._config_fp
            assert surr_rt._depth_config_fp != surr_rt._config_fp
            assert surr_rt._config_fp == plain_rt._config_fp  # shared keys
            assert (
                SurrogateConfig(enabled=True).fingerprint()
                in surr_rt._depth_config_fp
            )


class TestFilterOverPredictor:
    def test_surrogate_filters_predictor_proposals_through_search_mixer(self, monkeypatch):
        """One front-end composes both: the predictor proposes, the
        surrogate prunes, only evaluated candidates reward the learner."""
        monkeypatch.setattr(SurrogateConfig, "min_observations", 4)
        monkeypatch.setattr(SurrogateConfig, "train_epochs", 10)
        graphs = DATASET_FAMILIES["er"][1](2, dataset_seed=2023)
        rewarded = []

        class Recording(RandomPredictor):
            def update(self, tokens, reward):
                rewarded.append(tokens)

        config = SearchConfig(
            p_max=3,
            k_max=3,
            evaluation=EvaluationConfig(max_steps=6, seed=1),
            surrogate=SurrogateConfig(enabled=True, keep_fraction=0.4, explore_floor=0.0),
        )
        result = search_mixer(
            graphs,
            config,
            predictor=Recording(config.alphabet, 3, seed=4),
            candidates_per_depth=12,
        )
        assert result.config["predictor"] == "random"
        assert result.config["surrogate"] is True
        assert result.config["surrogate_skipped"] > 0
        assert result.config["surrogate_kept"] == result.num_candidates
        evaluated = [
            e.tokens for d in result.depth_results for e in d.evaluations
        ]
        assert rewarded == evaluated
        # depth 1 passes through untrained; later depths are pruned
        widths = [len(d.evaluations) for d in result.depth_results]
        assert widths[-1] < widths[0]


class TestGuards:
    def test_bad_surrogate_knobs_rejected_through_flat_config(self):
        with pytest.raises(ValueError, match="keep_fraction"):
            Config(surrogate=True, surrogate_keep=0.0).search_config(2)
        with pytest.raises(ValueError, match="explore_floor"):
            Config(surrogate=True, explore_floor=1.5).search_config(2)

    def test_flat_config_round_trips_surrogate_fields(self):
        config = Config(surrogate=True, surrogate_keep=0.25, explore_floor=0.3)
        again = Config.from_dict(config.to_dict())
        assert again == config
        search_cfg = again.search_config(2)
        assert search_cfg.surrogate.enabled
        assert search_cfg.surrogate.keep_fraction == 0.25
        assert search_cfg.surrogate.explore_floor == 0.3
