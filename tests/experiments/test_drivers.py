"""Figure drivers produce the paper's shapes at test scale.

These are miniature versions of the real benches (small graphs, few
optimizer steps) asserting structure, not statistics.
"""

import numpy as np
import pytest

from repro import api
from repro.api import Config
from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.search import SearchConfig
from repro.experiments import profiling
from repro.experiments.comparison import BASELINE_MIXER, QNAS_MIXER, run_fig8, run_fig9
from repro.experiments.discovery import (
    PAPER_FIG7_MIXERS,
    _run_panel,
    draw_mixer,
    run_fig6,
    run_fig7,
)
from repro.experiments.profiling import (
    Fig4Result,
    Fig5Result,
    _replayed,
    run_fig4,
    run_fig5,
)
from repro.experiments.scale import SCALES, get_scale
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph
from repro.parallel.executor import available_cores


@pytest.fixture(scope="module")
def er_graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (1, 2)]


@pytest.fixture(scope="module")
def reg_graphs():
    return [random_regular_graph(6, 3, seed=s) for s in (1, 2)]


@pytest.fixture(scope="module")
def quick():
    return EvaluationConfig(max_steps=8, seed=0)


def _bag(config, graph):
    """The candidate bag a sweep under ``config`` trains, in job order."""
    result = api.search([graph], depths=1, config=config)
    return [evaluation.tokens for evaluation in result.depth_results[0].evaluations]


class TestCandidateBag:
    """Figs. 4-5 sweep ``Config(mode="sequences", num_samples=N)``: the first
    ``N`` sequences of the paper's space, in enumeration order."""

    def test_deterministic_and_truncated(self, er_graphs):
        config = Config(k_max=2, mode="sequences", num_samples=7, steps=1, seed=0)
        bag = _bag(config, er_graphs[0])
        assert bag == enumerate_search_space(GateAlphabet(), 2, mode="sequences")[:7]
        assert bag == _bag(config, er_graphs[0])

    def test_full_space_when_none(self, er_graphs):
        assert len(_bag(Config(k_max=2, mode="sequences", steps=1), er_graphs[0])) == 30

    def test_default_mode_is_a_different_bag(self, er_graphs):
        sequences = _bag(Config(k_max=2, mode="sequences", num_samples=7, steps=1), er_graphs[0])
        combinations = _bag(Config(k_max=2, num_samples=7, steps=1), er_graphs[0])
        assert combinations != sequences


class TestFig4Driver:
    def test_structure(self, er_graphs):
        config = Config(k_max=1, mode="sequences", num_samples=2, steps=4, seed=0)
        result = run_fig4(er_graphs, p_max=2, config=config)
        assert result.p_values == [1, 2]
        assert result.num_workers == available_cores()
        for per_run in (result.per_run_serial, result.per_run_parallel):
            assert len(per_run) == len(er_graphs)
            assert all(len(run) == 2 and min(run) > 0 for run in per_run)
        assert result.serial_seconds == pytest.approx(np.mean(result.per_run_serial, axis=0))
        assert result.parallel_seconds == pytest.approx(
            np.mean(result.per_run_parallel, axis=0)
        )
        assert set(result.startup_seconds) == {"serial", "parallel"}
        assert all(s > 0 for s in result.startup_seconds.values())

    def test_serial_depth_seconds_hold_every_candidate(self, er_graphs):
        """A serial depth's time contains its candidates' training times, so
        Fig. 4 hides no candidate outside the depth it reports."""
        config = Config(k_max=1, mode="sequences", num_samples=3, steps=4, seed=0)
        result = api.search(er_graphs[:1], depths=2, config=config)
        for depth in result.depth_results:
            assert depth.seconds >= sum(e.seconds for e in depth.evaluations)

    def test_improvement_is_fractional_time_saved(self):
        result = Fig4Result(
            p_values=[1, 2], serial_seconds=[2.0, 4.0], parallel_seconds=[1.0, 1.0],
            num_workers=2,
        )
        assert result.improvement == [0.5, 0.75]

    def test_improvement_zero_when_serial_took_no_time(self):
        result = Fig4Result(
            p_values=[1], serial_seconds=[0.0], parallel_seconds=[1.0], num_workers=2
        )
        assert result.improvement == [0.0]


class TestFig5Driver:
    def test_structure_and_validation(self, er_graphs):
        config = Config(k_max=1, mode="sequences", num_samples=4, steps=8, seed=0)
        result = run_fig5(er_graphs[0], config=config, core_counts=(2, 4, 8))
        assert len(result.simulated_seconds) == 3
        assert result.serial_seconds > 0
        # replayed parallel must beat serial (4 tasks, >=2 cores)
        assert min(result.simulated_seconds) < result.serial_seconds
        assert result.best_fraction_of_serial < 1.0
        # the real two-worker sweep and its replay, where the box has two cores
        for measured, replayed in result.validation.values():
            assert measured > 0 and 0 < replayed < result.serial_seconds

    def test_measured_durations_positive(self, er_graphs):
        """The task bag Fig. 5 replays: one positive training time per
        candidate of the serial sweep's p = 2 depth."""
        config = Config(k_max=1, mode="sequences", num_samples=3, steps=4, seed=0)
        result = api.search(er_graphs[:1], depths=profiling.FIG5_P, config=config)
        durations = [e.seconds for e in result.depth_results[profiling.FIG5_P - 1].evaluations]
        assert len(durations) == 3
        assert all(d > 0 for d in durations)

    def test_replay_spans_one_core_to_one_candidate_each(self, er_graphs, monkeypatch):
        monkeypatch.setattr(profiling, "available_cores", lambda: 1)
        config = Config(k_max=1, mode="sequences", num_samples=3, steps=4, seed=0)
        result = run_fig5(er_graphs[0], config=config, core_counts=(1, 3, 64))
        one_core, per_candidate, many = result.simulated_seconds
        # one core runs the whole bag, inside the serial depth's own time
        assert 0 < one_core <= result.serial_seconds
        # three or more cores: each candidate alone, the longest sets the pace
        assert per_candidate == many < one_core

    def test_no_real_run_on_one_core(self, er_graphs, monkeypatch):
        monkeypatch.setattr(profiling, "available_cores", lambda: 1)
        config = Config(k_max=1, mode="sequences", num_samples=2, steps=4, seed=0)
        result = run_fig5(er_graphs[0], config=config, core_counts=(8,))
        assert result.validation == {}

    def test_best_fraction_reads_the_fastest_replay(self):
        result = Fig5Result(core_counts=[8, 16], simulated_seconds=[2.0, 1.0], serial_seconds=4.0)
        assert result.best_fraction_of_serial == 0.25


class TestFig5Replay:
    """The replay places measured seconds by the runtime's LPT rule."""

    def test_single_worker_sums_durations(self):
        assert _replayed([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_perfect_split(self):
        assert _replayed([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(2.0)

    def test_bounded_below_by_longest_task(self):
        assert _replayed([10.0, 0.1, 0.1], 8) == pytest.approx(10.0)

    def test_bounded_below_by_mean_load(self):
        durations = list(np.random.default_rng(0).uniform(0.5, 2.0, size=37))
        for w in (2, 4, 8):
            assert _replayed(durations, w) >= sum(durations) / w - 1e-9

    def test_plateau_beyond_task_count(self):
        durations = [1.0] * 4
        assert _replayed(durations, 4) == pytest.approx(_replayed(durations, 64))

    def test_greedy_not_round_robin(self):
        """Costs [4,3,3,2,1,1] split 7/7 under least-loaded placement where
        round-robin by index would give 8/6."""
        assert _replayed([4.0, 3.0, 3.0, 2.0, 1.0, 1.0], 2) == pytest.approx(7.0)

    def test_heavy_task_gets_a_core_to_itself(self):
        assert _replayed([10.0] + [0.1] * 7, 2) == pytest.approx(10.0)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            _replayed([1.0], 0)

    def test_empty_bag(self):
        assert _replayed([], 4) == 0.0


class TestPanelsMatchEvaluator:
    """Figs. 7-9 run through the search runtime and must score exactly what
    ``Evaluator.evaluate`` scores, bit for bit, under the paper's uniform init."""

    @staticmethod
    def _direct(graphs, config, mixers, p_values):
        evaluator = Evaluator(graphs, config)
        return {(m, p): evaluator.evaluate(m, p) for m in mixers for p in p_values}

    def test_fig7(self, reg_graphs, quick):
        result = run_fig7(reg_graphs, p=2, config=quick)
        direct = self._direct(reg_graphs, quick, result.mixers, [2])
        assert result.ratios == [direct[m, 2].ratio for m in result.mixers]
        assert result.per_graph == {m: direct[m, 2].per_graph_ratio for m in result.mixers}

    @pytest.mark.parametrize("driver", [run_fig8, run_fig9])
    def test_fig8_and_fig9(self, driver, er_graphs, quick):
        result = driver(er_graphs, p_values=(1, 3), config=quick)
        mixers = {"baseline": BASELINE_MIXER, "qnas": QNAS_MIXER}
        direct = self._direct(er_graphs, quick, list(mixers.values()), [1, 3])
        for name, m in mixers.items():
            assert result.per_p[name] == [direct[m, p].ratio for p in (1, 3)]
            assert result.per_graph[name] == [direct[m, p].per_graph_ratio for p in (1, 3)]

    def test_p_values_keep_the_order_asked(self, er_graphs, quick):
        ascending = run_fig8(er_graphs, p_values=(1, 3), config=quick)
        descending = run_fig8(er_graphs, p_values=(3, 1), config=quick)
        assert descending.p_values == [3, 1]
        for name in ("baseline", "qnas"):
            assert descending.per_p[name] == ascending.per_p[name][::-1]

    def test_panel_sweeps_every_depth_to_the_deepest(self, reg_graphs, quick):
        mixers = [BASELINE_MIXER, QNAS_MIXER]
        panel = _run_panel(reg_graphs, mixers, [3, 1], quick)
        assert set(panel) == {(m, p) for m in mixers for p in (1, 2, 3)}
        assert all(panel[m, p].p == p and panel[m, p].tokens == m for m, p in panel)


class TestFig6Driver:
    def test_search_and_drawing(self, er_graphs):
        config = SearchConfig(
            p_max=1, k_max=2, mode="combinations",
            evaluation=EvaluationConfig(max_steps=8, seed=0),
        )
        result = run_fig6(er_graphs, config=config)
        assert result.best_tokens
        assert "q0:" in result.drawing

    def test_draw_mixer_paper_layout(self):
        text = draw_mixer(("rx", "ry"), num_qubits=10)
        assert len(text.splitlines()) == 10
        assert "RX(2*beta)" in text


class TestFig7Driver:
    def test_all_paper_mixers_scored(self, reg_graphs, quick):
        result = run_fig7(reg_graphs, p=1, config=quick)
        assert result.mixers == [tuple(m) for m in PAPER_FIG7_MIXERS]
        assert len(result.ratios) == 4
        assert all(0 < r <= 1.0 + 1e-9 for r in result.ratios)
        assert result.winner in result.mixers

    def test_labels_match_paper_style(self, reg_graphs, quick):
        result = run_fig7(reg_graphs, p=1, config=quick)
        assert "('rx', 'ry')" in result.labels


class TestFig8And9Drivers:
    def test_fig8_aggregates_over_p(self, er_graphs, quick):
        result = run_fig8(er_graphs, p_values=(1, 2), config=quick)
        assert set(result.per_p) == {"baseline", "qnas"}
        assert len(result.per_p["qnas"]) == 2
        for name in ("baseline", "qnas"):
            assert result.aggregated[name] == pytest.approx(
                np.mean(result.per_p[name])
            )
        assert result.winner() in ("baseline", "qnas")

    def test_fig9_per_p_series(self, reg_graphs, quick):
        result = run_fig9(reg_graphs, p_values=(1, 2), config=quick)
        assert result.p_values == [1, 2]
        assert all(len(v) == 2 for v in result.per_p.values())

    def test_per_graph_distributions_recorded(self, er_graphs, quick):
        result = run_fig8(er_graphs, p_values=(1,), config=quick)
        assert len(result.per_graph["qnas"][0]) == len(er_graphs)


class TestScale:
    def test_presets_exist(self):
        assert set(SCALES) == {"ci", "laptop", "paper"}

    def test_paper_scale_matches_paper_numbers(self):
        paper = SCALES["paper"]
        assert paper.num_graphs == 20
        assert paper.max_steps == 200
        assert paper.num_runs == 5
        assert paper.p_max == 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QARCH_BENCH_SCALE", "laptop")
        assert get_scale().name == "laptop"

    def test_unknown_scale(self, monkeypatch):
        monkeypatch.setenv("QARCH_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            get_scale()
