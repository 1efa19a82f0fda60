"""Figure drivers produce the paper's shapes at test scale.

These are miniature versions of the real benches (small graphs, few
optimizer steps) asserting structure, not statistics.
"""

import numpy as np
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.evaluator import EvaluationConfig
from repro.core.search import SearchConfig
from repro.experiments import profiling
from repro.experiments.comparison import run_fig8, run_fig9
from repro.experiments.discovery import PAPER_FIG7_MIXERS, draw_mixer, run_fig6, run_fig7
from repro.experiments.profiling import candidate_bag, measure_candidate_durations, run_fig5
from repro.experiments.scale import SCALES, get_scale
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph


@pytest.fixture(scope="module")
def er_graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (1, 2)]


@pytest.fixture(scope="module")
def reg_graphs():
    return [random_regular_graph(6, 3, seed=s) for s in (1, 2)]


@pytest.fixture(scope="module")
def quick():
    return EvaluationConfig(max_steps=8, seed=0)


class TestCandidateBag:
    def test_deterministic_and_truncated(self):
        bag = candidate_bag(GateAlphabet(), 2, 7)
        assert len(bag) == 7
        assert bag == candidate_bag(GateAlphabet(), 2, 7)

    def test_full_space_when_none(self):
        assert len(candidate_bag(GateAlphabet(), 2, None)) == 30


class TestFig5Driver:
    def test_structure_and_validation(self, er_graphs, quick, monkeypatch):
        from repro.parallel.scheduler import OverheadModel

        monkeypatch.setattr(profiling, "VALIDATE_WORKERS", ())
        bag = candidate_bag(GateAlphabet(), 1, 4)
        # zero overheads: at test scale (sub-second tasks) the realistic
        # startup costs would rightly dominate and hide the scaling shape
        result = run_fig5(
            er_graphs[0], p=1, candidates=bag, config=quick,
            core_counts=(2, 4, 8),
            overhead=OverheadModel(),
        )
        assert len(result.simulated_seconds) == 3
        assert result.serial_seconds > 0
        # simulated parallel must beat serial (4 tasks, >=2 cores)
        assert min(result.simulated_seconds) < result.serial_seconds
        assert result.best_fraction_of_serial < 1.0

    def test_measured_durations_positive(self, er_graphs, quick):
        bag = candidate_bag(GateAlphabet(), 1, 3)
        durations = measure_candidate_durations(er_graphs[0], 1, bag, quick)
        assert len(durations) == 3
        assert all(d > 0 for d in durations)


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
