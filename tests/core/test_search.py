"""Algorithm 1 search loop: serial, parallel, predictor-driven."""
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.controller import ControllerPredictor, PolicyController
from repro.core.evaluator import EvaluationConfig
from repro.core.predictor import EpsilonGreedyPredictor, RandomPredictor
from repro.core.runtime import CancellationToken, SweepCancelled
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.generators import erdos_renyi_graph
from repro.obs.progress import SweepProgress
from repro.parallel.executor import MultiprocessingExecutor, ThreadExecutor


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (3, 4)]


@pytest.fixture(scope="module")
def tiny_config():
    return SearchConfig(
        p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
    )


class TestSearchMixer:
    def test_result_structure(self, graphs, tiny_config):
        result = search_mixer(graphs, tiny_config)
        assert len(result.depth_results) == 2
        assert result.num_candidates == 2 * 5  # k_max=1: 5 per depth
        assert result.best_tokens
        assert 0 < result.best_ratio <= 1.0 + 1e-9

    def test_best_is_max_reward_across_depths(self, graphs, tiny_config):
        result = search_mixer(graphs, tiny_config)
        all_evals = [e for d in result.depth_results for e in d.evaluations]
        assert result.best_ratio == max(e.reward for e in all_evals)

    def test_num_samples_truncates(self, graphs):
        config = SearchConfig(
            p_max=1, k_max=2, num_samples=7,
            evaluation=EvaluationConfig(max_steps=8, seed=1),
        )
        result = search_mixer(graphs, config)
        assert result.num_candidates == 7

    def test_depth_timing_recorded(self, graphs, tiny_config):
        result = search_mixer(graphs, tiny_config)
        assert all(d.seconds > 0 for d in result.depth_results)
        assert result.total_seconds >= sum(d.seconds for d in result.depth_results) * 0.9

    def test_config_recorded(self, graphs, tiny_config):
        result = search_mixer(graphs, tiny_config)
        assert result.config["p_max"] == 2
        assert result.config["executor"] == "serial"

    def test_deeper_p_never_selected_without_gain(self, graphs, tiny_config):
        """SELECT_BEST keeps the earlier depth on ties (> not >=)."""
        result = search_mixer(graphs, tiny_config)
        equal_or_better = [
            e for d in result.depth_results for e in d.evaluations
            if e.reward >= result.best_ratio and e.p < result.best_p
        ]
        assert not equal_or_better


class TestParallelEquivalence:
    def test_thread_executor_same_result(self, graphs, tiny_config):
        serial = search_mixer(graphs, tiny_config)
        with ThreadExecutor(2) as executor:
            threaded = search_mixer(graphs, tiny_config, executor=executor)
        assert serial.best_tokens == threaded.best_tokens
        assert serial.best_energy == pytest.approx(threaded.best_energy)

    def test_process_executor_same_result(self, graphs, tiny_config):
        """The paper's parallelization must not change search quality."""
        serial = search_mixer(graphs, tiny_config)
        with MultiprocessingExecutor(2) as executor:
            parallel = search_mixer(graphs, tiny_config, executor=executor)
        assert serial.best_tokens == parallel.best_tokens
        assert serial.best_energy == pytest.approx(parallel.best_energy)
        assert parallel.config["executor"] == "multiprocessing"


class TestPredictorDriven:
    def test_random_predictor_search(self, graphs):
        config = SearchConfig(p_max=1, k_max=2, evaluation=EvaluationConfig(max_steps=8, seed=2))
        predictor = RandomPredictor(GateAlphabet(), 2, seed=0)
        result = search_mixer(
            graphs, config, predictor=predictor, candidates_per_depth=6
        )
        assert result.config["predictor"] == "random"
        assert result.num_candidates <= 6

    def test_bandit_receives_rewards(self, graphs):
        config = SearchConfig(p_max=2, k_max=2, evaluation=EvaluationConfig(max_steps=8, seed=2))
        predictor = EpsilonGreedyPredictor(GateAlphabet(), 2, epsilon=0.5, seed=1)
        search_mixer(graphs, config, predictor=predictor, candidates_per_depth=5)
        assert predictor._length_count.sum() > 0  # rewards were propagated

    def test_controller_predictor_integration(self, graphs):
        config = SearchConfig(p_max=1, k_max=3, evaluation=EvaluationConfig(max_steps=6, seed=2))
        controller = PolicyController(GateAlphabet(), max_gates=3, seed=0)
        predictor = ControllerPredictor(controller, batch_size=4, seed=0)
        result = search_mixer(
            graphs, config, predictor=predictor, candidates_per_depth=8
        )
        assert result.best_tokens

    def test_rewards_flow_before_next_depth_proposals(self, graphs):
        """The closed loop is real: depth-2 proposals are drawn only after
        depth-1 rewards were fed back to the predictor."""
        events = []

        class OrderTracker(RandomPredictor):
            def propose(self, num):
                events.append("propose")
                return super().propose(num)

            def update(self, tokens, reward):
                events.append("update")
                super().update(tokens, reward)

        config = SearchConfig(
            p_max=2, k_max=1, evaluation=EvaluationConfig(max_steps=6, seed=2)
        )
        predictor = OrderTracker(GateAlphabet(), 1, seed=0)
        search_mixer(graphs, config, predictor=predictor, candidates_per_depth=3)
        second_propose = events.index("propose", 1)
        assert "update" in events[:second_propose]

    def test_duplicate_proposals_deduplicated(self, graphs):
        updates = []

        class ConstantPredictor(RandomPredictor):
            def propose(self, num):
                return [("rx",)] * num

            def update(self, tokens, reward):
                updates.append(tokens)

        config = SearchConfig(p_max=1, k_max=1, evaluation=EvaluationConfig(max_steps=6, seed=2))
        predictor = ConstantPredictor(GateAlphabet(), 1, seed=0)
        result = search_mixer(
            graphs, config, predictor=predictor, candidates_per_depth=10
        )
        assert result.num_candidates == 1
        assert updates == [("rx",)]  # ten proposals, one reward

    def test_cancel_and_progress_reach_predictor_sweeps(self, graphs):
        """The predictor path runs on the same runtime as the exhaustive
        one: it reports SweepProgress, and a token fired while depth 1's
        rewards are fed back stops the sweep before depth 2 proposes."""
        cancel = CancellationToken("stop after depth 1")
        progress = SweepProgress()
        proposals = []

        class CancellingPredictor(RandomPredictor):
            def propose(self, num):
                proposals.append(num)
                return super().propose(num)

            def update(self, tokens, reward):
                cancel.cancel()

        config = SearchConfig(
            p_max=3, k_max=1, evaluation=EvaluationConfig(max_steps=6, seed=2)
        )
        with pytest.raises(SweepCancelled, match="stop after depth 1"):
            search_mixer(
                graphs,
                config,
                predictor=CancellingPredictor(GateAlphabet(), 1, seed=0),
                candidates_per_depth=4,
                cancel=cancel,
                progress=progress,
            )
        assert proposals == [4]
        snapshot = progress.to_dict()
        assert snapshot["depths_total"] == 3
        assert [d["p"] for d in snapshot["per_depth"]] == [1]
        assert snapshot["candidates_done"] == snapshot["candidates_total"] > 0
