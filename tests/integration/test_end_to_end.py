"""End-to-end integration: the full QArchSearch pipeline at test scale."""
import pytest

from repro.core.alphabet import GateAlphabet
from repro.core.controller import ControllerPredictor, PolicyController
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.predictor import RandomPredictor
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.datasets import paper_er_dataset, paper_regular_dataset
from repro.parallel.executor import MultiprocessingExecutor


@pytest.fixture(scope="module")
def train_graphs():
    """Three 10-node paper-dataset ER instances (the real workload shape)."""
    return paper_er_dataset(3)


@pytest.fixture(scope="module")
def eval_graphs():
    return paper_regular_dataset(3)


class TestFullPipeline:
    def test_search_train_transfer(self, train_graphs, eval_graphs):
        """Algorithm 1 on ER training graphs; winner transfers to the
        4-regular evaluation set with a competitive ratio (the §3.2
        generalization claim at miniature scale)."""
        config = SearchConfig(
            p_max=1,
            k_max=2,
            mode="combinations",
            evaluation=EvaluationConfig(max_steps=30, seed=0),
        )
        result = search_mixer(train_graphs, config)
        assert result.num_candidates == 15

        evaluator = Evaluator(eval_graphs, EvaluationConfig(max_steps=30, seed=0))
        transferred = evaluator.evaluate(result.best_tokens, 1)
        baseline = evaluator.evaluate(("rx",), 1)
        # the searched mixer should at least match the baseline it dominated
        # in training (ties allowed: ('rx',) can itself be the winner)
        assert transferred.ratio >= baseline.ratio - 0.02

    def test_search_result_roundtrip_through_json(self, train_graphs, tmp_path):
        config = SearchConfig(
            p_max=1, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=1)
        )
        result = search_mixer(train_graphs[:1], config)
        path = tmp_path / "search.json"
        result.save(path)
        from repro.core.results import SearchResult

        loaded = SearchResult.load(path)
        assert loaded.best_tokens == result.best_tokens
        assert loaded.num_candidates == result.num_candidates

    def test_parallel_pipeline_on_paper_graphs(self, train_graphs):
        config = SearchConfig(
            p_max=1, k_max=1, evaluation=EvaluationConfig(max_steps=10, seed=2)
        )
        serial = search_mixer(train_graphs, config)
        with MultiprocessingExecutor(2) as ex:
            parallel = search_mixer(train_graphs, config, executor=ex)
        assert serial.best_tokens == parallel.best_tokens
        assert serial.best_energy == pytest.approx(parallel.best_energy)

    def test_predictor_pipeline(self, train_graphs):
        config = SearchConfig(
            p_max=2, k_max=2, evaluation=EvaluationConfig(max_steps=10, seed=3)
        )
        predictor = RandomPredictor(GateAlphabet(), 2, seed=5)
        result = search_mixer(
            train_graphs[:2], config, predictor=predictor, candidates_per_depth=5
        )
        assert len(result.depth_results) == 2
        assert result.best_ratio > 0.5

    def test_controller_pipeline_smoke(self, train_graphs):
        """Fig. 1 with the DNN predictor in the loop, end to end."""
        config = SearchConfig(
            p_max=1, k_max=3, evaluation=EvaluationConfig(max_steps=8, seed=4)
        )
        controller = PolicyController(GateAlphabet(), max_gates=3, seed=1)
        predictor = ControllerPredictor(controller, batch_size=4, seed=1)
        result = search_mixer(
            train_graphs[:1], config, predictor=predictor, candidates_per_depth=8
        )
        assert result.best_tokens
        assert predictor.updates >= 1
