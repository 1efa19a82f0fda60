"""The workload key threaded through configs, caches, and the facade.

A result computed under one problem must never be served to a sweep of
another: the workload key has to reach every config fingerprint, every
cache key, and every layer's validation. These tests pin that plumbing.
"""

import pytest

from repro.api import (
    Config,
    reconcile_workload,
    resolve_workload,
    resolve_workload_spec,
)
from repro.core.cache import candidate_key, config_fingerprint
from repro.core.evaluator import EvaluationConfig, Evaluator, classical_optima
from repro.graphs.generators import erdos_renyi_graph
from repro.workloads import available_workloads, get_workload


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(6, 0.5, seed=9, require_connected=True)]


class TestConfigValidation:
    def test_unknown_workload_rejected_with_options(self):
        with pytest.raises(ValueError, match="maxcut"):
            EvaluationConfig(workload="knapsack")

    def test_unknown_init_strategy_rejected(self):
        with pytest.raises(ValueError, match="interp"):
            EvaluationConfig(init_strategy="warm")

    def test_facade_config_threads_workload_and_init(self):
        cfg = Config(workload="maxsat", init_strategy="ramp").evaluation_config()
        assert cfg.workload == "maxsat"
        assert cfg.init_strategy == "ramp"


class TestCacheFingerprints:
    def test_every_workload_pair_gets_distinct_fingerprints(self):
        fps = {
            key: config_fingerprint(EvaluationConfig(workload=key))
            for key in available_workloads()
        }
        assert len(set(fps.values())) == len(fps)

    def test_candidate_keys_never_collide_across_workloads(self):
        keys = {
            candidate_key(
                "graphs-fp",
                ("rx", "ry"),
                2,
                config_fingerprint(EvaluationConfig(workload=key)),
            )
            for key in available_workloads()
        }
        assert len(keys) == len(available_workloads())

    def test_same_workload_same_key(self):
        a = config_fingerprint(EvaluationConfig(workload="ising"))
        b = config_fingerprint(EvaluationConfig(workload="ising"))
        assert a == b

    def test_init_strategy_changes_the_fingerprint(self):
        assert config_fingerprint(
            EvaluationConfig(init_strategy="uniform")
        ) != config_fingerprint(EvaluationConfig(init_strategy="interp"))


class TestPerWorkloadEvaluation:
    @pytest.mark.parametrize("key", sorted(available_workloads()))
    def test_evaluator_uses_the_workload_oracle(self, key):
        problem = get_workload(key)
        graphs = list(problem.dataset(1, num_nodes=6, dataset_seed=3))
        evaluator = Evaluator(
            graphs, EvaluationConfig(max_steps=15, seed=4, workload=key)
        )
        result = evaluator.evaluate(("rx",), 1)
        optimum = problem.classical_optimum(graphs[0])
        assert result.per_graph_energy[0] <= optimum + 1e-9
        assert result.per_graph_ratio[0] == pytest.approx(
            result.per_graph_energy[0] / optimum
        )

    def test_same_graph_different_workloads_different_energies(self, graphs):
        results = {}
        for key in ("maxcut", "maxsat"):
            evaluator = Evaluator(
                graphs, EvaluationConfig(max_steps=15, seed=4, workload=key)
            )
            results[key] = evaluator.evaluate(("rx",), 1).energy
        assert results["maxcut"] != results["maxsat"]

    def test_classical_optima_per_workload(self, graphs):
        per_key = {
            key: classical_optima(graphs, key) for key in available_workloads()
        }
        assert per_key["maxcut"] != per_key["maxsat"]
        assert all(len(v) == 1 for v in per_key.values())


class TestSpecResolution:
    @pytest.mark.parametrize(
        ("spec", "implied"),
        [
            ("er:2:7", "maxcut"),
            ("regular:2:7", "maxcut"),
            ("wmaxcut:2:7", "wmaxcut"),
            ("maxsat:2:7", "maxsat"),
            ("ising:2:7", "ising"),
        ],
    )
    def test_families_imply_their_problem(self, spec, implied):
        key, graph_list = resolve_workload_spec(spec)
        assert key == implied
        assert len(graph_list) == 2

    def test_raw_graphs_imply_nothing(self, graphs):
        key, graph_list = resolve_workload_spec(graphs)
        assert key is None
        assert graph_list == list(graphs)

    def test_resolve_workload_stays_compatible(self):
        assert len(resolve_workload("maxsat:3:5")) == 3

    def test_unknown_family_lists_all_options(self):
        with pytest.raises(ValueError, match="ising"):
            resolve_workload_spec("barabasi:3")


class TestReconcile:
    def test_implied_key_fills_the_default(self):
        assert reconcile_workload(Config(), "ising").workload == "ising"

    def test_matching_explicit_key_is_a_noop(self):
        cfg = Config(workload="maxsat")
        assert reconcile_workload(cfg, "maxsat") is cfg

    def test_no_implication_leaves_config_alone(self):
        cfg = Config(workload="wmaxcut")
        assert reconcile_workload(cfg, None) is cfg

    def test_conflicting_explicit_key_is_an_error(self):
        with pytest.raises(ValueError, match="drop one"):
            reconcile_workload(Config(workload="maxsat"), "ising")

    def test_search_threads_the_implied_key_into_the_result(self):
        from repro.api import search

        result = search(
            "ising:1:5", depths=1, config=Config(k_min=1, k_max=1, steps=10)
        )
        assert result.config["workload"] == "ising"
