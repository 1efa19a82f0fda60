"""INTERP warm starts across depths, and the per-depth QASM export.

Both ride the v3 ``best_params`` field: the runtime harvests each depth's
trained parameters, hands them to the next depth's jobs as INTERP warm
starts (Zhou et al. 2020), and binds the depth winner's parameters into an
OpenQASM export. Warm-started evaluations must get warm-aware cache keys —
an interp run and a cold run of the same config are *different*
computations and may never alias in a shared cache.
"""

import sqlite3

import pytest

from repro.circuits.qasm import from_qasm, to_qasm
from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.core.runtime import RuntimeConfig, SearchRuntime
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.generators import erdos_renyi_graph
from repro.qaoa.ansatz import build_qaoa_ansatz


@pytest.fixture(scope="module")
def graphs():
    return [erdos_renyi_graph(6, 0.5, seed=s, require_connected=True) for s in (1, 2)]


def _config(init_strategy="uniform", steps=15):
    return SearchConfig(
        p_max=2,
        k_min=1,
        k_max=1,
        evaluation=EvaluationConfig(
            max_steps=steps, seed=5, init_strategy=init_strategy
        ),
    )


class TestInterpRuntime:
    def test_interp_sweep_runs_and_records_the_strategy(self, graphs):
        result = search_mixer(graphs, _config("interp"))
        assert result.config["init_strategy"] == "interp"
        assert len(result.depth_results) == 2
        assert all(d.evaluations for d in result.depth_results)

    def test_best_params_have_qaoa_shape(self, graphs):
        result = search_mixer(graphs, _config("interp"))
        for depth in result.depth_results:
            for evaluation in depth.evaluations:
                assert len(evaluation.best_params) == len(graphs)
                assert all(
                    len(row) == 2 * depth.p for row in evaluation.best_params
                )

    def test_interp_and_cold_runs_never_share_cache_keys(self, graphs, tmp_path):
        """The cache-poisoning guard: a cold rerun after an interp run must
        miss at p >= 2 (warm-aware keys), while p=1 — which interp cannot
        warm — is shared."""
        cache_dir = tmp_path / "cache"
        runtime = RuntimeConfig(cache_dir=str(cache_dir))
        interp = search_mixer(graphs, _config("interp"), runtime=runtime)
        cold = search_mixer(graphs, _config("uniform"), runtime=runtime)
        assert cold.config["cache_hits"] == 0  # uniform != interp config fp
        rerun = search_mixer(graphs, _config("interp"), runtime=runtime)
        assert rerun.config["cache_misses"] == 0
        assert rerun.best_ratio == interp.best_ratio

    def test_interp_rerun_is_deterministic(self, graphs):
        first = search_mixer(graphs, _config("interp"))
        second = search_mixer(graphs, _config("interp"))
        assert first.best_ratio == second.best_ratio
        assert [d.best.tokens for d in first.depth_results] == [
            d.best.tokens for d in second.depth_results
        ]

    def test_interp_rejects_shard_index_runs(self, graphs):
        with pytest.raises(ValueError, match="interp"):
            SearchRuntime(
                graphs,
                _config("interp"),
                runtime=RuntimeConfig(shards=2, shard_index=0, cache_dir="x"),
            )


class TestEvaluatorWarmStarts:
    def test_warm_start_changes_the_inmemory_cache_key(self, graphs):
        evaluator = Evaluator(
            graphs, EvaluationConfig(max_steps=12, seed=5, init_strategy="interp")
        )
        cold = evaluator.evaluate(("rx",), 2)
        warm_rows = tuple((0.3, -0.4) for _ in graphs)  # 2(p-1) at p=2
        warm = evaluator.evaluate(("rx",), 2, warm_start=warm_rows)
        # both results are cached under distinct keys
        assert evaluator.evaluate(("rx",), 2) is cold
        assert evaluator.evaluate(("rx",), 2, warm_start=warm_rows) is warm

    def test_warm_start_ignored_outside_interp(self, graphs):
        evaluator = Evaluator(graphs, EvaluationConfig(max_steps=12, seed=5))
        warm_rows = tuple((0.3, -0.4) for _ in graphs)
        cold = evaluator.evaluate(("rx",), 2)
        assert evaluator.evaluate(("rx",), 2, warm_start=warm_rows) is cold

    def test_malformed_warm_start_is_ignored(self, graphs):
        evaluator = Evaluator(
            graphs, EvaluationConfig(max_steps=12, seed=5, init_strategy="interp")
        )
        cold = evaluator.evaluate(("rx",), 2)
        # wrong row width (3 != 2(p-1)) -> treated as no warm start
        bad = tuple((0.1, 0.2, 0.3) for _ in graphs)
        assert evaluator.evaluate(("rx",), 2, warm_start=bad) is cold


def _flat_export(graphs, depth, workload="maxcut"):
    """The winner's export the slow way: build the whole symbolic circuit,
    bind it and serialize it gate by gate."""
    best = depth.best
    ansatz = build_qaoa_ansatz(graphs[0], depth.p, best.tokens, workload=workload)
    return to_qasm(ansatz.bind(best.best_params[0]))


class TestQasmExport:
    def test_every_depth_exports_its_winner(self, graphs):
        result = search_mixer(graphs, _config())
        for depth in result.depth_results:
            qasm = depth.best_qasm
            assert qasm is not None
            assert qasm.startswith("OPENQASM 2.0;")
            assert f"qreg q[{graphs[0].num_nodes}];" in qasm
            assert qasm == _flat_export(graphs, depth)
            assert from_qasm(qasm).num_qubits == graphs[0].num_nodes

    def test_fresh_warm_and_restored_exports_are_the_flat_one(self, graphs, tmp_path):
        config = SearchConfig(
            p_max=3, k_min=1, k_max=2, evaluation=EvaluationConfig(max_steps=8, seed=5)
        )

        def run(**settings):
            runtime = RuntimeConfig(cache_dir=str(tmp_path), **settings)
            return search_mixer(graphs, config, runtime=runtime)

        def exports(result):
            for depth in result.depth_results:
                assert depth.best_qasm == _flat_export(graphs, depth)
            return [d.best_qasm for d in result.depth_results]

        fresh = run()
        warm = run()
        assert warm.config["cache_misses"] == 0
        # depth rows without stored QASM: resume regenerates every export
        with sqlite3.connect(tmp_path / "results.sqlite") as store:
            store.execute("UPDATE depths SET best_qasm = NULL")
        restored = run(resume=True)
        assert restored.config["restored_depths"] == 3
        assert exports(fresh) == exports(warm) == exports(restored)

    def test_qasm_binds_the_trained_parameters(self, graphs):
        result = search_mixer(graphs, _config())
        qasm = result.depth_results[0].best_qasm
        # a bound export has no symbolic parameters left
        assert "gamma" not in qasm
        assert "beta" not in qasm

    def test_qasm_rides_the_wire(self, graphs):
        from repro.core.results import SearchResult

        result = search_mixer(graphs, _config())
        restored = SearchResult.from_dict(result.to_dict())
        assert [d.best_qasm for d in restored.depth_results] == [
            d.best_qasm for d in result.depth_results
        ]

    @pytest.mark.parametrize("key", ["maxsat", "ising"])
    def test_qasm_exports_for_every_workload(self, key):
        from repro.workloads import get_workload

        workload_graphs = list(get_workload(key).dataset(1, dataset_seed=5))
        config = SearchConfig(
            p_max=1,
            k_min=1,
            k_max=1,
            evaluation=EvaluationConfig(max_steps=10, seed=5, workload=key),
        )
        result = search_mixer(workload_graphs, config)
        depth = result.depth_results[0]
        assert depth.best_qasm.startswith("OPENQASM 2.0;")
        assert depth.best_qasm == _flat_export(workload_graphs, depth, key)
