"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.p_max == 2
        assert args.mode == "combinations"
        assert args.metric == "best_sampled"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])


class TestDrawCommand:
    def test_draws_circuit(self, capsys):
        assert main(["draw", "rx,ry", "--qubits", "3"]) == 0
        out = capsys.readouterr().out
        assert "RX(2*beta)" in out
        assert out.count("q") >= 3

    def test_empty_mixer_rejected(self):
        with pytest.raises(SystemExit):
            main(["draw", ",,"])


class TestEvaluateCommand:
    def test_evaluates_mixer(self, capsys):
        code = main([
            "evaluate", "rx", "--graphs", "1", "--steps", "8",
            "--metric", "energy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean ratio" in out

    def test_regular_dataset_option(self, capsys):
        code = main([
            "evaluate", "rx", "--dataset", "regular", "--graphs", "1",
            "--steps", "8",
        ])
        assert code == 0

    def test_array_backend_option(self, capsys):
        code = main([
            "evaluate", "rx", "--graphs", "1", "--steps", "8",
            "--metric", "energy", "--array-backend", "mock_gpu",
        ])
        assert code == 0
        assert "mean ratio" in capsys.readouterr().out

    def test_unregistered_array_backend_rejected(self, capsys):
        """argparse choices come from the live registry, so a backend that
        did not register (e.g. "cupy" without CuPy installed, or a typo)
        is rejected before any work starts."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "evaluate", "rx", "--graphs", "1", "--steps", "8",
                "--array-backend", "not_a_backend",
            ])
        assert excinfo.value.code == 2
        assert "--array-backend" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code = main([
            "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1", "--out", str(out_path),
        ])
        assert code == 0
        assert "winner" in capsys.readouterr().out
        saved = json.loads(out_path.read_text())
        assert saved["format"] == "repro-search-result-v3"

    def test_cache_dir_makes_rerun_all_hits(self, tmp_path, capsys):
        args = [
            "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1", "--metric", "energy",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "misses" in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "cache: 5 hits, 0 misses" in warm_out

    def test_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --cache-dir"):
            main(["search", "--resume"])

    def test_sharded_search(self, capsys):
        code = main([
            "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1", "--metric", "energy",
            "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "shards: 2 (0 died, 0 candidates migrated)" in out

    def test_shard_index_processes_meet_in_cache(self, tmp_path, capsys):
        """Two --shard-index 'processes' then a merge run: the merge is
        pure cache hits."""
        base = [
            "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1", "--metric", "energy",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        for index in ("0", "1"):
            assert main(base + ["--shards", "2", "--shard-index", index]) == 0
            out = capsys.readouterr().out
            assert f"shard {index}/2: partial sweep" in out
        assert main(base) == 0
        assert "cache: 5 hits, 0 misses" in capsys.readouterr().out

    def test_shard_index_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--shard-index requires --cache-dir"):
            main(["search", "--shards", "2", "--shard-index", "0"])

    def test_surrogate_with_shard_index_exits_with_the_runtime_message(
        self, tmp_path
    ):
        """No CLI pre-check: the runtime's single rejection surfaces as
        the exit message."""
        with pytest.raises(SystemExit, match="shard_index requires a proposer"):
            main([
                "search", "--graphs", "1", "--steps", "4", "--p-max", "1",
                "--k-min", "1", "--k-max", "1", "--metric", "energy",
                "--surrogate", "--shards", "2", "--shard-index", "0",
                "--cache-dir", str(tmp_path),
            ])

    def test_shard_index_range_checked(self, tmp_path):
        with pytest.raises(SystemExit, match="--shard-index must be in"):
            main([
                "search", "--shards", "2", "--shard-index", "2",
                "--cache-dir", str(tmp_path),
            ])

    def test_invalid_shards_rejected(self):
        with pytest.raises(SystemExit, match="--shards must be >= 1"):
            main(["search", "--shards", "0"])

    def test_empty_shard_slice_exits_gracefully(self, tmp_path):
        """More shards than candidates: the empty shard process gets a
        configuration message, not a traceback."""
        with pytest.raises(SystemExit, match="shard 49/50 received no candidates"):
            main([
                "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
                "--k-min", "1", "--k-max", "1", "--metric", "energy",
                "--shards", "50", "--shard-index", "49",
                "--cache-dir", str(tmp_path),
            ])

    def test_resume_restores_depths(self, tmp_path, capsys):
        args = [
            "search", "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1", "--metric", "energy",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "1 depths restored" in capsys.readouterr().out


class TestWorkloadOptions:
    """--dataset families, --workload, --init-strategy."""

    def test_workload_choices_come_from_the_live_registry(self):
        from repro.workloads import available_workloads

        parser = build_parser()
        action = next(
            a
            for a in parser._subparsers._group_actions[0].choices["search"]._actions
            if a.dest == "workload"
        )
        assert tuple(action.choices) == available_workloads()

    @pytest.mark.parametrize("dataset", ["wmaxcut", "maxsat", "ising"])
    def test_search_runs_every_dataset_family(self, dataset, capsys):
        code = main([
            "search", "--dataset", dataset, "--graphs", "1", "--steps", "8",
            "--p-max", "1", "--k-min", "1", "--k-max", "1",
        ])
        assert code == 0
        assert "winner" in capsys.readouterr().out

    def test_explicit_matching_workload_accepted(self, capsys):
        code = main([
            "search", "--dataset", "ising", "--workload", "ising",
            "--graphs", "1", "--steps", "8", "--p-max", "1",
            "--k-min", "1", "--k-max", "1",
        ])
        assert code == 0

    def test_conflicting_workload_rejected(self):
        with pytest.raises(SystemExit, match="implies"):
            main([
                "search", "--dataset", "er", "--workload", "ising",
                "--graphs", "1", "--steps", "8", "--p-max", "1",
                "--k-min", "1", "--k-max", "1",
            ])

    def test_saved_result_records_the_workload(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code = main([
            "search", "--dataset", "maxsat", "--graphs", "1", "--steps", "8",
            "--p-max", "1", "--k-min", "1", "--k-max", "1",
            "--out", str(out_path),
        ])
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["config"]["workload"] == "maxsat"
        assert saved["depth_results"][0]["best_qasm"].startswith("OPENQASM 2.0;")

    def test_interp_init_strategy_runs(self, capsys):
        code = main([
            "search", "--graphs", "1", "--steps", "8", "--p-max", "2",
            "--k-min", "1", "--k-max", "1", "--init-strategy", "interp",
        ])
        assert code == 0
        assert "winner" in capsys.readouterr().out

    def test_evaluate_on_a_workload_dataset(self, capsys):
        code = main([
            "evaluate", "rx", "--dataset", "wmaxcut", "--graphs", "1",
            "--steps", "8", "--metric", "energy",
        ])
        assert code == 0
        assert "mean ratio" in capsys.readouterr().out
