"""Command-line interface."""

import json

import pytest
from tests.conftest import evaluations

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
        with pytest.raises(SystemExit, match="resume requires cache_dir"):
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
        with pytest.raises(SystemExit, match="shard_index requires a result store"):
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
        with pytest.raises(SystemExit, match="shard_index must be in"):
            main([
                "search", "--shards", "2", "--shard-index", "2",
                "--cache-dir", str(tmp_path),
            ])

    def test_invalid_shards_rejected(self):
        with pytest.raises(SystemExit, match="shards must be >= 1"):
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

    def test_explicit_maxcut_on_another_family_is_a_conflict_too(self):
        """--workload spelled out must agree with the family even when it
        spells the facade's default."""
        with pytest.raises(SystemExit, match="implies"):
            main(["search", "--dataset", "maxsat", "--workload", "maxcut"])


class TestConfigurationErrors:
    """A rejected setting exits with the rule's own message; a bug tracebacks."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--restarts", "0"], "restarts must be > 0, got 0"),
            (["search", "--steps", "0"], "max_steps must be > 0, got 0"),
            (["evaluate", "rx", "--steps", "0"], "max_steps must be > 0, got 0"),
            (["search", "--surrogate-keep", "2"], "keep_fraction must be in"),
            (["search", "--k-min", "3", "--k-max", "2"], "k_min must be <= k_max"),
            (["search", "--p-max", "0"], "p_max must be > 0"),
            (["search", "--graphs", "0"], "num_graphs must be > 0"),
            (["search", "--workers", "-2"], r"workers must be 0/1 \(serial\), N processes or -1"),
        ],
    )
    def test_exits_with_the_rules_message(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(argv)

    def test_the_qtensor_engine_is_no_longer_a_choice(self, capsys):
        """Off the flag surface: argparse's own invalid-choice exit, naming
        the two engines that are left."""
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "--engine", "qtensor"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "argument --engine: invalid choice: 'qtensor'" in error
        assert "compiled" in error and "statevector" in error

    def test_a_value_error_from_inside_the_sweep_is_not_translated(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("repro.core.runtime.classical_optima", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["search", "--graphs", "1", "--steps", "4", "--p-max", "1",
                  "--k-min", "1", "--k-max", "1"])

    def test_job_timeout_on_the_serial_executor_is_a_note_not_an_error(self, capsys):
        assert main(["search", "--graphs", "1", "--steps", "4", "--p-max", "1",
                     "--k-min", "1", "--k-max", "1", "--metric", "energy",
                     "--job-timeout", "30"]) == 0
        assert "--job-timeout has no effect" in capsys.readouterr().err


class TestCliIsTheFacade:
    """`repro search` is args -> Config -> api.search: same sweep, same
    numbers, through either door."""

    ARGV = ["search", "--graphs", "1", "--steps", "8", "--p-max", "2",
            "--metric", "energy"]
    #: what ARGV means as a Config: its flags plus the CLI's own defaults
    CONFIG = dict(k_min=2, k_max=2, steps=8, metric="energy", restarts=2, shots=64)

    @pytest.mark.parametrize(
        "flags, settings",
        [
            ([], {}),
            (["--surrogate"], dict(surrogate=True)),
            (["--shards", "2"], dict(shards=2)),
            (["--init-strategy", "interp"], dict(init_strategy="interp")),
            (["--batch-mode", "serial", "--optimizer", "spsa"],
             dict(batch_mode="serial", optimizer="spsa")),
        ],
        ids=["plain", "surrogate", "shards", "interp", "batch-serial"],
    )
    def test_same_evaluations_energy_for_energy(self, flags, settings, tmp_path, capsys):
        from repro.api import Config, search
        from repro.core.results import SearchResult

        out = tmp_path / "result.json"
        assert main(self.ARGV + flags + ["--out", str(out)]) == 0
        via_cli = SearchResult.load(out)
        via_facade = search(
            "er:1:2023", depths=2, config=Config(**self.CONFIG, **settings)
        )
        assert evaluations(via_cli) == evaluations(via_facade)
        assert via_cli.best_tokens == via_facade.best_tokens
        assert via_cli.config == via_facade.config

    def test_sharded_pools_agree_through_both(self, tmp_path, capsys):
        from repro.api import Config, search
        from repro.core.results import SearchResult

        out = tmp_path / "result.json"
        argv = self.ARGV + ["--shards", "2", "--workers", "4", "--out", str(out)]
        assert main(argv) == 0
        via_cli = SearchResult.load(out).config
        via_facade = search(
            "er:1:2023", depths=2, config=Config(**self.CONFIG, shards=2, workers=4)
        ).config
        assert via_cli["executor"] == via_facade["executor"] == "sharded[multiprocessing]"
        assert via_cli["num_workers"] == via_facade["num_workers"] == 4


def _parser_table():
    import argparse

    subcommands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            ",".join(a.option_strings) or a.dest: (
                a.type.__name__ if a.type else None,
                a.default,
                [c for c in a.choices if c != "cupy"] if a.choices else None,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in subcommands.choices.items()
    }


#: the sweep-setting flags `search` and `evaluate` share
_TRAINING_FLAGS = {
    "--dataset": (None, "er", ["er", "ising", "maxsat", "regular", "wmaxcut"]),
    "--workload": (None, None, ["ising", "maxcut", "maxsat", "wmaxcut"]),
    "--init-strategy": (None, "uniform", ["uniform", "ramp", "interp"]),
    "--graphs": ("int", 3, None),
    "--dataset-seed": ("int", 2023, None),
    "--steps": ("int", 60, None),
    "--optimizer": (None, "cobyla", ["cobyla", "nelder_mead", "spsa", "adam"]),
    "--restarts": ("int", 2, None),
    "--batch-mode": (None, "auto", ["auto", "batched", "serial"]),
    "--metric": (None, "best_sampled", ["energy", "best_sampled"]),
    "--shots": ("int", 64, None),
    "--seed": ("int", 0, None),
    "--engine": (None, "compiled", ["compiled", "statevector"]),
    "--array-backend": (None, "numpy", ["numpy", "mock_gpu"]),
}

#: every subcommand's (type, default, choices) per option, as of PR 13 —
#: the surface generating flags from Config must not move
PARSER_TABLE = {
    "search": {
        **_TRAINING_FLAGS,
        "--p-max": ("int", 2, None),
        "--k-min": ("int", 2, None),
        "--k-max": ("int", 2, None),
        "--mode": (None, "combinations", ["combinations", "sequences", "permutations"]),
        "--workers": ("int", 0, None),
        "--shards": ("int", 1, None),
        "--shard-index": ("int", None, None),
        "--surrogate": (None, False, None),
        "--surrogate-keep": ("float", 0.5, None),
        "--explore-floor": ("float", 0.1, None),
        "--out": (None, None, None),
        "--cache-dir": (None, None, None),
        "--resume": (None, False, None),
        "--retries": ("int", 2, None),
        "--job-timeout": ("float", None, None),
    },
    "evaluate": {
        **_TRAINING_FLAGS,
        "mixer": (None, None, None),
        "--p": ("int", 1, None),
    },
    "draw": {"mixer": (None, None, None), "--qubits": ("int", 10, None)},
    "serve": {
        "--dir": (None, ".repro-service", None),
        "--host": (None, "127.0.0.1", None),
        "--port": ("int", 8787, None),
        "--max-concurrent": ("int", 2, None),
        "--workers": ("int", 0, None),
        "--cache-max-entries": ("int", None, None),
        "--lease-seconds": ("float", 30.0, None),
        "--max-attempts": ("int", 3, None),
        "--max-queue-depth": ("int", None, None),
        "--max-queued-per-tenant": ("int", None, None),
        "--max-running-per-tenant": ("int", None, None),
        "--drain-timeout": ("float", None, None),
        "--tenant-weight": (None, [], None),
        "--trace-log": (None, None, None),
    },
}


def test_the_parser_is_a_contract():
    assert _parser_table() == PARSER_TABLE
