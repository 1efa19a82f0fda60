"""repro.api: the stable facade — Config mapping, workloads, search()."""

from dataclasses import fields, replace
from functools import reduce

import pytest

from repro import Config, search
from repro.api import (
    SERVICE_IGNORED,
    ConfigError,
    resolve_workload,
    workload_to_wire,
)
from repro.core.results import SearchResult
from repro.core.search import search_mixer
from repro.graphs.datasets import paper_er_dataset
from repro.graphs.generators import Graph


class TestConfig:
    def test_defaults_map_onto_internal_configs(self):
        config = Config()
        evaluation = config.evaluation_config()
        assert evaluation.optimizer == "cobyla"
        assert evaluation.max_steps == 60
        search_cfg = config.search_config(depths=3)
        assert search_cfg.p_max == 3
        assert search_cfg.evaluation == evaluation
        runtime = config.runtime_config()
        assert runtime.max_retries == 2
        assert runtime.cache_dir is None

    #: field -> (internal config, attribute path, a non-default value), or
    #: where else it is consumed; shard_index/resume ride on a config that
    #: makes them legal (shards=2 / a cache_dir)
    LANDS = {
        "k_min": ("search", "k_min", 2),
        "k_max": ("search", "k_max", 3),
        "mode": ("search", "mode", "sequences"),
        "num_samples": ("search", "num_samples", 5),
        "optimizer": ("evaluation", "optimizer", "spsa"),
        "steps": ("evaluation", "max_steps", 9),
        "restarts": ("evaluation", "restarts", 2),
        "batch_mode": ("evaluation", "batch_mode", "serial"),
        "seed": ("evaluation", "seed", 7),
        "engine": ("evaluation", "engine", "statevector"),
        "array_backend": ("evaluation", "array_backend", "mock_gpu"),
        "metric": ("evaluation", "metric", "best_sampled"),
        "shots": ("evaluation", "shots", 11),
        "workload": ("evaluation", "workload", "maxsat"),
        "init_strategy": ("evaluation", "init_strategy", "ramp"),
        "workers": "search()'s executor rule (TestSearch.test_one_pool_per_shard)",
        "shards": ("runtime", "shards", 3),
        "shard_index": ("runtime", "shard_index", 1),
        "cache_dir": ("runtime", "cache_dir", "/tmp/y"),
        "cache_max_entries": ("runtime", "cache_max_entries", 10),
        "resume": ("runtime", "resume", True),
        "retries": ("runtime", "max_retries", 4),
        "job_timeout": ("runtime", "job_timeout", 1.5),
        "surrogate": ("search", "surrogate.enabled", True),
        "surrogate_keep": ("search", "surrogate.keep_fraction", 0.3),
        "explore_floor": ("search", "surrogate.explore_floor", 0.2),
        "tenant": "Client.submit's payload (service-side scheduling)",
        "priority": "Client.submit's payload (service-side scheduling)",
    }

    def test_every_field_reaches_its_internal_config(self):
        """Iterates ``fields(Config)``: a new field with no row here — one
        that lands nowhere — fails."""
        base = Config(shards=2, cache_dir="/tmp/x")
        assert set(self.LANDS) == {f.name for f in fields(Config)}
        for name, lands in self.LANDS.items():
            if isinstance(lands, str):
                continue
            target, path, value = lands
            config = replace(base, **{name: value})
            assert getattr(config, name) != getattr(base, name), name
            internal = {
                "evaluation": config.evaluation_config,
                "search": lambda: config.search_config(1),
                "runtime": config.runtime_config,
            }[target]()
            assert reduce(getattr, path.split("."), internal) == value, name
        # the training group also rides inside the search config
        search_cfg = replace(base, steps=9, seed=7).search_config(1)
        assert search_cfg.evaluation.max_steps == 9
        assert (search_cfg.seed, search_cfg.surrogate.seed) == (7, 7)

    def test_choices_are_checked_at_construction(self):
        for name in ("optimizer", "mode", "engine", "batch_mode", "metric",
                     "array_backend", "workload", "init_strategy"):
            with pytest.raises(ConfigError, match=f"unknown {name.replace('_', ' ')}"):
                Config(**{name: "bogus"})
        with pytest.raises(ConfigError, match="k_min must be <= k_max"):
            Config(k_min=5, k_max=2)
        # below -1 used to run serial without a word
        for workers in (-2, -16):
            with pytest.raises(ConfigError) as rejected:
                Config(workers=workers)
            assert str(rejected.value) == (
                f"workers must be 0/1 (serial), N processes or -1 (all cores), got {workers}"
            )
        assert [Config(workers=n).workers for n in (-1, 0, 1, 2)] == [-1, 0, 1, 2]
        # every mode the enumerator knows stays legal through the facade
        assert Config(mode="multisets").search_config(1).mode == "multisets"

    def test_new_fields_default_to_the_internal_defaults(self):
        assert Config().batch_mode == "auto"
        assert Config().shard_index is None
        assert Config().runtime_config().shard_index is None

    def test_numeric_ranges_are_the_internal_rules_own_messages(self):
        with pytest.raises(ConfigError, match="max_steps must be > 0, got 0"):
            Config(steps=0).evaluation_config()
        with pytest.raises(ConfigError, match="keep_fraction must be in"):
            Config(surrogate_keep=2.0).search_config(1)
        # off the engine list since PR 20: the standard unknown-choice text
        with pytest.raises(
            ConfigError, match="^unknown engine 'qtensor'; options: compiled, statevector$"
        ):
            Config(engine="qtensor")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"retries": -1}, "max_retries must be >= 0, got -1"),
            ({"job_timeout": -1.0}, "job_timeout must be finite and > 0, got -1.0"),
            ({"job_timeout": 0.0}, "job_timeout must be finite and > 0, got 0.0"),
            ({"job_timeout": float("nan")}, "job_timeout must be finite and > 0, got nan"),
            ({"job_timeout": float("inf")}, "job_timeout must be finite and > 0, got inf"),
            ({"num_samples": 2.5}, "num_samples must be an integer, got 2.5"),
            ({"num_samples": -1}, "num_samples must be > 0, got -1"),
            ({"num_samples": 0}, "num_samples must be > 0, got 0"),
        ],
    )
    def test_bad_retries_timeouts_and_sample_caps_fail_before_any_work(self, bad, message):
        """Each used to run: a negative retry count, a timeout that never
        fires or overflows the clock, a cap that slices the pool wrong."""
        config = Config(**bad)
        with pytest.raises(ConfigError, match=message):
            config.runtime_config()
            config.search_config(1)
        with pytest.raises(ConfigError, match=message):
            search("er:1", depths=1, config=config)

    def test_for_service_drops_the_local_execution_group(self):
        config = Config(
            workers=4, shards=2, shard_index=1, cache_dir="/tmp/x",
            cache_max_entries=3, resume=True, retries=5, steps=9,
        )
        served = config.for_service()
        assert served == Config(retries=5, steps=9)
        assert {
            f.name for f in fields(Config)
            if getattr(served, f.name) != getattr(config, f.name)
        } == set(SERVICE_IGNORED)

    def test_roundtrips_through_dict(self):
        config = Config(k_max=3, steps=12, optimizer="adam")
        assert Config.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="max_step"):
            Config.from_dict({"max_step": 10})


class TestWorkloads:
    def test_spec_string_forms(self):
        assert len(resolve_workload("er")) == 3  # default count
        assert len(resolve_workload("er:2")) == 2
        assert len(resolve_workload("regular:2:5")) == 2

    def test_spec_string_is_seeded(self):
        first = resolve_workload("er:2:11")
        again = resolve_workload("er:2:11")
        assert [g.edges for g in first] == [g.edges for g in again]
        other = resolve_workload("er:2:12")
        assert [g.edges for g in first] != [g.edges for g in other]

    def test_graph_sequences_pass_through(self):
        graphs = paper_er_dataset(2)
        assert resolve_workload(graphs) == list(graphs)

    def test_wire_dicts_roundtrip(self):
        graphs = paper_er_dataset(2)
        wire = workload_to_wire(graphs)
        restored = resolve_workload(wire)
        assert all(isinstance(g, Graph) for g in restored)
        assert [g.edges for g in restored] == [g.edges for g in graphs]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="workload spec"):
            resolve_workload("barabasi:3")

    @pytest.mark.parametrize("spec", ["er:x", "er:2:zz", "er::", "er:1.5"])
    def test_malformed_count_or_seed_is_a_config_error(self, spec):
        """Not the bare ``invalid literal for int()`` of the conversion."""
        with pytest.raises(ConfigError) as rejected:
            search(spec)
        expected = f"unknown workload spec {spec!r}; expected 'family[:count[:seed]]' with"
        assert str(rejected.value).startswith(expected)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_workload([])


class TestSearch:
    CONFIG = Config(k_min=2, k_max=2, steps=5, num_samples=4, seed=3)

    def test_returns_a_search_result(self):
        result = search("er:2", depths=1, config=self.CONFIG)
        assert isinstance(result, SearchResult)
        assert result.num_candidates == 4
        assert result.best_tokens

    def test_facade_matches_the_deep_api(self):
        """The facade is sugar, not a fork: identical inputs give
        identical results through either route."""
        facade = search("er:2:9", depths=1, config=self.CONFIG)
        deep = search_mixer(
            resolve_workload("er:2:9"), self.CONFIG.search_config(1)
        )
        assert facade.best_tokens == deep.best_tokens
        assert facade.best_energy == deep.best_energy

    def test_cache_dir_wiring(self, tmp_path):
        config = Config(**{**self.CONFIG.to_dict(), "cache_dir": str(tmp_path)})
        cold = search("er:2", depths=1, config=config)
        warm = search("er:2", depths=1, config=config)
        assert cold.config["cache_misses"] == 4
        assert warm.config["cache_hits"] == 4
        assert warm.best_energy == cold.best_energy

    def test_one_pool_per_shard(self):
        """The one executor rule: ``shards`` pools with the workers spread
        over them (what ``repro search --shards 2 --workers 3`` always did)."""
        config = replace(self.CONFIG, shards=2, workers=3)
        result = search("er:1", depths=1, config=config)
        assert result.config["executor"] == "sharded[multiprocessing]"
        assert result.config["num_workers"] == 3
        plain = search("er:1", depths=1, config=self.CONFIG)
        assert result.best_energy == plain.best_energy

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(resume=True), "resume requires cache_dir"),
            (dict(shards=2, shard_index=0), "shard_index requires a result store"),
            (dict(shards=2, shard_index=2, cache_dir="x"), "shard_index must be in"),
            (dict(shards=0), "shards must be >= 1"),
        ],
    )
    def test_runtime_layer_rules_surface_through_the_facade(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            search("er:1", depths=1, config=replace(self.CONFIG, **settings))

    def test_top_level_exports(self):
        import repro

        assert repro.search is search
        assert repro.Config is Config
        assert callable(repro.connect)
