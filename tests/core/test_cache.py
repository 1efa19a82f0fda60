"""Persistent result cache: fingerprints, hit/miss accounting, checkpoints."""

import json
import os
import stat
import threading

import pytest

from repro.core.cache import (
    ResultCache,
    SweepCheckpoint,
    candidate_key,
    config_fingerprint,
    depth_fingerprint,
    workload_fingerprint,
)
from repro.core.evaluator import EvaluationConfig
from repro.core.results import CandidateEvaluation, DepthResult
from repro.graphs.generators import erdos_renyi_graph
from repro.qaoa import initialization
from repro.surrogate.config import SurrogateConfig


@pytest.fixture
def graphs():
    return [erdos_renyi_graph(5, 0.6, seed=s, require_connected=True) for s in (3, 4)]


def make_evaluation(tokens=("rx",), p=1, ratio=0.9):
    return CandidateEvaluation(
        tokens=tuple(tokens),
        p=p,
        energy=3.5,
        ratio=ratio,
        per_graph_energy=(3.4, 3.6),
        per_graph_ratio=(ratio, ratio),
        nfev=17,
        seconds=0.25,
    )


class TestFingerprints:
    def test_workload_fingerprint_stable(self, graphs):
        assert workload_fingerprint(graphs) == workload_fingerprint(list(graphs))

    def test_workload_fingerprint_sees_content(self, graphs):
        other = [erdos_renyi_graph(5, 0.6, seed=9, require_connected=True)]
        assert workload_fingerprint(graphs) != workload_fingerprint(other)
        assert workload_fingerprint(graphs) != workload_fingerprint(graphs[:1])

    def test_config_fingerprint_sees_every_field(self):
        base = EvaluationConfig(max_steps=10)
        assert config_fingerprint(base) == config_fingerprint(EvaluationConfig(max_steps=10))
        changed = [
            EvaluationConfig(max_steps=11),
            EvaluationConfig(max_steps=10, optimizer="spsa"),
            EvaluationConfig(max_steps=10, seed=8),
            EvaluationConfig(max_steps=10, restarts=2),
            EvaluationConfig(max_steps=10, metric="best_sampled"),
            EvaluationConfig(max_steps=10, init_strategy="ramp"),
            EvaluationConfig(max_steps=10, engine="statevector"),
            EvaluationConfig(max_steps=10, array_backend="mock_gpu"),
        ]
        for config in changed:
            assert config_fingerprint(config) != config_fingerprint(base)

    def test_the_on_disk_keys_are_literal_digests(self):
        """Cache rows and ``:surrogate-<fp>`` checkpoint suffixes already on
        disk stay hits: a cut setting keeps its place in these payloads."""
        assert config_fingerprint(EvaluationConfig()) == (
            "8f6992f61a3ca24929a00bbc676083768f070c7898272bcb22cce98cfa1df03d"
        )
        assert SurrogateConfig().fingerprint() == "ec167425ec204051"
        assert SurrogateConfig(enabled=True).fingerprint() == "ad106bbd48c5040b"

    def test_a_retired_setting_still_moves_the_config_fingerprint(self, monkeypatch):
        before = config_fingerprint(EvaluationConfig())
        monkeypatch.setattr(initialization, "UNIFORM_SCALE", 0.25)
        assert config_fingerprint(EvaluationConfig()) != before

    def test_engine_is_part_of_the_runtime_payload_fingerprint(self):
        """Runtime job payloads are keyed by the config fingerprint, so a
        result trained on one engine can never be replayed as another's."""
        compiled = config_fingerprint(EvaluationConfig(engine="compiled"))
        dense = config_fingerprint(EvaluationConfig(engine="statevector"))
        assert compiled != dense

    def test_array_backend_is_part_of_the_fingerprint(self):
        """Like the engine: a result trained on one array backend can
        never be replayed as another's (results are pinned identical, but
        timings/accounting are not — and a buggy device backend must not
        poison numpy-keyed cache entries)."""
        numpy_fp = config_fingerprint(EvaluationConfig(array_backend="numpy"))
        mock_fp = config_fingerprint(EvaluationConfig(array_backend="mock_gpu"))
        assert numpy_fp != mock_fp

    def test_candidate_key_invalidation(self, graphs):
        wfp = workload_fingerprint(graphs)
        cfp = config_fingerprint(EvaluationConfig())
        base = candidate_key(wfp, ("rx", "ry"), 2, cfp)
        assert base == candidate_key(wfp, ("rx", "ry"), 2, cfp)
        assert base != candidate_key(wfp, ("ry", "rx"), 2, cfp)  # order matters
        assert base != candidate_key(wfp, ("rx", "ry"), 3, cfp)
        assert base != candidate_key("other", ("rx", "ry"), 2, cfp)
        assert base != candidate_key(wfp, ("rx", "ry"), 2, "other")

    def test_depth_fingerprint_sees_candidate_list(self):
        a = depth_fingerprint("w", "c", [("rx",), ("ry",)], 1)
        assert a == depth_fingerprint("w", "c", [("rx",), ("ry",)], 1)
        assert a != depth_fingerprint("w", "c", [("ry",), ("rx",)], 1)
        assert a != depth_fingerprint("w", "c", [("rx",)], 1)
        assert a != depth_fingerprint("w", "c", [("rx",), ("ry",)], 2)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            assert cache.get("k") is None
            assert (cache.hits, cache.misses) == (0, 1)
            cache.put("k", make_evaluation())
            roundtrip = cache.get("k")
            assert (cache.hits, cache.misses) == (1, 1)
        assert roundtrip == make_evaluation()

    def test_persists_across_reopen(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation(tokens=("rx", "ry"), p=2))
        with ResultCache(tmp_path) as cache:
            assert len(cache) == 1
            assert "k" in cache
            restored = cache.get("k")
        assert restored.tokens == ("rx", "ry")
        assert restored.p == 2

    def test_put_overwrites(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("k", make_evaluation(ratio=0.5))
            cache.put("k", make_evaluation(ratio=0.7))
            assert len(cache) == 1
            assert cache.get("k").ratio == 0.7

    def test_creates_cache_dir(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        with ResultCache(target):
            pass
        assert (target / "results.sqlite").exists()


class TestCommitBatching:
    def test_puts_buffer_until_flush_threshold(self, tmp_path):
        writer = ResultCache(tmp_path, flush_every=3)
        reader = ResultCache(tmp_path)  # separate connection: sees commits only
        writer.put("a", make_evaluation())
        writer.put("b", make_evaluation(("ry",)))
        assert reader.get("a") is None  # not committed yet...
        assert writer.get("a") == make_evaluation()  # ...but the writer sees it
        assert "a" in writer
        writer.put("c", make_evaluation(("rz",)))  # 3rd put commits the batch
        assert reader.get("a") is not None
        assert reader.get("c") is not None
        writer.close()
        reader.close()

    def test_close_flushes_pending(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as cache:
            cache.put("k", make_evaluation())
        with ResultCache(tmp_path) as cache:
            assert cache.get("k") == make_evaluation()

    def test_explicit_flush(self, tmp_path):
        writer = ResultCache(tmp_path, flush_every=100)
        reader = ResultCache(tmp_path)
        writer.put("k", make_evaluation())
        writer.flush()
        assert reader.get("k") is not None
        writer.close()
        reader.close()

    def test_len_accounts_for_buffered(self, tmp_path):
        with ResultCache(tmp_path, flush_every=100) as cache:
            cache.put("k", make_evaluation())
            assert len(cache) == 1

    def test_invalid_flush_every(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            ResultCache(tmp_path, flush_every=0)


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        depth = DepthResult(1, (make_evaluation(), make_evaluation(("ry",))), 1.5)
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.save_depth("fp1", depth)

        reloaded = SweepCheckpoint(tmp_path)
        restored = reloaded.load_depth("fp1")
        assert restored.p == 1
        assert restored.seconds == 1.5
        assert restored.evaluations == depth.evaluations

    def test_roundtrip_keeps_the_winner_qasm(self, tmp_path):
        depth = DepthResult(1, (make_evaluation(),), 1.5, "OPENQASM 2.0;")
        SweepCheckpoint(tmp_path).save_depth("fp1", depth)
        assert SweepCheckpoint(tmp_path).load_depth("fp1") == depth

    def test_a_depth_already_on_disk_is_not_rewritten(self, tmp_path):
        depth = DepthResult(1, (make_evaluation(),), 1.5, "OPENQASM 2.0;")
        SweepCheckpoint(tmp_path).save_depth("fp1", depth)
        checkpoint = SweepCheckpoint(tmp_path)
        written = checkpoint.path.stat().st_mtime_ns
        checkpoint.path.with_suffix(".json.tmp").write_text("sentinel")
        # the same evaluations and QASM, timed again: nothing to record
        checkpoint.save_depth("fp1", DepthResult(1, depth.evaluations, 0.001, depth.best_qasm))
        assert checkpoint.path.stat().st_mtime_ns == written
        assert checkpoint.path.with_suffix(".json.tmp").read_text() == "sentinel"
        assert SweepCheckpoint(tmp_path).load_depth("fp1").seconds == 1.5
        # a changed winner export, or changed evaluations, is written
        checkpoint.save_depth("fp1", DepthResult(1, depth.evaluations, 0.001, "changed"))
        assert SweepCheckpoint(tmp_path).load_depth("fp1").best_qasm == "changed"
        other = DepthResult(1, (make_evaluation(("ry",)),), 0.001, "changed")
        checkpoint.save_depth("fp1", other)
        assert SweepCheckpoint(tmp_path).load_depth("fp1") == other

    def test_unknown_key_misses(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.save_depth("fp1", DepthResult(1, (make_evaluation(),), 0.1))
        assert SweepCheckpoint(tmp_path).load_depth("other-sweep") is None

    def test_corrupt_file_ignored(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text("{not json")
        assert len(SweepCheckpoint(tmp_path)) == 0

    def test_foreign_format_ignored(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text(json.dumps({"format": "v999"}))
        assert len(SweepCheckpoint(tmp_path)) == 0

    def test_writers_sharing_a_directory_do_not_collide(self, tmp_path):
        # two runtimes on one cache dir (two api.search threads, two CLI
        # processes) each hold a checkpoint; every flush must land whole
        errors = []

        def writer(index):
            checkpoint = SweepCheckpoint(tmp_path)
            try:
                for step in range(100):
                    depth = DepthResult(1, (make_evaluation(ratio=step / 100),), 0.1)
                    checkpoint.save_depth(f"w{index}", depth)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        survivor = SweepCheckpoint(tmp_path)  # last writer wins, and parses
        assert len(survivor) >= 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [SweepCheckpoint.FILENAME]

    def test_the_checkpoint_takes_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            SweepCheckpoint(tmp_path).save_depth("fp1", DepthResult(1, (make_evaluation(),), 0.1))
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / SweepCheckpoint.FILENAME).stat().st_mode) == 0o644

    def test_a_failed_flush_leaves_no_temp_file(self, tmp_path, monkeypatch):
        checkpoint = SweepCheckpoint(tmp_path)

        def full_disk(*_):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="no space"):
            checkpoint.save_depth("fp1", DepthResult(1, (make_evaluation(),), 0.1))
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.save_depth("fp1", DepthResult(1, (make_evaluation(),), 0.1))
        checkpoint.clear()
        assert not checkpoint.path.exists()
        assert SweepCheckpoint(tmp_path).load_depth("fp1") is None
