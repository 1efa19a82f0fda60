"""SweepProgress: monotone accounting, snapshots, gauge mirroring."""

import threading

import pytest

from repro.obs import MetricsRegistry, SweepProgress


class TestAccounting:
    def test_full_sweep_lifecycle(self):
        progress = SweepProgress()
        progress.begin_sweep(2)
        progress.begin_depth(1, total=6, cached=2)
        for _ in range(4):
            progress.record(1)
        progress.finish_depth(1)
        progress.begin_depth(2, total=6)
        progress.record(2, 6)
        progress.finish_depth(2)
        progress.finish_sweep()

        snapshot = progress.to_dict()
        assert snapshot["depths_total"] == 2
        assert snapshot["current_depth"] == 2
        assert snapshot["candidates_total"] == 12
        assert snapshot["candidates_done"] == 12
        assert snapshot["percent"] == 100.0
        assert snapshot["finished_at"] is not None
        first, second = snapshot["per_depth"]
        assert first == {
            "p": 1, "total": 6, "done": 6, "cached": 2,
            "seconds": first["seconds"],
        }
        assert first["seconds"] >= 0
        assert second["cached"] == 0

    def test_empty_sweep_is_zero_percent(self):
        snapshot = SweepProgress().to_dict()
        assert snapshot["percent"] == 0.0
        assert snapshot["candidates_total"] == 0
        assert snapshot["throughput_per_second"] >= 0.0

    def test_open_depth_reports_elapsed_seconds(self):
        progress = SweepProgress()
        progress.begin_depth(1, total=3)
        (entry,) = progress.to_dict()["per_depth"]
        assert entry["seconds"] >= 0  # live elapsed, not None

    def test_finish_sweep_is_idempotent(self):
        progress = SweepProgress()
        progress.finish_sweep()
        stamp = progress.to_dict()["finished_at"]
        progress.finish_sweep()
        assert progress.to_dict()["finished_at"] == stamp

    def test_restored_depth_counts_all_candidates_as_cached(self):
        progress = SweepProgress()
        progress.begin_depth(1, total=6, cached=6)
        progress.finish_depth(1)
        snapshot = progress.to_dict()
        assert snapshot["candidates_done"] == 6
        assert snapshot["per_depth"][0]["cached"] == 6

    def test_shard_attribution(self):
        progress = SweepProgress()
        progress.begin_depth(1, total=4)
        progress.record(1, 3)
        progress.record_shard(0)
        progress.record_shard(1)
        progress.record_shard(1)
        snapshot = progress.to_dict()
        assert snapshot["candidates_done"] == 3  # attribution adds no completions
        assert snapshot["per_shard"]["0"]["done"] == 1
        assert snapshot["per_shard"]["1"]["done"] == 2

    def test_done_is_monotone_under_concurrent_recording(self):
        progress = SweepProgress()
        progress.begin_depth(1, total=800)
        seen = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                seen.append(progress.to_dict()["candidates_done"])

        watcher = threading.Thread(target=watch)
        watcher.start()
        threads = [
            threading.Thread(
                target=lambda: [progress.record(1) for _ in range(100)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        assert progress.to_dict()["candidates_done"] == 800
        assert seen == sorted(seen)  # never observed going backwards


class TestGaugeMirroring:
    def test_gauges_track_done_and_total(self):
        registry = MetricsRegistry()
        progress = SweepProgress(metrics=registry, labels={"job": "abc"})
        progress.begin_depth(1, total=5, cached=1)
        progress.record(1, 2)
        text = registry.render()
        assert 'repro_sweep_candidates_done{job="abc"} 3' in text
        assert 'repro_sweep_candidates_total{job="abc"} 5' in text

    def test_unregister_drops_the_label_children(self):
        registry = MetricsRegistry()
        progress = SweepProgress(metrics=registry, labels={"job": "abc"})
        progress.begin_depth(1, total=5)
        progress.unregister()
        assert '{job="abc"}' not in registry.render()

    def test_two_sweeps_share_the_families(self):
        registry = MetricsRegistry()
        one = SweepProgress(metrics=registry, labels={"job": "1"})
        two = SweepProgress(metrics=registry, labels={"job": "2"})
        one.begin_depth(1, total=4)
        two.begin_depth(1, total=9)
        text = registry.render()
        assert 'repro_sweep_candidates_total{job="1"} 4' in text
        assert 'repro_sweep_candidates_total{job="2"} 9' in text

    def test_unlabelled_mirroring_uses_default_child(self):
        registry = MetricsRegistry()
        progress = SweepProgress(metrics=registry)
        progress.begin_depth(1, total=3)
        progress.record(1)
        assert "repro_sweep_candidates_done 1" in registry.render()

    @pytest.mark.parametrize("records", [0, 1, 7])
    def test_snapshot_and_gauges_agree(self, records):
        registry = MetricsRegistry()
        progress = SweepProgress(metrics=registry, labels={"job": "x"})
        progress.begin_depth(1, total=10)
        for _ in range(records):
            progress.record(1)
        done = registry.gauge(
            "repro_sweep_candidates_done", labels=("job",)
        ).value_for(job="x")
        assert done == progress.to_dict()["candidates_done"] == records
