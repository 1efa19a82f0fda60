"""Experiment record persistence."""

import json

from repro.experiments.records import ExperimentRecord


class TestExperimentRecord:
    def test_save_writes_the_record_as_json(self, tmp_path):
        record = ExperimentRecord(
            experiment="fig4_test",
            paper_claim="parallel >50% faster",
            parameters={"p_max": 4},
            measured={"serial": [1.0, 2.0], "parallel": [0.6, 1.0]},
            verdict="shape holds",
        )
        path = record.save(tmp_path)
        assert path.name == "fig4_test.json"
        loaded = json.loads(path.read_text())
        assert loaded["paper_claim"] == record.paper_claim
        assert loaded["measured"]["serial"] == [1.0, 2.0]
        assert loaded["verdict"] == "shape holds"

    def test_timestamp_populated(self):
        record = ExperimentRecord(experiment="x", paper_claim="y")
        assert record.timestamp > 0
