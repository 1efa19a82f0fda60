"""ASCII figure rendering."""

import pytest

from repro.experiments.figures import render_bars, render_grouped_bars, render_series, render_table


class TestTable:
    def test_alignment_and_header(self):
        text = render_table(["p", "time"], [[1, 2.5], [2, 10.25]])
        lines = text.splitlines()
        assert lines[0].startswith("p")
        assert "2.5000" in text
        assert len(lines) == 4  # header, rule, 2 rows

    def test_float_format_override(self):
        text = render_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text and "1.2345" not in text


class TestBars:
    def test_larger_value_longer_bar(self):
        text = render_bars(["a", "b"], [1.0, 3.0], vmin=0.0)
        bar_a = text.splitlines()[0].count("█")
        bar_b = text.splitlines()[1].count("█")
        assert bar_b > bar_a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_empty(self):
        assert render_bars([], []) == "(no data)"

    def test_constant_values_no_crash(self):
        text = render_bars(["a", "b"], [2.0, 2.0])
        assert "2.0000" in text


class TestGroupedBars:
    def test_groups_present(self):
        text = render_grouped_bars(
            ["p=1", "p=2"], {"baseline": [0.8, 0.9], "qnas": [0.85, 0.95]}, vmin=0.0
        )
        assert "p=1:" in text and "p=2:" in text
        assert "baseline" in text and "qnas" in text

    def test_empty(self):
        assert render_grouped_bars([], {}) == "(no data)"


class TestSeries:
    def test_columns_per_series(self):
        text = render_series("p", [1, 2], {"serial": [10.0, 20.0], "parallel": [6.0, 9.0]})
        header = text.splitlines()[0]
        assert "serial" in header and "parallel" in header
        assert "20.000" in text

    def test_float_cells_follow_the_series_format(self, monkeypatch):
        from repro.experiments import figures

        monkeypatch.setattr(figures, "SERIES_FORMAT", "{:.1f}")
        text = render_series("p", [1], {"serial": [10.25]})
        assert "10.2" in text and "10.25" not in text
