"""Terminal rendering of experiment results.

The paper's figures are matplotlib plots; offline we render the same data
as aligned tables and ASCII bar charts so the benches' stdout *is* the
figure. Every renderer takes plain data and returns a string (callers
decide whether to print or persist).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["render_table", "render_bars", "render_grouped_bars", "render_series"]

#: bar lengths in characters, for :func:`render_bars` and :func:`render_grouped_bars`
BAR_WIDTH = 40
GROUPED_BAR_WIDTH = 30
#: how :func:`render_series` prints a float cell
SERIES_FORMAT = "{:.3f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    float_format: str = "{:.4f}",
) -> str:
    """Monospace table with per-column alignment."""

    def fmt(cell) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in str_rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return "(no data)"
    lo = min(values) if vmin is None else vmin
    hi = max(values) if vmax is None else vmax
    span = hi - lo or 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round((value - lo) / span * BAR_WIDTH))
        bar = "█" * filled + "░" * (BAR_WIDTH - filled)
        lines.append(f"{label.ljust(label_width)}  {bar}  {value:.4f}")
    return "\n".join(lines)


def render_grouped_bars(
    groups: Sequence[str],
    series: Mapping[str, Sequence[float]],
    *,
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Grouped horizontal bars (Fig. 9 style: one group per p, one bar per
    mixer)."""
    all_values = [v for vs in series.values() for v in vs]
    if not all_values:
        return "(no data)"
    lo = min(all_values) if vmin is None else vmin
    hi = max(all_values) if vmax is None else vmax
    span = hi - lo or 1.0
    name_width = max(len(n) for n in series)
    lines = []
    for g_idx, group in enumerate(groups):
        lines.append(f"{group}:")
        for name, values in series.items():
            value = values[g_idx]
            filled = int(round((value - lo) / span * GROUPED_BAR_WIDTH))
            bar = "█" * filled + "░" * (GROUPED_BAR_WIDTH - filled)
            lines.append(f"  {name.ljust(name_width)}  {bar}  {value:.4f}")
    return "\n".join(lines)


def render_series(x_label: str, xs: Sequence, series: Mapping[str, Sequence[float]]) -> str:
    """Multi-series table: one row per x, one column per series (the data
    behind a line plot like Fig. 4 / Fig. 5)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [vs[i] for vs in series.values()])
    return render_table(headers, rows, float_format=SERIES_FORMAT)
