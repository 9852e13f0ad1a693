"""Tabular report helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    materialized: List[List[str]] = []
    for row in rows:
        materialized.append(
            [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        )
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_pareto_ascii(
    points: Sequence[tuple],
    x_label: str,
    y_label: str,
) -> str:
    """ASCII scatter plot for Pareto frontiers (Fig. 8-style output).

    ``points`` is a sequence of ``(x, y, series_index)``.
    """
    if not points:
        return "(no points)"
    width, height, markers = 60, 18, "o*+x#"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, series in points:
        col = int((x - x0) / xr * (width - 1))
        row = int((y - y0) / yr * (height - 1))
        grid[height - 1 - row][col] = markers[series % len(markers)]
    lines = [f"{y_label} ^"]
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append("  +" + "-" * width + f"> {x_label}")
    lines.append(f"  x: [{x0:.4g}, {x1:.4g}]  y: [{y0:.4g}, {y1:.4g}]")
    return "\n".join(lines)
