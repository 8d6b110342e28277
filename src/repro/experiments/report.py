"""Plain-text rendering of experiment results (tables and charts).

The paper's figures are line charts; we render each as (a) a numeric
table of the plotted series and (b) a coarse ASCII chart, both of
which survive a terminal and a CI log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_chart(
    xs: Sequence[float],
    series: Sequence[tuple],
    width: int = 64,
    height: int = 16,
    title: Optional[str] = None,
) -> str:
    """Render labelled (label, ys) series as a coarse ASCII line chart."""
    if not xs or not series:
        return title or ""
    markers = "ox+*#@%&"
    all_ys = [y for _label, ys in series for y in ys if y == y]  # drop NaN
    if not all_ys:
        return title or ""
    y_min, y_max = min(all_ys), max(all_ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_max = x_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (label, ys) in enumerate(series):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            if y != y:
                continue
            col = int((x - x_min) / (x_max - x_min) * (width - 1))
            row = int((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_min:10.3g} +" + "-" * width)
    lines.append(" " * 12 + f"{x_min:<10.3g}" + " " * max(0, width - 20) + f"{x_max:>10.3g}")
    legend = "   ".join(
        f"{markers[i % len(markers)]}={label}" for i, (label, _ys) in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)

