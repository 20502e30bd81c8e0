"""ASCII line plots for metric curves (Figures 3a, 4, 9, 10, 12-14, 17-19).

The renderer rasterises each series onto a character grid with one marker
character per series, draws a y-axis with min/max labels, and appends a
legend.  Non-finite values are dropped point-wise, so a diverged run simply
stops where it diverged — which is exactly what the paper's divergence
figures show.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# Marker cycle: visually distinct in any monospace font.
MARKERS = "*o+x#@%&"


def _finite_points(xs: Sequence[float], ys: Sequence[float]) -> list[tuple[float, float]]:
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} x vs {len(ys)} y")
    return [
        (float(x), float(y))
        for x, y in zip(xs, ys)
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]


def _bounds(values: Iterable[float]) -> tuple[float, float]:
    vals = list(values)
    lo, hi = min(vals), max(vals)
    if lo == hi:  # a flat line still needs a non-degenerate scale
        # relative pad; absolute where it is zero (lo == 0) or underflows
        # to zero (subnormal lo)
        pad = abs(lo) * 0.5 or 0.5
        lo, hi = lo - pad, hi + pad
    return lo, hi


def line_plot(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    ylabel: str = "",
    xlabel: str = "",
    logy: bool = False,
) -> str:
    """Render named ``{label: (xs, ys)}`` series as an ASCII line plot.

    Parameters
    ----------
    series:
        Mapping from legend label to ``(xs, ys)`` pairs.  Later series
        overwrite earlier ones where they collide on the grid.
    width, height:
        Plot-area size in characters (axes and labels are extra).
    logy:
        Plot ``log10(y)``; non-positive y values are dropped.
    """
    if width < 8 or height < 4:
        raise ValueError("plot area must be at least 8x4 characters")
    if not series:
        raise ValueError("no series to plot")

    cleaned: dict[str, list[tuple[float, float]]] = {}
    for label, (xs, ys) in series.items():
        pts = _finite_points(xs, ys)
        if logy:
            pts = [(x, math.log10(y)) for x, y in pts if y > 0]
        if pts:
            cleaned[label] = pts
    if not cleaned:
        return (title + "\n" if title else "") + "(no finite data)"

    all_x = [x for pts in cleaned.values() for x, _ in pts]
    all_y = [y for pts in cleaned.values() for _, y in pts]
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)

    grid = [[" "] * width for _ in range(height)]
    for idx, (label, pts) in enumerate(cleaned.items()):
        marker = MARKERS[idx % len(MARKERS)]
        for x, y in pts:
            col = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker

    def ylab(v: float) -> str:
        if logy:
            return f"1e{v:.1f}"
        return f"{v:.3g}"

    label_w = max(len(ylab(y_lo)), len(ylab(y_hi)), len(ylabel))
    lines: list[str] = []
    if title:
        lines.append(title)
    if ylabel:
        lines.append(f"{ylabel:>{label_w}}")
    for r, row in enumerate(grid):
        if r == 0:
            left = ylab(y_hi)
        elif r == height - 1:
            left = ylab(y_lo)
        else:
            left = ""
        lines.append(f"{left:>{label_w}} |{''.join(row)}")
    lines.append(f"{'':>{label_w}} +{'-' * width}")
    x_axis = f"{ylab(x_lo) if not logy else f'{x_lo:.3g}'}"
    x_hi_s = f"{x_hi:.3g}"
    pad = width - len(x_axis) - len(x_hi_s)
    lines.append(f"{'':>{label_w}}  {x_axis}{' ' * max(1, pad)}{x_hi_s}")
    if xlabel:
        lines.append(f"{'':>{label_w}}  {xlabel:^{width}}")
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {label}" for i, label in enumerate(cleaned)
    )
    lines.append(f"{'':>{label_w}}  {legend}")
    return "\n".join(lines)
