"""Terminal visualization for experiment results.

A reproduction is only useful if its results can be *looked at*. This
module renders time series and latency CDFs as ASCII charts (the
dependency-free equivalent of the paper's matplotlib figures).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.engine.latency import LatencyDistribution
from repro.errors import ReproError

Series = Sequence[Tuple[float, float]]


def strip_chart(
    series: Series,
    width: int = 72,
    height: int = 12,
    y_max: Optional[float] = None,
    title: Optional[str] = None,
    y_label: str = "",
) -> str:
    """Render a (time, value) series as an ASCII strip chart.

    Values are bucketed along the time axis (bucket mean) and drawn as
    columns of ``#``. ``y_max`` pins the vertical scale (e.g. to a
    target rate) so charts are comparable; it defaults to the series
    maximum.
    """
    if width < 10 or height < 2:
        raise ReproError("chart must be at least 10x2")
    if not series:
        return "(no samples)"
    times = [t for t, _ in series]
    t_min, t_max = min(times), max(times)
    span = max(t_max - t_min, 1e-9)
    scale = y_max if y_max is not None else max(v for _, v in series)
    scale = max(scale, 1e-12)
    buckets: List[List[float]] = [[] for _ in range(width)]
    for t, v in series:
        index = min(width - 1, int((t - t_min) / span * width))
        buckets[index].append(v)
    levels = [
        (sum(b) / len(b)) / scale if b else 0.0 for b in buckets
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in range(height, 0, -1):
        threshold = (row - 0.5) / height
        cells = "".join(
            "#" if level >= threshold else " " for level in levels
        )
        label = ""
        if row == height:
            label = f" {scale:.3g}"
        elif row == 1:
            label = " 0"
        lines.append(cells + label)
    lines.append("-" * width)
    footer = f"{t_min:.0f}s"
    right = f"{t_max:.0f}s"
    pad = max(1, width - len(footer) - len(right))
    lines.append(footer + " " * pad + right)
    if y_label:
        lines.append(f"(y: {y_label})")
    return "\n".join(lines)


def cdf_chart(
    distribution: LatencyDistribution,
    width: int = 60,
    height: int = 10,
    unit: str = "s",
    title: Optional[str] = None,
    target: Optional[float] = None,
) -> str:
    """Render a latency distribution as an ASCII CDF.

    ``target`` draws a vertical marker (the paper's Figure 9 uses a
    1-second target line).
    """
    if len(distribution) == 0:
        return "(no samples)"
    lo = distribution.quantile(0.0)
    hi = distribution.quantile(1.0)
    if target is not None:
        hi = max(hi, target)
    span = max(hi - lo, 1e-12)
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in range(height, 0, -1):
        fraction = row / height
        cells = []
        for col in range(width):
            x = lo + span * col / (width - 1)
            reached = distribution.fraction_above(x) <= 1 - fraction
            marker = " "
            if target is not None and abs(x - target) <= span / (
                2 * (width - 1)
            ):
                marker = "|"
            cells.append("#" if reached else marker)
        label = f" {fraction:.0%}" if row in (height, 1) else ""
        lines.append("".join(cells) + label)
    lines.append("-" * width)
    lines.append(
        f"{lo:.3g}{unit}" + " " * max(1, width - 16) + f"{hi:.3g}{unit}"
    )
    return "\n".join(lines)


__all__ = [
    "cdf_chart",
    "strip_chart",
]
