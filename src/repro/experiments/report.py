"""Plain-text report formatting for experiment results.

The benchmark harness prints the same rows and series the paper
reports; these helpers render them as aligned ASCII tables so the
regenerated numbers are easy to eyeball next to the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.engine.latency import LatencyDistribution


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    materialized: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells = [str(cell) for cell in row]
        if len(cells) != len(headers):
            raise ReproError(
                f"row has {len(cells)} cells, expected {len(headers)}"
            )
        materialized.append(cells)
    widths = [
        max(len(row[col]) for row in materialized)
        for col in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    for index, row in enumerate(materialized):
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
        if index == 0:
            lines.append(separator)
    return "\n".join(lines)


def format_rate(rate: float) -> str:
    """Human-readable records/s (e.g. ``2.00M``, ``500K``)."""
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}K"
    return f"{rate:.1f}"


def format_steps(steps: Sequence[int]) -> str:
    """Table 4's arrow notation: ``12→16`` (``stable`` if no step)."""
    if not steps:
        return "stable"
    return "→".join(str(s) for s in steps)


def latency_summary(
    distribution: LatencyDistribution,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
) -> str:
    """One-line latency quantile summary (seconds)."""
    if len(distribution) == 0:
        return "no samples"
    parts = [
        f"p{int(q * 100)}={distribution.quantile(q) * 1000:.0f}ms"
        for q in quantiles
    ]
    return " ".join(parts)


__all__ = [
    "format_rate",
    "format_steps",
    "format_table",
    "latency_summary",
]
