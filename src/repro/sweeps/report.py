"""Sensitivity analysis over sweep results.

Reduces a :class:`~repro.sweeps.grid.SweepResult` to a deterministic
:class:`SweepReport`:

* **grid** — one row per sweep cell with its mean SASO score over the
  cell's campaigns (lower is better);
* **marginals** — per-axis marginal effects: for every axis that
  actually varies, the mean score over all cells sharing each value,
  plus the spread between the best and worst value (how much the axis
  moves the outcome);
* **margins** — per-scenario DS2-vs-Dhalion margin (Dhalion mean minus
  DS2 mean; positive means DS2 wins) with collapse detection: a margin
  below the spec's ``margin_threshold`` flags the scenario where DS2's
  advantage disappears;
* **convergence** — per-controller settling-epochs distribution and
  the fraction of runs that settled within three policy steps (the
  paper's headline claim).

Rendering is deterministic byte for byte: floats are rounded to nine
digits before they reach any renderer, rows are canonically ordered,
and no timestamps or environment details are embedded — the committed
``tests/sweeps/golden_sweep.json`` artifact is diffed against a live
run in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.report import format_table
from repro.faults.campaigns import SasoScorecard
from repro.records import to_json
from repro.sweeps.grid import SweepResult
from repro.sweeps.spec import (
    AXES,
    SCENARIO_AXES,
    SweepCell,
    spec_fingerprint,
)

#: Schema version of the JSON rendering (bump on breaking changes).
SWEEP_SCHEMA_VERSION = 1

#: The paper's convergence claim: settled within this many steps.
CONVERGENCE_STEPS = 3


def _round(value: float) -> float:
    return round(value, 9)


def _scenario_label(cell: SweepCell) -> str:
    return " ".join(axis.tag + axis.text(cell) for axis in SCENARIO_AXES)


@dataclass(frozen=True)
class CellSummary:
    """One sweep cell's scores, averaged over its campaigns."""

    cell: SweepCell
    campaigns: int
    mean_score: Optional[float]
    mean_settling_epochs: Optional[float]

    @property
    def complete(self) -> bool:
        return self.mean_score is not None


@dataclass(frozen=True)
class AxisEffect:
    """Mean score over every cell sharing one axis value."""

    value: str
    cells: int
    mean_score: float


@dataclass(frozen=True)
class AxisMarginal:
    """One axis's marginal effect: per-value means plus the spread."""

    axis: str
    effects: Tuple[AxisEffect, ...]

    @property
    def spread(self) -> float:
        scores = [effect.mean_score for effect in self.effects]
        return _round(max(scores) - min(scores))


@dataclass(frozen=True)
class MarginRow:
    """DS2-vs-Dhalion margin in one scenario (shared fault storms)."""

    scenario: int
    label: str
    ds2_score: float
    dhalion_score: float
    margin: float
    collapsed: bool


@dataclass(frozen=True)
class ConvergenceStats:
    """Settling-epochs distribution for one controller."""

    controller: str
    runs: int
    min_epochs: int
    mean_epochs: float
    max_epochs: int
    within_three: float


@dataclass(frozen=True)
class SweepReport:
    """The deterministic sensitivity report of one sweep."""

    name: str
    fingerprint: str
    cells: Tuple[CellSummary, ...]
    marginals: Tuple[AxisMarginal, ...]
    margins: Tuple[MarginRow, ...]
    convergence: Tuple[ConvergenceStats, ...]
    campaigns: int
    margin_threshold: float
    executor_cells: int
    completed_cells: int

    @property
    def label(self) -> str:
        return f"{self.name}@{self.fingerprint}"

    @property
    def complete(self) -> bool:
        return self.completed_cells == self.executor_cells


def build_sweep_report(result: SweepResult) -> SweepReport:
    """Aggregate a sweep result into its sensitivity report."""
    grid = result.grid
    spec = grid.spec
    by_cell: Dict[int, List[SasoScorecard]] = {
        cell.index: [] for cell in grid.cells
    }
    for index, card in result.scorecards.items():
        owner, _campaign = grid.owners[index]
        by_cell[owner].append(card)
    summaries: List[CellSummary] = []
    for cell in grid.cells:
        cards = by_cell[cell.index]
        if cards:
            summaries.append(
                CellSummary(
                    cell=cell,
                    campaigns=len(cards),
                    mean_score=_round(
                        sum(c.score for c in cards) / len(cards)
                    ),
                    mean_settling_epochs=_round(
                        sum(c.settling_epochs for c in cards)
                        / len(cards)
                    ),
                )
            )
        else:
            summaries.append(
                CellSummary(
                    cell=cell,
                    campaigns=0,
                    mean_score=None,
                    mean_settling_epochs=None,
                )
            )
    scored = [s for s in summaries if s.mean_score is not None]

    marginals: List[AxisMarginal] = []
    for axis in AXES.values():
        values = sorted({axis.text(s.cell) for s in summaries})
        if len(values) < 2:
            continue
        effects: List[AxisEffect] = []
        for value in values:
            members = [s for s in scored if axis.text(s.cell) == value]
            if not members:
                continue
            effects.append(
                AxisEffect(
                    value=value,
                    cells=len(members),
                    mean_score=_round(
                        sum(s.mean_score or 0.0 for s in members)
                        / len(members)
                    ),
                )
            )
        if len(effects) >= 2:
            marginals.append(
                AxisMarginal(axis=axis.name, effects=tuple(effects))
            )

    margins: List[MarginRow] = []
    by_scenario: Dict[int, Dict[str, CellSummary]] = {}
    for summary in scored:
        by_scenario.setdefault(summary.cell.scenario, {})[
            summary.cell.controller
        ] = summary
    for scenario in sorted(by_scenario):
        members = by_scenario[scenario]
        ds2 = members.get("ds2")
        dhalion = members.get("dhalion")
        if ds2 is None or dhalion is None:
            continue
        assert ds2.mean_score is not None
        assert dhalion.mean_score is not None
        margin = _round(dhalion.mean_score - ds2.mean_score)
        margins.append(
            MarginRow(
                scenario=scenario,
                label=_scenario_label(ds2.cell),
                ds2_score=ds2.mean_score,
                dhalion_score=dhalion.mean_score,
                margin=margin,
                collapsed=margin < spec.margin_threshold,
            )
        )

    by_controller: Dict[str, List[int]] = {}
    for index, card in result.scorecards.items():
        owner, _campaign = grid.owners[index]
        controller = grid.cells[owner].controller
        by_controller.setdefault(controller, []).append(
            card.settling_epochs
        )
    convergence: List[ConvergenceStats] = []
    for controller in sorted(by_controller):
        epochs = by_controller[controller]
        convergence.append(
            ConvergenceStats(
                controller=controller,
                runs=len(epochs),
                min_epochs=min(epochs),
                mean_epochs=_round(sum(epochs) / len(epochs)),
                max_epochs=max(epochs),
                within_three=_round(
                    sum(
                        1
                        for e in epochs
                        if e <= CONVERGENCE_STEPS
                    )
                    / len(epochs)
                ),
            )
        )

    return SweepReport(
        name=spec.name,
        fingerprint=spec_fingerprint(spec),
        cells=tuple(summaries),
        marginals=tuple(marginals),
        margins=tuple(margins),
        convergence=tuple(convergence),
        campaigns=spec.campaigns,
        margin_threshold=spec.margin_threshold,
        executor_cells=len(grid.specs),
        completed_cells=len(result.scorecards),
    )


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def _cell_payload(summary: CellSummary) -> Dict[str, object]:
    cell = summary.cell
    return {
        "index": cell.index,
        "scenario": cell.scenario,
        **{axis.name: getattr(cell, axis.name) for axis in AXES.values()},
        "explicit": cell.explicit,
        "campaigns": summary.campaigns,
        "mean_score": summary.mean_score,
        "mean_settling_epochs": summary.mean_settling_epochs,
    }


def report_payload(report: SweepReport) -> Dict[str, object]:
    """The report as a JSON-ready document (deterministic order)."""
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "sweep": report.label,
        "name": report.name,
        "fingerprint": report.fingerprint,
        "campaigns": report.campaigns,
        "margin_threshold": report.margin_threshold,
        "coverage": {
            "cells": report.executor_cells,
            "completed": report.completed_cells,
        },
        "grid": [_cell_payload(s) for s in report.cells],
        "marginals": [
            {
                "axis": marginal.axis,
                "spread": marginal.spread,
                "effects": to_json(marginal.effects),
            }
            for marginal in report.marginals
        ],
        "margins": to_json(report.margins),
        "convergence": to_json(report.convergence),
    }


def render_sweep_json(report: SweepReport) -> str:
    return json.dumps(report_payload(report), indent=2) + "\n"


def _score_text(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


#: The grid table's columns: the cell, its axes, then its scores.
_GRID_HEADINGS: Tuple[str, ...] = (
    "cell",
    *(axis.heading for axis in AXES.values()),
    "runs",
    "score",
    "settle",
)


def _grid_row(summary: CellSummary) -> Tuple[str, ...]:
    cell = summary.cell
    return (
        str(cell.index),
        *(axis.text(cell) for axis in AXES.values()),
        str(summary.campaigns),
        _score_text(summary.mean_score),
        _score_text(summary.mean_settling_epochs),
    )


def render_sweep_text(report: SweepReport) -> str:
    """Deterministic plain-text rendering (the CLI default)."""
    sections: List[str] = []
    coverage = (
        ""
        if report.complete
        else (
            f"; INCOMPLETE: {report.completed_cells}/"
            f"{report.executor_cells} executor cells"
        )
    )
    sections.append(
        format_table(
            _GRID_HEADINGS,
            [_grid_row(summary) for summary in report.cells],
            title=(
                f"Sweep '{report.label}' "
                f"({len(report.cells)} cells x {report.campaigns} "
                f"campaign(s); lower score is better{coverage})"
            ),
        )
    )
    if report.marginals:
        marginal_rows: List[Tuple[object, ...]] = []
        for marginal in report.marginals:
            for effect in marginal.effects:
                marginal_rows.append(
                    (
                        marginal.axis,
                        effect.value,
                        effect.cells,
                        f"{effect.mean_score:.4f}",
                        f"{marginal.spread:.4f}",
                    )
                )
        sections.append(
            format_table(
                ("axis", "value", "cells", "mean score", "spread"),
                marginal_rows,
                title=(
                    "Per-axis marginal effects "
                    "(mean score over cells sharing the value)"
                ),
            )
        )
    if report.margins:
        margin_rows: List[Tuple[object, ...]] = []
        for row in report.margins:
            margin_rows.append(
                (
                    row.label,
                    f"{row.ds2_score:.4f}",
                    f"{row.dhalion_score:.4f}",
                    f"{row.margin:+.4f}",
                    "COLLAPSED" if row.collapsed else "ok",
                )
            )
        sections.append(
            format_table(
                ("scenario", "ds2", "dhalion", "margin", "status"),
                margin_rows,
                title=(
                    f"DS2-vs-Dhalion margins per scenario "
                    f"(shared fault storms; collapse below "
                    f"{report.margin_threshold:g})"
                ),
            )
        )
    if report.convergence:
        convergence_rows: List[Tuple[object, ...]] = []
        for stats in report.convergence:
            convergence_rows.append(
                (
                    stats.controller,
                    stats.runs,
                    stats.min_epochs,
                    f"{stats.mean_epochs:.2f}",
                    stats.max_epochs,
                    f"{100.0 * stats.within_three:.1f}%",
                )
            )
        sections.append(
            format_table(
                (
                    "controller",
                    "runs",
                    "min",
                    "mean",
                    "max",
                    "<=3 steps",
                ),
                convergence_rows,
                title=(
                    "Convergence: settling epochs per controller "
                    "(the paper claims three steps suffice)"
                ),
            )
        )
    return "\n\n".join(sections)


def render_sweep_markdown(report: SweepReport) -> str:
    """GitHub-flavoured markdown rendering."""
    lines: List[str] = [
        "# Sweep sensitivity report",
        "",
        f"- **sweep**: `{report.label}`",
        f"- **cells**: {len(report.cells)} "
        f"x {report.campaigns} campaign(s)",
        f"- **coverage**: {report.completed_cells}/"
        f"{report.executor_cells} executor cells",
        "",
        "## Grid",
        "",
        "| " + " | ".join(_GRID_HEADINGS) + " |",
        "|" + " --- |" * len(_GRID_HEADINGS),
    ]
    for summary in report.cells:
        lines.append("| " + " | ".join(_grid_row(summary)) + " |")
    if report.marginals:
        lines += [
            "",
            "## Per-axis marginal effects",
            "",
            "| axis | value | cells | mean score | spread |",
            "| --- | --- | --- | --- | --- |",
        ]
        for marginal in report.marginals:
            for effect in marginal.effects:
                lines.append(
                    f"| {marginal.axis} | {effect.value} "
                    f"| {effect.cells} | {effect.mean_score:.4f} "
                    f"| {marginal.spread:.4f} |"
                )
    if report.margins:
        lines += [
            "",
            "## DS2-vs-Dhalion margins",
            "",
            "| scenario | ds2 | dhalion | margin | status |",
            "| --- | --- | --- | --- | --- |",
        ]
        for row in report.margins:
            status = "**COLLAPSED**" if row.collapsed else "ok"
            lines.append(
                f"| {row.label} | {row.ds2_score:.4f} "
                f"| {row.dhalion_score:.4f} | {row.margin:+.4f} "
                f"| {status} |"
            )
    if report.convergence:
        lines += [
            "",
            "## Convergence (settling epochs)",
            "",
            "| controller | runs | min | mean | max | <=3 steps |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for stats in report.convergence:
            lines.append(
                f"| {stats.controller} | {stats.runs} "
                f"| {stats.min_epochs} | {stats.mean_epochs:.2f} "
                f"| {stats.max_epochs} "
                f"| {100.0 * stats.within_three:.1f}% |"
            )
    return "\n".join(lines) + "\n"


#: ``--format`` name to renderer, mirroring REPORT_RENDERERS.
SWEEP_RENDERERS: Mapping[str, Callable[[SweepReport], str]] = {
    "text": render_sweep_text,
    "json": render_sweep_json,
    "markdown": render_sweep_markdown,
}


__all__ = [
    "AxisEffect",
    "AxisMarginal",
    "CONVERGENCE_STEPS",
    "CellSummary",
    "ConvergenceStats",
    "MarginRow",
    "SWEEP_RENDERERS",
    "SWEEP_SCHEMA_VERSION",
    "SweepReport",
    "build_sweep_report",
    "render_sweep_json",
    "render_sweep_markdown",
    "render_sweep_text",
    "report_payload",
]
