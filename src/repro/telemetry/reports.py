"""Aggregated run reports over chaos-campaign artifacts.

A checkpoint journal already holds everything a post-mortem needs —
scorecards with their decision-audit summaries, per-cell wall
durations and worker pids, span-tree payloads, heartbeats, and
quarantine records. :func:`build_report` joins them into one
:class:`RunReport`, and the three renderers serve different readers:

* :func:`render_report_text` — the ``repro report`` terminal default.
* :func:`render_report_json` — machine-readable, key-sorted, stable
  for a fixed journal (the golden-diff format ``scripts/check.sh``
  gates on).
* :func:`render_report_markdown` — paste-into-an-issue tables.

The report is *derived* state: it reads the journal with the same
validation as resume (:func:`repro.faults.checkpoint.load_journal`)
and never writes anything back, so running it cannot perturb a
campaign. Pass a JSONL trace recorded with ``--trace`` to fold the
flight recorder's headline numbers (fault events, rescales,
decisions, events missing from a truncated trace) into the same
summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.telemetry.progress import interrupted_cells
from repro.telemetry.spans import SpanProfiler
from repro.telemetry.trace_io import (
    TraceSummary,
    read_trace,
    summarize_trace,
)

if TYPE_CHECKING:
    # Imported lazily at call time: repro.faults depends on the engine
    # package, which itself imports repro.telemetry — a module-level
    # import here would close that cycle.
    from repro.faults.campaigns import AggregateScore
    from repro.faults.checkpoint import JournalCell, LoadedJournal

REPORT_SCHEMA_VERSION = 1


def _cell_name(key: Tuple[int, int, str]) -> str:
    seed, campaign, controller = key
    return f"seed={seed} campaign={campaign} {controller}"


@dataclass(frozen=True)
class CellRow:
    """One completed cell, flattened for tables."""

    seed: int
    campaign: int
    controller: str
    score: float
    duration: Optional[float]
    worker: Optional[int]

    @property
    def name(self) -> str:
        return _cell_name((self.seed, self.campaign, self.controller))


@dataclass(frozen=True)
class RunReport:
    """Joined view over one campaign's durable artifacts."""

    profile: str
    workload: str
    seed: int
    campaigns: int
    controllers: Tuple[str, ...]
    cells_expected: int
    cells_completed: int
    cells_quarantined: int
    aggregates: Dict[str, "AggregateScore"]
    cells: List[CellRow]
    #: Sum/mean/max wall seconds over cells that recorded a duration
    #: (empty dict when none did — e.g. pre-observability journals).
    duration_stats: Dict[str, float]
    #: Heartbeat event counts by kind (``start``/``done``/``resume``/
    #: ``retry``/``quarantine``) as journaled under ``--progress``.
    heartbeat_counts: Dict[str, int]
    #: Distinct worker pids seen across heartbeats and cell records.
    workers: Tuple[int, ...]
    #: Cells a dead run was executing when it stopped (``start``
    #: heartbeat with no later completion event).
    interrupted: Tuple[str, ...]
    quarantined: Tuple[str, ...]
    #: Merged span tree over every cell that journaled one, or None.
    spans: Optional[Dict[str, Any]]
    #: Decision-audit totals summed over scorecards that carried one.
    audit_totals: Dict[str, int]
    trace: Optional[TraceSummary] = None
    journal_warnings: Tuple[str, ...] = ()
    #: ``name@fingerprint`` of the sweep spec when the journal was
    #: written by ``repro sweep run`` (None for plain chaos runs, and
    #: for every journal written before sweeps existed).
    sweep: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (the ``--format json`` body)."""
        aggregates: Dict[str, Any] = {}
        for name in sorted(self.aggregates):
            agg = self.aggregates[name]
            aggregates[name] = {
                "campaigns": agg.campaigns,
                "mean_score": round(agg.mean_score, 9),
                "mean_oscillations": round(agg.mean_oscillations, 9),
                "mean_steady_state_error": round(
                    agg.mean_steady_state_error, 9
                ),
                "mean_settling_epochs": round(
                    agg.mean_settling_epochs, 9
                ),
                "mean_overshoot_ratio": round(
                    agg.mean_overshoot_ratio, 9
                ),
                "mean_downtime_fraction": round(
                    agg.mean_downtime_fraction, 9
                ),
                "mean_recovery_seconds": round(
                    agg.mean_recovery_seconds, 9
                ),
                "total_failed_rescales": agg.total_failed_rescales,
            }
        payload: Dict[str, Any] = {
            "schema": REPORT_SCHEMA_VERSION,
            "header": {
                "profile": self.profile,
                "workload": self.workload,
                "seed": self.seed,
                "campaigns": self.campaigns,
                "controllers": list(self.controllers),
            },
            "coverage": {
                "expected": self.cells_expected,
                "completed": self.cells_completed,
                "quarantined": self.cells_quarantined,
                "missing": max(
                    0,
                    self.cells_expected
                    - self.cells_completed
                    - self.cells_quarantined,
                ),
            },
            "aggregates": aggregates,
            "cells": [
                {
                    "seed": row.seed,
                    "campaign": row.campaign,
                    "controller": row.controller,
                    "score": round(row.score, 9),
                    "duration": (
                        None
                        if row.duration is None
                        else round(row.duration, 6)
                    ),
                    "worker": row.worker,
                }
                for row in self.cells
            ],
            "durations": {
                key: round(value, 6)
                for key, value in sorted(self.duration_stats.items())
            },
            "heartbeats": dict(sorted(self.heartbeat_counts.items())),
            "workers": list(self.workers),
            "interrupted": list(self.interrupted),
            "quarantined": list(self.quarantined),
            "spans": self.spans,
            "audits": dict(sorted(self.audit_totals.items())),
            "warnings": list(self.journal_warnings),
        }
        if self.sweep is not None:
            # Emitted only for sweep journals: the committed golden
            # report of the plain chaos smoke journal must keep its
            # exact bytes.
            payload["header"]["sweep"] = self.sweep
        if self.trace is not None:
            payload["trace"] = {
                "events": self.trace.events,
                "span_seconds": round(self.trace.span, 6),
                "decisions": self.trace.decisions,
                "rescales": self.trace.rescales,
                "faults": self.trace.faults,
                "dropped": self.trace.dropped,
                "kinds": dict(self.trace.kinds),
            }
        return payload


@dataclass
class _SpanFold:
    """Accumulates journal span payloads into one merged tree."""

    profiler: SpanProfiler = field(default_factory=SpanProfiler)
    merged: int = 0

    def add(self, payload: Optional[Mapping[str, Any]]) -> None:
        if payload is None:
            return
        self.profiler.merge(payload)
        self.merged += 1

    def tree(self) -> Optional[Dict[str, Any]]:
        if self.merged == 0:
            return None
        return self.profiler.to_dict(include_times=True)


def _audit_totals(cells: List["JournalCell"]) -> Dict[str, int]:
    totals = {
        "invocations": 0,
        "proposals": 0,
        "rescales": 0,
        "failed_rescales": 0,
        "holds": 0,
        "skips": 0,
        "degraded_intervals": 0,
        "audited_cells": 0,
    }
    for cell in cells:
        audit = cell.result.audit
        if audit is None:
            continue
        totals["audited_cells"] += 1
        totals["invocations"] += audit.invocations
        totals["proposals"] += audit.proposals
        totals["rescales"] += audit.rescales
        totals["failed_rescales"] += audit.failed_rescales
        totals["holds"] += audit.holds
        totals["skips"] += sum(count for _, count in audit.skips)
        totals["degraded_intervals"] += audit.degraded_intervals
    return totals


def report_from_journal(
    loaded: "LoadedJournal",
    trace: Optional[TraceSummary] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from an already-parsed journal.

    Only campaign cells (scorecard records) are reported: a chaos
    journal also holds the crash-recovery replay's cells.
    """
    from repro.faults.campaigns import (
        CampaignCellSpec,
        aggregate_scorecards,
    )

    header = loaded.header
    keys = sorted(
        key
        for key, cell in loaded.cells.items()
        if cell.field == CampaignCellSpec.result_field
    )
    cells = [loaded.cells[key] for key in keys]

    rows: List[CellRow] = []
    durations: List[float] = []
    workers = set()
    span_fold = _SpanFold()
    for key, cell in zip(keys, cells):
        seed, campaign, controller = key
        rows.append(
            CellRow(
                seed=seed,
                campaign=campaign,
                controller=controller,
                score=cell.result.score,
                duration=cell.duration,
                worker=cell.worker,
            )
        )
        if cell.duration is not None:
            durations.append(cell.duration)
        if cell.worker is not None:
            workers.add(cell.worker)
        span_fold.add(cell.spans)

    heartbeat_counts: Dict[str, int] = {}
    for event in loaded.heartbeats:
        heartbeat_counts[event.kind] = (
            heartbeat_counts.get(event.kind, 0) + 1
        )
        if event.worker is not None:
            workers.add(event.worker)

    quarantined = [_cell_name(note.key) for note in loaded.quarantines]

    duration_stats: Dict[str, float] = {}
    if durations:
        duration_stats = {
            "cells_timed": float(len(durations)),
            "total_seconds": sum(durations),
            "mean_seconds": sum(durations) / len(durations),
            "max_seconds": max(durations),
        }

    # A sweep's grid does not factor as campaigns × controllers; its
    # header records the exact cell count instead.
    expected = (
        header.cells
        if header.cells is not None
        else header.campaigns * len(header.controllers)
    )
    return RunReport(
        profile=header.profile,
        workload=header.workload,
        seed=header.seed,
        campaigns=header.campaigns,
        controllers=header.controllers,
        cells_expected=expected,
        cells_completed=len(cells),
        cells_quarantined=len(quarantined),
        aggregates=aggregate_scorecards(cell.result for cell in cells),
        cells=rows,
        duration_stats=duration_stats,
        heartbeat_counts=heartbeat_counts,
        workers=tuple(sorted(workers)),
        interrupted=tuple(interrupted_cells(loaded.heartbeats)),
        quarantined=tuple(quarantined),
        spans=span_fold.tree(),
        audit_totals=_audit_totals(cells),
        trace=trace,
        journal_warnings=tuple(loaded.warnings),
        sweep=header.sweep,
    )


def build_report(
    checkpoint: str,
    trace: Optional[str] = None,
) -> RunReport:
    """Read the journal at ``checkpoint`` (and optionally the JSONL
    trace at ``trace``) and join them into a :class:`RunReport`.

    Raises :class:`repro.errors.CheckpointError` on an unusable
    journal and :class:`repro.errors.TelemetryError` on an invalid
    trace — the CLI maps both to exit code 2.
    """
    from repro.faults.checkpoint import load_journal

    loaded = load_journal(checkpoint)
    summary: Optional[TraceSummary] = None
    if trace is not None:
        summary = summarize_trace(read_trace(trace))
    return report_from_journal(loaded, trace=summary)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def render_report_json(report: RunReport) -> str:
    return json.dumps(
        report.to_payload(), indent=2, sort_keys=True
    ) + "\n"


def _span_lines(
    node: Mapping[str, Any], depth: int, lines: List[str]
) -> None:
    name = node.get("name", "?")
    label = "  " * depth + str(name)
    seconds = node.get("seconds")
    if isinstance(seconds, (int, float)):
        lines.append(
            f"  {label:<38} {node.get('count', 0):>8} "
            f"{float(seconds) * 1000.0:>12.1f} ms"
        )
    else:
        lines.append(f"  {label:<38} {node.get('count', 0):>8}")
    for child in node.get("children", ()):
        _span_lines(child, depth + 1, lines)


def render_report_text(report: RunReport) -> str:
    """The deterministic terminal rendering of ``repro report``."""
    if report.sweep is not None:
        headline = (
            f"sweep run report — spec={report.sweep} "
            f"workload={report.workload} seed={report.seed}"
        )
    else:
        headline = (
            f"chaos run report — profile={report.profile} "
            f"workload={report.workload} seed={report.seed}"
        )
    lines = [
        headline,
        f"cells: {report.cells_completed}/{report.cells_expected} "
        f"completed, {report.cells_quarantined} quarantined",
    ]
    for warning in report.journal_warnings:
        lines.append(f"warning: {warning}")
    if report.interrupted:
        lines.append(
            "interrupted while executing: "
            + ", ".join(report.interrupted)
        )
    if report.duration_stats:
        stats = report.duration_stats
        lines.append(
            f"wall time: {stats['total_seconds']:.2f}s over "
            f"{int(stats['cells_timed'])} timed cells "
            f"(mean {stats['mean_seconds']:.2f}s, "
            f"max {stats['max_seconds']:.2f}s)"
        )
    if report.workers:
        lines.append(
            "workers: "
            + ", ".join(str(pid) for pid in report.workers)
        )
    if report.heartbeat_counts:
        lines.append(
            "heartbeats: "
            + "  ".join(
                f"{kind}={count}"
                for kind, count in sorted(
                    report.heartbeat_counts.items()
                )
            )
        )
    lines.append("")
    lines.append("per-controller aggregates (lower score is better):")
    ranking = sorted(
        report.aggregates,
        key=lambda name: (
            report.aggregates[name].mean_score, name
        ),
    )
    for name in ranking:
        agg = report.aggregates[name]
        lines.append(
            f"  {name:<18} score={agg.mean_score:.3f} "
            f"osc={agg.mean_oscillations:.2f} "
            f"sse={agg.mean_steady_state_error:.3f} "
            f"settle={agg.mean_settling_epochs:.1f} "
            f"down={agg.mean_downtime_fraction:.3f} "
            f"failed-rescales={agg.total_failed_rescales}"
        )
    if report.audit_totals.get("audited_cells"):
        totals = report.audit_totals
        lines.append("")
        lines.append(
            f"decisions: {totals['invocations']} invocations, "
            f"{totals['proposals']} proposals, "
            f"{totals['rescales']} rescales, "
            f"{totals['failed_rescales']} failed, "
            f"{totals['holds']} holds, {totals['skips']} skips "
            f"({totals['audited_cells']} audited cells)"
        )
    if report.quarantined:
        lines.append("")
        lines.append(
            "quarantined: " + ", ".join(report.quarantined)
        )
    if report.trace is not None:
        trace = report.trace
        lines.append("")
        lines.append(
            f"trace: {trace.events} events, "
            f"{trace.decisions} decisions, "
            f"{trace.rescales} rescales, {trace.faults} faults"
        )
        if trace.dropped > 0:
            lines.append(
                f"warning: trace truncated — the first "
                f"{trace.dropped} event(s) are missing"
            )
    if report.spans is not None:
        lines.append("")
        lines.append(
            f"  {'span':<38} {'count':>8} {'total':>15}"
        )
        for child in report.spans.get("children", ()):
            _span_lines(child, 0, lines)
    return "\n".join(lines) + "\n"


def render_report_markdown(report: RunReport) -> str:
    """GitHub-flavored markdown rendering of ``repro report``."""
    title = (
        "# Chaos run report"
        if report.sweep is None
        else "# Sweep run report"
    )
    lines = [
        title,
        "",
    ]
    if report.sweep is not None:
        lines.append(f"- **sweep**: `{report.sweep}`")
    lines += [
        f"- **profile**: `{report.profile}`",
        f"- **workload**: `{report.workload}`",
        f"- **seed**: {report.seed}",
        f"- **cells**: {report.cells_completed}/"
        f"{report.cells_expected} completed, "
        f"{report.cells_quarantined} quarantined",
    ]
    if report.duration_stats:
        stats = report.duration_stats
        lines.append(
            f"- **wall time**: {stats['total_seconds']:.2f}s "
            f"(mean {stats['mean_seconds']:.2f}s/cell)"
        )
    if report.interrupted:
        lines.append(
            "- **interrupted while executing**: "
            + ", ".join(f"`{name}`" for name in report.interrupted)
        )
    lines.append("")
    lines.append("## Controllers")
    lines.append("")
    lines.append(
        "| controller | score | oscillations | sse | settle "
        "| downtime | failed rescales |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    ranking = sorted(
        report.aggregates,
        key=lambda name: (
            report.aggregates[name].mean_score, name
        ),
    )
    for name in ranking:
        agg = report.aggregates[name]
        lines.append(
            f"| {name} | {agg.mean_score:.3f} "
            f"| {agg.mean_oscillations:.2f} "
            f"| {agg.mean_steady_state_error:.3f} "
            f"| {agg.mean_settling_epochs:.1f} "
            f"| {agg.mean_downtime_fraction:.3f} "
            f"| {agg.total_failed_rescales} |"
        )
    if report.heartbeat_counts:
        lines.append("")
        lines.append("## Heartbeats")
        lines.append("")
        lines.append("| event | count |")
        lines.append("|---|---|")
        for kind, count in sorted(report.heartbeat_counts.items()):
            lines.append(f"| {kind} | {count} |")
    if report.spans is not None:
        lines.append("")
        lines.append("## Span rollup")
        lines.append("")
        lines.append("```")
        span_lines: List[str] = []
        for child in report.spans.get("children", ()):
            _span_lines(child, 0, span_lines)
        lines.extend(span_lines)
        lines.append("```")
    if report.quarantined:
        lines.append("")
        lines.append("## Quarantined cells")
        lines.append("")
        for name in report.quarantined:
            lines.append(f"- `{name}`")
    return "\n".join(lines) + "\n"


REPORT_RENDERERS = {
    "text": render_report_text,
    "json": render_report_json,
    "markdown": render_report_markdown,
}


__all__ = [
    "CellRow",
    "REPORT_RENDERERS",
    "REPORT_SCHEMA_VERSION",
    "RunReport",
    "build_report",
    "render_report_json",
    "render_report_markdown",
    "render_report_text",
    "report_from_journal",
]
