"""Scaling-decision audit records.

One :class:`DecisionAudit` answers "why did the controller do what it
did at this policy interval": the inputs it saw (per-operator true and
observed rates, completeness, degraded-mode state, window age) and the
Eq. 7/8 traversal outputs that produced the decision (target rate,
selectivity, ideal output rate, raw and clamped optimal parallelism),
plus what actually happened (rescaled / held / skipped and why /
rejected by the runtime, including the retry attempt number).

The control loop builds one audit per invocation and appends it to
``LoopResult.audits``; ``repro explain`` and the chaos scorecards
render or summarize them. Audits are plain frozen dataclasses; they
travel through JSONL traces in the JSON form of :mod:`repro.records`
(``to_json`` / ``from_json``), which round-trips them losslessly.

This module reads controller internals *duck-typed* (``last_decision``,
``degraded``, ``rate_compensation``, ``last_skip_reason``) — baseline
controllers without those attributes still get a useful audit with the
observation inputs and the outcome; only the Eq. 7/8 rows need a DS2
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # no runtime import: avoids a core <-> engine cycle
    from repro.core.controller import Observation
    from repro.core.model import ModelEvaluation


@dataclass(frozen=True)
class OperatorAudit:
    """The Eq. 7/8 traversal for one operator in one decision.

    Attributes mirror :class:`repro.core.model.OperatorEstimate`, plus
    the window completeness the rates were measured under and the
    model's unknown flag (true rates unmeasurable this window).
    """

    operator: str
    current_parallelism: int
    target_rate: float
    true_processing_rate: Optional[float]
    true_output_rate: Optional[float]
    selectivity: float
    ideal_output_rate: float
    optimal_parallelism_raw: float
    optimal_parallelism: int
    completeness: float = 1.0
    unknown: bool = False


@dataclass(frozen=True)
class DecisionAudit:
    """Everything about one controller invocation.

    ``outcome`` is one of ``rescaled``, ``rescale-failed``, ``hold``
    (invoked, no change requested or change filtered out), ``skipped``
    (an early guard fired — see ``skip_reason``), or ``backoff-wait``
    (a pending retry exists but its backoff has not elapsed).
    """

    time: float
    controller: str
    window_start: float
    window_end: float
    window_age: float
    outage_fraction: float
    truncated: bool
    in_outage: bool
    degraded: bool
    rate_compensation: float
    completeness: Mapping[str, float]
    source_target_rates: Mapping[str, float]
    source_observed_rates: Mapping[str, float]
    current_parallelism: Mapping[str, int]
    operators: Tuple[OperatorAudit, ...] = ()
    proposal: Optional[Mapping[str, int]] = None
    skip_reason: Optional[str] = None
    outcome: str = "hold"
    applied: Optional[Mapping[str, int]] = None
    outage_seconds: float = 0.0
    attempt: int = 0
    failure_reason: Optional[str] = None


@dataclass(frozen=True)
class AuditSummary:
    """Aggregate view of a run's decision audits (scorecard field)."""

    invocations: int = 0
    proposals: int = 0
    rescales: int = 0
    failed_rescales: int = 0
    holds: int = 0
    skips: Tuple[Tuple[str, int], ...] = ()
    degraded_intervals: int = 0
    max_rate_compensation: float = 1.0


def build_decision_audit(
    observation: "Observation",
    proposal: Optional[Mapping[str, int]],
    controller: object,
) -> DecisionAudit:
    """Assemble the input half of an audit from one invocation.

    The outcome half (``outcome``/``applied``/``attempt``/...) is
    filled in by the control loop via :func:`finalize_audit` once the
    rescale attempt resolves.
    """
    window = observation.window
    skip_reason = getattr(controller, "last_skip_reason", None)
    evaluation = None
    last_decision = getattr(controller, "last_decision", None)
    if skip_reason is None and last_decision is not None:
        evaluation = getattr(last_decision, "evaluation", None)
    operators: Tuple[OperatorAudit, ...] = ()
    if evaluation is not None:
        operators = operator_audits(evaluation, window.completeness)
    return DecisionAudit(
        time=observation.time,
        controller=str(getattr(controller, "name", "controller")),
        window_start=window.start,
        window_end=window.end,
        window_age=max(0.0, observation.time - window.end),
        outage_fraction=window.outage_fraction,
        truncated=window.truncated,
        in_outage=observation.in_outage,
        degraded=bool(getattr(controller, "degraded", False)),
        rate_compensation=float(
            getattr(controller, "rate_compensation", 1.0)
        ),
        completeness=dict(window.completeness),
        source_target_rates=dict(observation.source_target_rates),
        source_observed_rates=dict(window.source_observed_rates),
        current_parallelism=dict(observation.current_parallelism),
        operators=operators,
        proposal=None if proposal is None else dict(proposal),
        skip_reason=skip_reason,
    )


def operator_audits(
    evaluation: "ModelEvaluation",
    completeness: Optional[Mapping[str, float]] = None,
) -> Tuple[OperatorAudit, ...]:
    """Audit rows from a DS2 model evaluation, in estimate order."""
    unknown = set(evaluation.unknown_operators)
    completeness = completeness or {}
    rows: List[OperatorAudit] = []
    for name, est in evaluation.estimates.items():
        rows.append(
            OperatorAudit(
                operator=name,
                current_parallelism=est.current_parallelism,
                target_rate=est.target_rate,
                true_processing_rate=est.true_processing_rate,
                true_output_rate=est.true_output_rate,
                selectivity=est.selectivity,
                ideal_output_rate=est.ideal_output_rate,
                optimal_parallelism_raw=est.optimal_parallelism_raw,
                optimal_parallelism=est.optimal_parallelism,
                completeness=completeness.get(name, 1.0),
                unknown=name in unknown,
            )
        )
    return tuple(rows)


def finalize_audit(
    audit: DecisionAudit,
    outcome: str,
    applied: Optional[Mapping[str, int]] = None,
    outage_seconds: float = 0.0,
    attempt: int = 0,
    failure_reason: Optional[str] = None,
) -> DecisionAudit:
    """The audit with the rescale attempt's outcome filled in."""
    return replace(
        audit,
        outcome=outcome,
        applied=None if applied is None else dict(applied),
        outage_seconds=outage_seconds,
        attempt=attempt,
        failure_reason=failure_reason,
    )


def summarize_audits(audits: List[DecisionAudit]) -> AuditSummary:
    """Fold a run's audits into the scorecard-sized summary."""
    skips: Dict[str, int] = {}
    rescales = 0
    failed = 0
    holds = 0
    proposals = 0
    degraded = 0
    max_comp = 1.0
    for audit in audits:
        if audit.proposal is not None:
            proposals += 1
        if audit.degraded:
            degraded += 1
        max_comp = max(max_comp, audit.rate_compensation)
        if audit.outcome == "rescaled":
            rescales += 1
        elif audit.outcome == "rescale-failed":
            failed += 1
        elif audit.outcome == "skipped":
            reason = audit.skip_reason or "unspecified"
            skips[reason] = skips.get(reason, 0) + 1
        else:
            holds += 1
    return AuditSummary(
        invocations=len(audits),
        proposals=proposals,
        rescales=rescales,
        failed_rescales=failed,
        holds=holds,
        skips=tuple(sorted(skips.items())),
        degraded_intervals=degraded,
        max_rate_compensation=max_comp,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _format_columns(
    header: Tuple[str, ...], rows: List[Tuple[str, ...]]
) -> List[str]:
    widths = [len(cell) for cell in header]
    for row in rows:
        widths = [
            max(width, len(cell)) for width, cell in zip(widths, row)
        ]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(header, widths))
        .rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(w) for cell, w in zip(row, widths)
            ).rstrip()
        )
    return lines


def _fmt_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:,.0f}"


def render_decision_audit(audit: DecisionAudit) -> str:
    """Human-readable explanation of one decision (repro explain)."""
    lines: List[str] = []
    lines.append(
        f"decision at t={audit.time:.1f}s  "
        f"controller={audit.controller}  outcome={audit.outcome}"
        + (
            f" ({audit.skip_reason})"
            if audit.outcome == "skipped" and audit.skip_reason
            else ""
        )
    )
    lines.append(
        f"window [{audit.window_start:.1f}, {audit.window_end:.1f}]s"
        f"  age={audit.window_age:.1f}s"
        f"  outage={audit.outage_fraction:.0%}"
        f"  truncated={'yes' if audit.truncated else 'no'}"
        f"  degraded={'yes' if audit.degraded else 'no'}"
    )
    sources = ", ".join(
        f"{name}: target {_fmt_rate(rate)}/s, "
        f"observed {_fmt_rate(audit.source_observed_rates.get(name))}/s"
        for name, rate in sorted(audit.source_target_rates.items())
    )
    if sources:
        lines.append(f"sources: {sources}")
    if audit.rate_compensation > 1.0:
        lines.append(
            f"rate compensation: x{audit.rate_compensation:.3f}"
        )
    incomplete = {
        name: fraction
        for name, fraction in sorted(audit.completeness.items())
        if fraction < 1.0
    }
    if incomplete:
        lines.append(
            "incomplete telemetry: "
            + ", ".join(
                f"{name}={fraction:.0%}"
                for name, fraction in incomplete.items()
            )
        )
    if audit.operators:
        rows: List[Tuple[str, ...]] = []
        for row in audit.operators:
            rows.append(
                (
                    row.operator,
                    str(row.current_parallelism),
                    _fmt_rate(row.target_rate),
                    _fmt_rate(row.true_processing_rate),
                    f"{row.selectivity:.3f}",
                    _fmt_rate(row.ideal_output_rate),
                    ("?" if row.unknown
                     else f"{row.optimal_parallelism_raw:.2f}"),
                    str(row.optimal_parallelism),
                )
            )
        lines.append("")
        lines.extend(
            _format_columns(
                (
                    "operator",
                    "p",
                    "target/s",
                    "true-rate/s",
                    "selectivity",
                    "ideal-out/s",
                    "raw pi",
                    "optimal",
                ),
                rows,
            )
        )
        lines.append("")
    if audit.proposal is not None:
        proposal = ", ".join(
            f"{name}={value}"
            for name, value in sorted(audit.proposal.items())
        )
        lines.append(f"proposed: {proposal}")
    if audit.outcome == "rescaled" and audit.applied is not None:
        applied = ", ".join(
            f"{name}={value}"
            for name, value in sorted(audit.applied.items())
        )
        suffix = (
            f" after {audit.outage_seconds:.1f}s outage"
            if audit.outage_seconds > 0
            else ""
        )
        attempt = (
            f" (attempt {audit.attempt})" if audit.attempt > 1 else ""
        )
        lines.append(f"applied: {applied}{suffix}{attempt}")
    elif audit.outcome == "rescale-failed":
        lines.append(
            f"rescale attempt {audit.attempt} failed: "
            f"{audit.failure_reason or 'unknown reason'}"
        )
    return "\n".join(lines) + "\n"


def render_audit_summary(summary: AuditSummary) -> str:
    """One-paragraph rendering of an :class:`AuditSummary`."""
    parts = [
        f"{summary.invocations} invocations",
        f"{summary.proposals} proposals",
        f"{summary.rescales} rescales",
        f"{summary.failed_rescales} failed",
        f"{summary.holds} holds",
    ]
    if summary.skips:
        skipped = ", ".join(
            f"{reason}: {count}" for reason, count in summary.skips
        )
        parts.append(f"skipped ({skipped})")
    if summary.degraded_intervals:
        parts.append(f"{summary.degraded_intervals} degraded intervals")
    if summary.max_rate_compensation > 1.0:
        parts.append(
            f"peak compensation x{summary.max_rate_compensation:.2f}"
        )
    return "; ".join(parts)


__all__ = [
    "AuditSummary",
    "DecisionAudit",
    "OperatorAudit",
    "build_decision_audit",
    "finalize_audit",
    "operator_audits",
    "render_audit_summary",
    "render_decision_audit",
    "summarize_audits",
]
