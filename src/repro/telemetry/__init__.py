"""Observability for the DS2 reproduction (see docs/observability.md).

Cooperating layers, all zero-cost no-ops unless activated:

* :mod:`repro.telemetry.tracer` — an in-memory flight recorder with a
  deterministic JSONL export ("what happened, in order").
* :mod:`repro.telemetry.spans` — a hierarchical span profiler for the
  hot phases of a run ("where did the time go").
* :mod:`repro.telemetry.audit` — per-decision audit records capturing
  a controller invocation's inputs and the Eq. 7/8 traversal that
  produced its output ("why did it decide that").
* :mod:`repro.telemetry.progress` — live campaign heartbeats and
  progress renderers ("is it still making progress").
* :mod:`repro.telemetry.reports` — aggregated run reports joining
  scorecards, audits, durations, heartbeats, and span rollups from a
  campaign's durable artifacts ("what did the whole run conclude").

Activate ambiently around any experiment::

    from repro.telemetry import SpanProfiler, Tracer, profiling, tracing

    with tracing(Tracer()) as tracer, \\
            profiling(SpanProfiler()) as profiler:
        run_controlled(...)
    tracer.write_jsonl("out.jsonl")
    print(profiler.render())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.audit import (
        AuditSummary,
        DecisionAudit,
        OperatorAudit,
        build_decision_audit,
        finalize_audit,
        operator_audits,
        render_audit_summary,
        render_decision_audit,
        summarize_audits,
    )
    from repro.telemetry.progress import (
        NULL_PROGRESS,
        CellEvent,
        NullProgressListener,
        PlainProgressRenderer,
        ProgressListener,
        TTYProgressRenderer,
        interrupted_cells,
        make_progress_renderer,
    )
    from repro.telemetry.reports import (
        RunReport,
        build_report,
        render_report_json,
        render_report_markdown,
        render_report_text,
        report_from_journal,
    )
    from repro.telemetry.spans import (
        NULL_PROFILER,
        NullSpanProfiler,
        SPAN_SCHEMA_VERSION,
        SpanNode,
        SpanProfiler,
        active_profiler,
        profiling,
        wall_clock,
    )
    from repro.telemetry.trace_io import (
        EPOCH_KIND,
        TraceSummary,
        read_trace,
        render_trace_summary,
        summarize_trace,
        validate_trace_record,
    )
    from repro.telemetry.tracer import (
        NULL_TRACER,
        NullTracer,
        TraceEvent,
        Tracer,
        active_tracer,
        tracing,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.audit": (
        "AuditSummary", "DecisionAudit", "OperatorAudit",
        "build_decision_audit", "finalize_audit", "operator_audits",
        "render_audit_summary", "render_decision_audit", "summarize_audits",
    ),
    "repro.telemetry.progress": (
        "NULL_PROGRESS", "CellEvent", "NullProgressListener",
        "PlainProgressRenderer", "ProgressListener", "TTYProgressRenderer",
        "interrupted_cells", "make_progress_renderer",
    ),
    "repro.telemetry.reports": (
        "RunReport", "build_report", "render_report_json",
        "render_report_markdown", "render_report_text", "report_from_journal",
    ),
    "repro.telemetry.spans": (
        "NULL_PROFILER", "NullSpanProfiler", "SPAN_SCHEMA_VERSION", "SpanNode",
        "SpanProfiler", "active_profiler", "profiling", "wall_clock",
    ),
    "repro.telemetry.trace_io": (
        "EPOCH_KIND", "TraceSummary", "read_trace", "render_trace_summary",
        "summarize_trace", "validate_trace_record",
    ),
    "repro.telemetry.tracer": (
        "NULL_TRACER", "NullTracer", "TraceEvent", "Tracer", "active_tracer",
        "tracing",
    ),
})

__all__ = [
    "AuditSummary",
    "CellEvent",
    "DecisionAudit",
    "EPOCH_KIND",
    "NULL_PROFILER",
    "NULL_PROGRESS",
    "NULL_TRACER",
    "NullProgressListener",
    "NullSpanProfiler",
    "NullTracer",
    "OperatorAudit",
    "PlainProgressRenderer",
    "ProgressListener",
    "RunReport",
    "SPAN_SCHEMA_VERSION",
    "SpanNode",
    "SpanProfiler",
    "TTYProgressRenderer",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "active_profiler",
    "active_tracer",
    "build_decision_audit",
    "build_report",
    "finalize_audit",
    "interrupted_cells",
    "make_progress_renderer",
    "operator_audits",
    "profiling",
    "read_trace",
    "render_audit_summary",
    "render_decision_audit",
    "render_report_json",
    "render_report_markdown",
    "render_report_text",
    "render_trace_summary",
    "report_from_journal",
    "summarize_audits",
    "summarize_trace",
    "tracing",
    "validate_trace_record",
    "wall_clock",
]
