"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-queries`` — the Nexmark queries the paper evaluates.
* ``list-experiments`` — the reproducible tables/figures (the
  registry in :mod:`repro.experiments.artifacts`).
* ``run <experiment>`` — run one artifact (optionally scaled down) and
  print it; at scale 1 that is exactly its committed
  ``benchmarks/output/`` file. ``--trace FILE`` records a JSONL
  trace of the run. For ``chaos``, ``--checkpoint FILE`` journals
  every completed cell durably (retry/quarantine supervision included)
  and ``--resume`` continues an interrupted run byte-identically;
  ``--progress`` renders live cell progress on stderr and ``--spans
  FILE`` writes a span profile of the run's hot phases.
* ``decide`` — one-shot DS2 sizing of the Heron wordcount (the §5.2
  headline, in two seconds), with the per-operator Eq. 7/8 traversal.
* ``explain`` — render a scaling-decision audit: the one-shot sizing
  by default, or any decision recorded in a trace (``--trace FILE
  --index N``).
* ``trace summarize FILE`` — validate a JSONL trace and print its
  headline numbers (including ring-buffer drops when truncated).
* ``report --checkpoint FILE`` — join a chaos run's durable artifacts
  (scorecards, decision audits, per-cell durations, heartbeats, span
  rollups) into one text/JSON/markdown summary.
* ``sweep run --spec FILE`` — run a declarative parameter-sweep grid
  (TOML spec: profile × rate × burstiness × controller × runtime ×
  backend) on the campaign executor seam and print its sensitivity
  report; ``--jobs``, ``--checkpoint``/``--resume``, and
  ``--progress`` work exactly as for ``run chaos``.
* ``sweep report --spec FILE --checkpoint FILE`` — rebuild the
  sensitivity report from a sweep's checkpoint journal without
  re-running any cell.
* ``lint [paths]`` — the determinism linter over Python sources
  (defaults to the installed ``repro`` package); non-zero exit on
  violations, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.experiments.report import format_table

if TYPE_CHECKING:
    from repro.experiments.artifacts import Artifact


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_list_queries(_args: argparse.Namespace) -> int:
    from repro.workloads.nexmark import ALL_QUERIES

    print(format_table(
        ("query", "description", "main operator", "optimal parallelism"),
        [
            (query.name, query.description, query.main_operator,
             query.indicated_flink)
            for query in ALL_QUERIES
        ],
    ))
    return 0


def cmd_list_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import ARTIFACTS

    print(format_table(
        ("experiment", "reproduces"),
        [(entry.id, entry.description) for entry in ARTIFACTS.values()],
    ))
    print("\nRun one with: python -m repro run <experiment> "
          "[--scale 0.5]")
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """The shell command that resumes an interrupted journaled run: the
    original command line, every flag kept, plus ``--resume``."""
    argv = list(args.argv)
    if "--resume" not in argv:
        argv.append("--resume")
    return shlex.join(["python", "-m", "repro", *argv])


def _execute_run(
    args: argparse.Namespace, entry: "Artifact", flags: Dict[str, object]
) -> int:
    """Run one (already validated) artifact and print its text. An
    error of the experiment's own is one stderr line and exit 2."""
    from repro.errors import (
        CheckpointError,
        FaultInjectionError,
        ReproError,
    )
    from repro.faults.executor import CampaignInterrupted

    try:
        print(entry.render(entry.run(args.scale, **flags)))
    except CampaignInterrupted as error:
        print(str(error), file=sys.stderr)
        if error.path is not None:
            print(
                f"resume with: {_resume_command(args)}", file=sys.stderr
            )
        return 130
    except ReproError as error:
        if isinstance(error, CheckpointError):
            label = "unusable checkpoint"
        elif (
            isinstance(error, FaultInjectionError)
            and entry.invalid_input is not None
        ):
            label = entry.invalid_input
        else:
            label = f"run {entry.id} failed"
        print(f"{label}: {error}", file=sys.stderr)
        return 2
    return 0


def _set_flags(
    args: argparse.Namespace, flags: Sequence[str]
) -> Dict[str, object]:
    """The run flags among ``flags`` given on the command line (unset
    ones are None, or False for a switch; ``--seeds 0`` is set)."""
    values = {flag: getattr(args, flag) for flag in flags}
    return {
        flag: value for flag, value in values.items()
        if value is not None and value is not False
    }


def _unaccepted_flag(
    args: argparse.Namespace, entry: "Artifact"
) -> Optional[str]:
    """Why ``args`` sets a run flag that ``entry`` does not take, or
    None if it sets none."""
    from repro.experiments.artifacts import ARTIFACTS

    owners: Dict[str, List[str]] = {}
    for other in ARTIFACTS.values():
        for flag in other.flags:
            owners.setdefault(flag, []).append(f"'{other.id}'")
    for flag in _set_flags(args, list(owners)):
        if flag in entry.flags:
            continue
        ids = owners[flag]
        noun = "experiment" if len(ids) == 1 else "experiments"
        return (
            f"--{flag.replace('_', '-')} only applies to the "
            f"{' and '.join(ids)} {noun}"
        )
    return None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import ALIASES, ARTIFACTS

    entry = ARTIFACTS.get(ALIASES.get(args.experiment, args.experiment))
    if entry is None:
        print(
            f"unknown experiment {args.experiment!r}; available: "
            f"{', '.join(ARTIFACTS)}",
            file=sys.stderr,
        )
        return 2
    if not (args.scale > 0 and math.isfinite(args.scale)):
        print(
            f"--scale must be a finite number > 0, got {args.scale}",
            file=sys.stderr,
        )
        return 2
    problem = _unaccepted_flag(args, entry)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if args.resume and args.checkpoint is None:
        print(
            "--resume requires --checkpoint FILE (the journal to "
            "resume from)",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(
            f"--jobs must be a positive worker count, got {args.jobs}",
            file=sys.stderr,
        )
        return 2
    # The progress renderer writes only to stderr, so stdout (the
    # golden experiment report) is byte-identical with or without it.
    progress = None
    if args.progress:
        from repro.telemetry.progress import make_progress_renderer

        progress = make_progress_renderer(sys.stderr)
    flags = _set_flags(args, entry.flags)
    if progress is not None:
        flags["progress"] = progress
    trace_path = args.trace
    spans_path = args.spans
    if trace_path is None and spans_path is None and progress is None:
        return _execute_run(args, entry, flags)
    import contextlib

    profiler = None
    tracer = None
    with contextlib.ExitStack() as stack:
        if spans_path is not None:
            from repro.telemetry.spans import SpanProfiler, profiling

            profiler = SpanProfiler()
            stack.enter_context(profiling(profiler))
        if trace_path is not None:
            # Activate an unbounded tracer (a CLI run is finite;
            # nothing should be evicted from the flight recorder).
            from repro.telemetry import Tracer, tracing

            tracer = Tracer(capacity=None)
            stack.enter_context(tracing(tracer))
        if progress is not None:
            stack.callback(progress.close)
        code = _execute_run(args, entry, flags)
    if code != 0:
        return code
    if profiler is not None:
        import json

        try:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(
                    profiler.to_dict(), handle,
                    indent=2, sort_keys=True,
                )
                handle.write("\n")
        except OSError as error:
            print(f"cannot write spans: {error}", file=sys.stderr)
            return 2
        print(f"wrote span profile to {spans_path}")
    if tracer is not None:
        try:
            count = tracer.write_jsonl(trace_path)
        except OSError as error:
            print(f"cannot write trace: {error}", file=sys.stderr)
            return 2
        print(f"wrote {count} trace events to {trace_path}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        LINT_RULES,
        has_errors,
        lint_paths,
        render_json,
        render_text,
    )
    from repro.analysis.rules import AnalysisError

    if args.list_rules:
        print(format_table(
            ("id", "name", "summary"),
            [(rule.id, rule.name, rule.summary) for rule in LINT_RULES],
            title="lint rules",
        ))
        print("\nsuppress a finding with '# repro: allow[ID]'")
        return 0
    paths = args.paths
    if not paths:
        import pathlib

        import repro

        paths = [str(pathlib.Path(repro.__file__).parent)]
    def split_rules(value):
        if value is None:
            return None
        return [r.strip() for r in value.split(",") if r.strip()]

    try:
        findings = lint_paths(
            paths,
            select=split_rules(args.select),
            ignore=split_rules(args.ignore),
        )
    except AnalysisError as error:
        print(f"lint error: {error}", file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings))
    return 1 if has_errors(findings) else 0


def _oneshot_wordcount_audit():
    """One DS2 sizing of the under-provisioned Heron wordcount from a
    single 60 s window, as a (evaluation, DecisionAudit) pair — the
    shared substance of ``repro decide`` and bare ``repro explain``."""
    from repro.core import compute_optimal_parallelism
    from repro.dataflow.physical import PhysicalPlan
    from repro.engine.runtimes import HeronRuntime
    from repro.engine.simulator import EngineConfig, Simulator
    from repro.telemetry import DecisionAudit, operator_audits
    from repro.workloads.wordcount import heron_wordcount_graph

    graph = heron_wordcount_graph()
    plan = PhysicalPlan(graph, {name: 1 for name in graph.names})
    simulator = Simulator(
        plan, HeronRuntime(),
        EngineConfig(tick=0.5, track_record_latency=False),
    )
    simulator.run_for(60.0)
    window = simulator.collect_metrics()
    targets = simulator.source_target_rates()
    result = compute_optimal_parallelism(graph, window, targets)
    audit = DecisionAudit(
        time=window.end,
        controller="ds2",
        window_start=window.start,
        window_end=window.end,
        window_age=0.0,
        outage_fraction=window.outage_fraction,
        truncated=window.truncated,
        in_outage=False,
        degraded=False,
        rate_compensation=1.0,
        completeness=dict(window.completeness),
        source_target_rates=dict(targets),
        source_observed_rates=dict(window.source_observed_rates),
        current_parallelism={name: 1 for name in graph.names},
        operators=operator_audits(result, window.completeness),
        proposal={
            name: estimate.optimal_parallelism
            for name, estimate in result.estimates.items()
        },
        outcome="hold",
    )
    return result, audit


def cmd_decide(_args: argparse.Namespace) -> int:
    from repro.telemetry import render_decision_audit

    result, audit = _oneshot_wordcount_audit()
    print(format_table(
        ("operator", "current", "optimal"),
        [
            (name, 1, estimate.optimal_parallelism)
            for name, estimate in result.estimates.items()
        ],
        title=(
            "DS2 decision from one 60 s window of the "
            "under-provisioned Heron wordcount"
        ),
    ))
    print()
    print("Eq. 7/8 traversal behind those numbers:")
    print()
    print(render_decision_audit(audit))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.errors import TelemetryError
    from repro.telemetry import (
        audit_from_dict,
        read_trace,
        render_decision_audit,
    )

    if args.trace is None:
        _, audit = _oneshot_wordcount_audit()
        print(render_decision_audit(audit))
        return 0
    try:
        records = read_trace(args.trace)
    except TelemetryError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    payloads = [
        record["data"]["audit"]
        for record in records
        if record["kind"] == "controller.audit"
        and isinstance(record["data"], dict)
        and "audit" in record["data"]
    ]
    if not payloads:
        print(
            f"no controller.audit events in {args.trace} (was the run "
            "recorded with --trace and an auditing control loop?)",
            file=sys.stderr,
        )
        return 2
    index = args.index
    if index < 0:
        index += len(payloads)
    if not 0 <= index < len(payloads):
        print(
            f"--index {args.index} out of range: trace holds "
            f"{len(payloads)} decision(s)",
            file=sys.stderr,
        )
        return 2
    try:
        audit = audit_from_dict(payloads[index])
    except TelemetryError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    print(f"decision {index + 1} of {len(payloads)} in {args.trace}")
    print()
    print(render_decision_audit(audit))
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.errors import TelemetryError
    from repro.telemetry import (
        read_trace,
        render_trace_summary,
        summarize_trace,
    )

    try:
        records = read_trace(args.file)
    except TelemetryError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    summary = summarize_trace(records)
    if args.format == "json":
        import dataclasses
        import json

        payload = dataclasses.asdict(summary)
        payload["kinds"] = dict(summary.kinds)
        payload["span"] = summary.span
        payload["dropped"] = summary.dropped
        print(json.dumps(payload, indent=2, sort_keys=True))
        if summary.dropped > 0:
            print(
                f"warning: truncated trace — the ring buffer "
                f"dropped the first {summary.dropped} event(s)",
                file=sys.stderr,
            )
    else:
        print(render_trace_summary(summary))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError, TelemetryError
    from repro.telemetry.reports import (
        REPORT_RENDERERS,
        build_report,
    )

    try:
        report = build_report(
            args.checkpoint, trace=getattr(args, "trace", None)
        )
    except CheckpointError as error:
        print(f"unusable checkpoint: {error}", file=sys.stderr)
        return 2
    except TelemetryError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot read artifacts: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(REPORT_RENDERERS[args.format](report))
    return 0


def _write_sweep_report(report: object, fmt: str) -> None:
    from repro.sweeps import SWEEP_RENDERERS

    rendered = SWEEP_RENDERERS[fmt](report)  # type: ignore[arg-type]
    if not rendered.endswith("\n"):
        rendered += "\n"
    sys.stdout.write(rendered)


def cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.errors import (
        CheckpointError,
        FaultInjectionError,
        SweepError,
    )
    from repro.faults.executor import CampaignInterrupted
    from repro.sweeps import build_sweep_report, load_spec, run_sweep

    if args.resume and args.checkpoint is None:
        print(
            "--resume requires --checkpoint FILE (the journal to "
            "resume from)",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(
            f"--jobs must be a positive worker count, got "
            f"{args.jobs}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = load_spec(args.spec)
    except SweepError as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2
    progress = None
    import contextlib

    with contextlib.ExitStack() as stack:
        if args.progress:
            from repro.telemetry.progress import (
                make_progress_renderer,
            )

            progress = make_progress_renderer(sys.stderr)
            stack.callback(progress.close)
        try:
            result = run_sweep(
                spec,
                jobs=args.jobs,
                checkpoint=args.checkpoint,
                resume=args.resume,
                progress=progress,
            )
        except CheckpointError as error:
            print(f"unusable checkpoint: {error}", file=sys.stderr)
            return 2
        except CampaignInterrupted as error:
            print(str(error), file=sys.stderr)
            if error.path is not None:
                print(
                    f"resume with: {_resume_command(args)}",
                    file=sys.stderr,
                )
            return 130
        except (FaultInjectionError, SweepError) as error:
            print(f"invalid sweep: {error}", file=sys.stderr)
            return 2
    _write_sweep_report(build_sweep_report(result), args.format)
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError, SweepError
    from repro.sweeps import (
        build_sweep_report,
        load_spec,
        sweep_result_from_journal,
    )

    try:
        spec = load_spec(args.spec)
        result = sweep_result_from_journal(spec, args.checkpoint)
    except SweepError as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2
    except CheckpointError as error:
        print(f"unusable checkpoint: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot read artifacts: {error}", file=sys.stderr)
        return 2
    _write_sweep_report(build_sweep_report(result), args.format)
    return 0


def _sweep_no_subcommand(_args: argparse.Namespace) -> int:
    print(
        "usage: repro sweep run --spec FILE [--jobs N] "
        "[--checkpoint FILE [--resume]] | "
        "repro sweep report --spec FILE --checkpoint FILE",
        file=sys.stderr,
    )
    return 2


def _trace_no_subcommand(_args: argparse.Namespace) -> int:
    print(
        "usage: repro trace summarize FILE [--format text|json]",
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DS2 reproduction (OSDI 2018): automatic scaling decisions "
            "for distributed streaming dataflows"
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser(
        "list-queries", help="show the Nexmark workload registry"
    ).set_defaults(func=cmd_list_queries)
    sub.add_parser(
        "list-experiments", help="show the reproducible experiments"
    ).set_defaults(func=cmd_list_experiments)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id (see list)")
    run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="duration scale factor (e.g. 0.3 for a quick look)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault schedule for the 'faults' experiment, e.g. "
            "'crash@600:flatmap,dropout@300+180:source*0.5,"
            "rescale-fail@0:abort'"
        ),
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        dest="fault_seed",
        help=(
            "seed for the 'faults' schedule's deterministic noise, or "
            "the 'chaos' campaign generator's master seed (default 1)"
        ),
    )
    run.add_argument(
        "--profile",
        default=None,
        help=(
            "chaos campaign profile for the 'chaos' experiment "
            "(mixed, crashes, telemetry, rescale-storm, "
            "backpressure, smoke)"
        ),
    )
    run.add_argument(
        "--seeds",
        type=int,
        default=None,
        help=(
            "number of sampled campaigns for the 'chaos' experiment "
            "(default 20)"
        ),
    )
    run.add_argument(
        "--workload",
        default=None,
        help=(
            "workload for the 'chaos' experiment: wordcount "
            "(default), nexmark-q1/q2/q3/q5/q8/q11, or "
            "nexmark-q5-timely (global scaling)"
        ),
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for the 'chaos' experiment's campaign "
            "cells and its crash-recovery replay (default: "
            "$REPRO_JOBS, else 1 = serial; results are byte-identical "
            "either way)"
        ),
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help=(
            "durable cell journal for the 'chaos' experiment: every "
            "completed cell is fsynced to FILE, failing cells are "
            "retried then quarantined, and a killed run resumes with "
            "--resume (byte-identical output)"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted 'chaos' run from its --checkpoint "
            "journal instead of starting fresh"
        ),
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a JSONL trace of the run to FILE",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        default=False,
        help=(
            "live progress for the 'chaos' experiment on stderr: "
            "cells done/total, ETA, per-worker activity, stall "
            "warnings (stdout stays byte-identical)"
        ),
    )
    run.add_argument(
        "--no-progress",
        action="store_false",
        dest="progress",
        help="disable live progress (the default)",
    )
    run.add_argument(
        "--spans",
        default=None,
        metavar="FILE",
        help=(
            "profile the run's hot phases (tick, window fire, "
            "allocation, metrics, decide, fault fire, checkpoint "
            "fsync) and write the span tree as JSON to FILE"
        ),
    )
    run.set_defaults(func=cmd_run)
    sub.add_parser(
        "decide", help="one-shot DS2 sizing of the Heron wordcount"
    ).set_defaults(func=cmd_decide)
    explain = sub.add_parser(
        "explain",
        help="explain a scaling decision (the Eq. 7/8 audit trail)",
    )
    explain.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "JSONL trace to read decisions from (default: run the "
            "one-shot Heron wordcount sizing)"
        ),
    )
    explain.add_argument(
        "--index",
        type=int,
        default=-1,
        help=(
            "which decision in the trace to explain (0-based; "
            "negative counts from the end; default: the last)"
        ),
    )
    explain.set_defaults(func=cmd_explain)
    trace = sub.add_parser(
        "trace", help="inspect recorded JSONL traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command")
    trace.set_defaults(func=_trace_no_subcommand)
    summarize = trace_sub.add_parser(
        "summarize",
        help="validate a trace and print its headline numbers",
    )
    summarize.add_argument("file", help="JSONL trace file")
    summarize.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    summarize.set_defaults(func=cmd_trace_summarize)
    report = sub.add_parser(
        "report",
        help=(
            "aggregate a chaos run's durable artifacts into one "
            "summary (scorecards, decisions, durations, heartbeats, "
            "span rollups)"
        ),
    )
    report.add_argument(
        "--checkpoint",
        required=True,
        metavar="FILE",
        help="the run's checkpoint journal (from run chaos --checkpoint)",
    )
    report.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="optional JSONL trace to fold into the summary",
    )
    report.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="report format (default: text)",
    )
    report.set_defaults(func=cmd_report)
    sweep = sub.add_parser(
        "sweep",
        help=(
            "declarative parameter sweeps on the campaign executor "
            "seam (grid spec -> cells -> sensitivity report)"
        ),
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command")
    sweep.set_defaults(func=_sweep_no_subcommand)
    sweep_run = sweep_sub.add_parser(
        "run",
        help="run every cell of a sweep grid and print its report",
    )
    sweep_run.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="TOML sweep spec (see docs/sweeps.md)",
    )
    sweep_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for the sweep's cells (default: "
            "$REPRO_JOBS, else 1 = serial; results are "
            "byte-identical either way)"
        ),
    )
    sweep_run.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help=(
            "durable cell journal: every completed cell is fsynced "
            "to FILE, failing cells are retried then quarantined, "
            "and a killed sweep resumes with --resume "
            "(byte-identical output)"
        ),
    )
    sweep_run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep from its --checkpoint "
            "journal instead of starting fresh"
        ),
    )
    sweep_run.add_argument(
        "--progress",
        action="store_true",
        default=False,
        help=(
            "live cell progress on stderr (stdout stays "
            "byte-identical)"
        ),
    )
    sweep_run.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="report format (default: text)",
    )
    sweep_run.set_defaults(func=cmd_sweep_run)
    sweep_report = sweep_sub.add_parser(
        "report",
        help=(
            "rebuild a sweep's sensitivity report from its "
            "checkpoint journal (no cells are re-run)"
        ),
    )
    sweep_report.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="the sweep's TOML spec (must match the journal)",
    )
    sweep_report.add_argument(
        "--checkpoint",
        required=True,
        metavar="FILE",
        help="the sweep's checkpoint journal",
    )
    sweep_report.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="report format (default: text)",
    )
    sweep_report.set_defaults(func=cmd_sweep_report)
    lint = sub.add_parser(
        "lint",
        help="determinism linter over Python sources",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint (default: the installed "
            "repro package)"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids/names to run exclusively",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    # Kept for the resume command printed when a journaled run is
    # interrupted.
    args.argv = tuple(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping report output into `head` & co. closes stdout early;
        # exit quietly like other unix filters instead of tracebacking.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
