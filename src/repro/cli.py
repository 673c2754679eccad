"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-queries`` — the Nexmark workload registry (paper + extended).
* ``list-experiments`` — the reproducible tables/figures.
* ``run <experiment>`` — run one experiment (optionally scaled down)
  and print the regenerated rows. ``--trace FILE`` records a JSONL
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
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.report import (
    format_rate,
    format_steps,
    format_table,
)


# ----------------------------------------------------------------------
# Experiment runners (scaled by a single --scale factor)
# ----------------------------------------------------------------------

def _run_fig6(scale: float) -> str:
    from repro.experiments.comparison import run_dhalion, run_ds2

    dhalion = run_dhalion(duration=3600.0 * scale, tick=0.5)
    ds2 = run_ds2(duration=max(300.0, 600.0 * scale), tick=0.5)
    return format_table(
        ("controller", "steps", "converged (s)", "flatmap", "count",
         "achieved"),
        [
            (r.controller, r.steps, f"{r.convergence_time:.0f}",
             r.final_flatmap, r.final_count,
             format_rate(r.achieved_rate))
            for r in (dhalion, ds2)
        ],
        title="Figure 6 / §5.2: DS2 vs Dhalion (optimal: 10/20)",
    )


def _run_fig7(scale: float) -> str:
    from repro.experiments.dynamic import run_dynamic_scaling
    from repro.workloads.wordcount import COUNT, FLATMAP

    result = run_dynamic_scaling(
        phase_seconds=600.0 * scale, tick=0.25
    )
    return format_table(
        ("time (s)", "flatmap", "count"),
        [
            (f"{e.time:.0f}", e.applied[FLATMAP], e.applied[COUNT])
            for e in result.run.loop_result.events
        ],
        title="Figure 7 / §5.3: dynamic scaling actions",
    )


def _run_table4(scale: float) -> str:
    from repro.experiments.convergence import (
        format_table4,
        run_table4,
    )

    cells = run_table4(duration=1500.0 * scale, tick=0.25)
    return format_table4(cells)


def _run_fig9(scale: float) -> str:
    from repro.experiments.accuracy import (
        FIGURE9_QUERIES,
        run_figure9,
    )

    rows = []
    for query in FIGURE9_QUERIES:
        for point in run_figure9(
            query, duration=max(60.0, 120.0 * scale)
        ):
            dist = point.epoch_latency
            rows.append((
                query.name,
                point.workers,
                f"{dist.median():.2f}" if len(dist) else "inf",
                f"{point.fraction_above_target:.0%}",
            ))
    return format_table(
        ("query", "workers", "epoch p50 (s)", "epochs > 1 s"),
        rows,
        title="Figure 9 / §5.5: epoch latency vs workers (optimal: 4)",
    )


def _run_skew(scale: float) -> str:
    from repro.experiments.skew_experiment import run_skew_experiment

    results = run_skew_experiment(
        duration=max(300.0, 600.0 * scale), tick=0.25
    )
    return format_table(
        ("skew", "steps", "final", "no-skew optimum",
         "achieved/target"),
        [
            (f"{r.skew:.0%}", r.steps,
             f"({r.final_flatmap}, {r.final_count})",
             f"({r.noskew_flatmap}, {r.noskew_count})",
             f"{r.achieved_rate / r.target_rate:.0%}")
            for r in results
        ],
        title="§4.2.3: DS2 under data skew",
    )


def _run_faults(
    scale: float,
    faults: Optional[str] = None,
    fault_seed: int = 1,
) -> str:
    from repro.experiments.fault_tolerance import (
        default_fault_schedule,
        fault_tolerance_report,
        run_dhalion_faults,
        run_ds2_faults,
    )
    from repro.faults import parse_faults

    # The campaign's fault times are absolute, so the duration stays
    # fixed; --scale below 1 coarsens the tick instead.
    tick = 0.5 if scale >= 1.0 else 1.0
    schedule = (
        parse_faults(faults, seed=fault_seed)
        if faults is not None
        else default_fault_schedule(fault_seed)
    )
    results = [
        run_ds2_faults(tick=tick, hardened=True, schedule=schedule),
        run_ds2_faults(tick=tick, hardened=False, schedule=schedule),
        run_dhalion_faults(tick=tick, schedule=schedule),
    ]
    return fault_tolerance_report(results)


def _run_chaos(
    scale: float,
    profile: str = "mixed",
    seeds: int = 20,
    seed: int = 1,
    workload: str = "wordcount",
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[object] = None,
) -> str:
    from repro.experiments.chaos import chaos_report, run_chaos

    # Campaign durations are baked into the profile; --scale below 1
    # coarsens the tick instead (as with 'faults').
    tick = 1.0 if scale >= 1.0 else 2.0
    result = run_chaos(
        profile=profile,
        campaigns=seeds,
        seed=seed,
        tick=tick,
        workload=workload,
        jobs=jobs,
        checkpoint=checkpoint,
        resume=resume,
        progress=progress,  # type: ignore[arg-type]
    )
    return chaos_report(result)


EXPERIMENTS: Dict[str, Callable[[float], str]] = {
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "table4": _run_table4,
    "fig9": _run_fig9,
    "skew": _run_skew,
    "faults": _run_faults,
    "chaos": _run_chaos,
}

EXPERIMENT_DESCRIPTIONS = {
    "fig6": "DS2 vs Dhalion on Heron wordcount (§5.2)",
    "fig7": "dynamic scaling on Flink wordcount (§5.3)",
    "table4": "Nexmark convergence sweep (§5.4)",
    "fig9": "Timely epoch-latency accuracy (§5.5)",
    "skew": "DS2 under data skew (§4.2.3)",
    "faults": "convergence under injected faults (robustness)",
    "chaos": "seeded chaos campaigns with SASO scorecards (robustness)",
}

#: Accepted spellings of experiment ids (resolved before dispatch).
EXPERIMENT_ALIASES = {
    "fault_tolerance": "faults",
    "fault-tolerance": "faults",
}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_list_queries(_args: argparse.Namespace) -> int:
    from repro.workloads.nexmark import ALL_QUERIES, EXTENDED_QUERIES

    rows = []
    for query in ALL_QUERIES:
        rows.append((
            query.name, "paper", query.description,
            query.main_operator, query.indicated_flink,
        ))
    for query in EXTENDED_QUERIES:
        rows.append((
            query.name, "extended", query.description,
            query.main_operator, query.indicated_flink,
        ))
    print(format_table(
        ("query", "suite", "description", "main operator",
         "optimal parallelism"),
        rows,
    ))
    return 0


def cmd_list_experiments(_args: argparse.Namespace) -> int:
    print(format_table(
        ("experiment", "reproduces"),
        sorted(EXPERIMENT_DESCRIPTIONS.items()),
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
    args: argparse.Namespace,
    experiment: str,
    runner: Callable[[float], str],
    faults: Optional[str],
    profile: Optional[str],
    seeds: Optional[int],
    workload: Optional[str] = None,
    jobs: Optional[int] = None,
    progress: Optional[object] = None,
) -> int:
    """Dispatch one (already validated) experiment and print its rows."""
    if experiment == "chaos":
        from repro.errors import CheckpointError, FaultInjectionError
        from repro.faults.executor import CampaignInterrupted

        checkpoint = getattr(args, "checkpoint", None)
        try:
            print(
                _run_chaos(
                    args.scale,
                    profile=profile if profile is not None else "mixed",
                    seeds=seeds if seeds is not None else 20,
                    seed=getattr(args, "fault_seed", 1),
                    workload=(
                        workload if workload is not None else "wordcount"
                    ),
                    jobs=jobs,
                    checkpoint=checkpoint,
                    resume=bool(getattr(args, "resume", False)),
                    progress=progress,
                )
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
        except FaultInjectionError as error:
            print(f"invalid chaos campaign: {error}", file=sys.stderr)
            return 2
        return 0
    if experiment == "faults":
        from repro.errors import FaultInjectionError

        try:
            print(
                _run_faults(
                    args.scale,
                    faults=faults,
                    fault_seed=getattr(args, "fault_seed", 1),
                )
            )
        except FaultInjectionError as error:
            print(f"invalid fault spec: {error}", file=sys.stderr)
            return 2
        return 0
    print(runner(args.scale))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    experiment = EXPERIMENT_ALIASES.get(
        args.experiment, args.experiment
    )
    runner = EXPERIMENTS.get(experiment)
    if runner is None:
        print(
            f"unknown experiment {args.experiment!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    if not (args.scale > 0 and math.isfinite(args.scale)):
        print(
            f"--scale must be a finite number > 0, got {args.scale}",
            file=sys.stderr,
        )
        return 2
    faults = getattr(args, "faults", None)
    if faults is not None and experiment != "faults":
        print(
            "--faults only applies to the 'faults' experiment",
            file=sys.stderr,
        )
        return 2
    profile = getattr(args, "profile", None)
    seeds = getattr(args, "seeds", None)
    workload = getattr(args, "workload", None)
    jobs = getattr(args, "jobs", None)
    checkpoint = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if (
        profile is not None
        or seeds is not None
        or workload is not None
        or jobs is not None
        or checkpoint is not None
        or resume
    ) and experiment != "chaos":
        print(
            "--profile/--seeds/--workload/--jobs/--checkpoint/"
            "--resume only apply to the 'chaos' experiment",
            file=sys.stderr,
        )
        return 2
    if resume and checkpoint is None:
        print(
            "--resume requires --checkpoint FILE (the journal to "
            "resume from)",
            file=sys.stderr,
        )
        return 2
    if jobs is not None and jobs < 1:
        print(
            f"--jobs must be a positive worker count, got {jobs}",
            file=sys.stderr,
        )
        return 2
    show_progress = bool(getattr(args, "progress", False))
    if show_progress and experiment != "chaos":
        print(
            "--progress only applies to the 'chaos' experiment",
            file=sys.stderr,
        )
        return 2
    trace_path = getattr(args, "trace", None)
    spans_path = getattr(args, "spans", None)
    if trace_path is None and spans_path is None and not show_progress:
        return _execute_run(
            args, experiment, runner, faults, profile, seeds,
            workload, jobs,
        )
    import contextlib

    # The progress renderer writes only to stderr, so stdout (the
    # golden experiment report) is byte-identical with or without it.
    progress = None
    if show_progress:
        from repro.telemetry.progress import make_progress_renderer

        progress = make_progress_renderer(sys.stderr)
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
        code = _execute_run(
            args, experiment, runner, faults, profile, seeds,
            workload, jobs, progress,
        )
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
        default=1,
        dest="fault_seed",
        help=(
            "seed for the fault schedule's deterministic noise "
            "(for 'chaos': the campaign generator's master seed)"
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
