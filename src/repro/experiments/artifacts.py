"""The registry of the paper's artifacts: one entry per table or figure.

Each :class:`Artifact` pairs a ``run(scale, **flags)`` that computes
the result with a pure ``render(result)`` that formats it. ``repro run
<id>`` and the ``benchmarks/`` emitters both go through the registry,
so ``repro run <id>`` at scale 1 prints exactly the committed
``benchmarks/output/<output>.txt``.

Every experiment module is imported inside the ``run``/``render`` that
needs it, so importing this registry (and ``repro.cli``) stays cheap,
and callables are looked up on their modules at call time, so a
wrapper installed on, say, ``convergence.format_table4`` sees the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.report import (
    format_rate,
    format_steps,
    format_table,
    latency_summary,
)


@dataclass(frozen=True)
class Artifact:
    """One reproducible table or figure.

    Attributes:
        id: The ``repro run`` id.
        output: File stem of the committed artifact under
            ``benchmarks/output/``.
        description: What it reproduces (``repro list-experiments``).
        run: ``run(scale, **flags) -> result``. Scale 1 is the
            committed artifact's setting; smaller scales shorten or
            coarsen the run.
        render: ``render(result) -> str``, the artifact's text.
        flags: ``repro run`` options (argparse dests) the entry takes
            beyond ``--scale``, ``--trace`` and ``--spans``; each one
            set on the command line is passed to ``run`` as a keyword.
        invalid_input: Message prefix for a
            :class:`~repro.errors.FaultInjectionError` raised by
            ``run`` (a malformed fault spec or campaign).
    """

    id: str
    output: str
    description: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    flags: Tuple[str, ...] = ()
    invalid_input: Optional[str] = None


# §5.2: DS2 vs Dhalion on the Heron wordcount (Figures 1 and 6)

def _run_fig1(scale: float) -> Any:
    from repro.experiments.comparison import run_dhalion

    return run_dhalion(duration=3600.0 * scale, tick=0.5)


def _render_fig1(result: Any) -> str:
    from repro.experiments.comparison import source_rate_series

    # Downsample to one row per 2 minutes for the report.
    rows = []
    next_time = 0.0
    for time, rate in source_rate_series(result):
        if time >= next_time:
            bar = "#" * int(30 * min(1.0, rate / result.target_rate))
            rows.append((f"{time:7.0f}", format_rate(rate), bar))
            next_time += 120.0
    return format_table(
        ("time (s)", "observed source rate", ""),
        rows,
        title=(
            "Figure 1: source rate under Dhalion "
            f"(target {format_rate(result.target_rate)}/s, "
            f"{result.steps} scaling decisions, converged at "
            f"t={result.convergence_time:.0f}s)"
        ),
    )


def _run_fig6(scale: float) -> Any:
    from repro.experiments.comparison import run_dhalion, run_ds2

    return (
        run_dhalion(duration=3600.0 * scale, tick=0.5),
        run_ds2(duration=max(300.0, 420.0 * scale), tick=0.5),
    )


def _render_fig6(results: Any) -> str:
    from repro.workloads.wordcount import COUNT, FLATMAP

    rows = []
    for result in results:
        for event in result.run.loop_result.events:
            rows.append((
                result.controller,
                f"{event.time:7.0f}",
                event.applied[FLATMAP],
                event.applied[COUNT],
            ))
    timeline = format_table(
        ("controller", "time (s)", "flatmap", "count"),
        rows,
        title="Figure 6: parallelism over time (scaling events)",
    )
    summary = format_table(
        (
            "controller", "steps", "converged (s)",
            "final flatmap (opt 10)", "final count (opt 20)",
            "overprovisioning",
        ),
        [
            (
                r.controller,
                r.steps,
                f"{r.convergence_time:.0f}",
                r.final_flatmap,
                r.final_count,
                f"{r.overprovisioning_factor:.2f}x",
            )
            for r in results
        ],
        title="Section 5.2 summary",
    )
    return timeline + "\n\n" + summary


# §5.3: dynamic scaling on Flink (Figure 7)

def _run_fig7(scale: float) -> Any:
    from repro.experiments.dynamic import run_dynamic_scaling

    return run_dynamic_scaling(phase_seconds=600.0 * scale, tick=0.25)


def _render_fig7(result: Any) -> str:
    from repro.workloads.wordcount import COUNT, FLATMAP

    phase = result.phase_seconds
    rows = [
        (
            f"{event.time:7.1f}",
            event.applied[FLATMAP],
            event.applied[COUNT],
            f"{event.outage_seconds:.0f}",
        )
        for event in result.run.loop_result.events
    ]
    timeline = format_table(
        ("time (s)", "flatmap", "count", "outage (s)"),
        rows,
        title=(
            f"Figure 7: scaling actions (phase 1: 2M rec/s for "
            f"{phase:.0f} s; phase 2: 1M rec/s)"
        ),
    )
    # Steady-state achieved rates: the last 100 s of each phase.
    source = result.run.source_rate["source"]
    phase1_rate = source.window_mean(phase - 100.0, phase)
    phase2_rate = source.window_mean(2 * phase - 100.0, 2 * phase)
    summary = format_table(
        ("phase", "steps", "final flatmap", "final count",
         "steady source rate"),
        [
            ("1 (2M rec/s)", result.phase1_steps,
             result.phase1_final[FLATMAP], result.phase1_final[COUNT],
             format_rate(phase1_rate)),
            ("2 (1M rec/s)", result.phase2_steps,
             result.final[FLATMAP], result.final[COUNT],
             format_rate(phase2_rate)),
        ],
    )
    return timeline + "\n\n" + summary


# §5.4: convergence steps (Table 4 and its Timely counterpart)

def _run_table4(scale: float) -> Any:
    from repro.experiments import convergence

    return convergence.run_table4(duration=1500.0 * scale, tick=0.25)


def _render_table4(cells: Any) -> str:
    from repro.experiments import convergence

    return convergence.format_table4(cells)


def _run_table4_timely(scale: float) -> Any:
    from repro.experiments.convergence import run_timely_table4

    return run_timely_table4(duration=900.0 * scale, tick=0.25)


def _render_table4_timely(cells: Any) -> str:
    return format_table(
        ("query", "initial workers", "steps", "final"),
        [
            (name, initial, format_steps(cell.steps), cell.final)
            for (name, initial), cell in sorted(cells.items())
        ],
        title="Table 4 (Timely counterpart): global worker count",
    )


# §5.5: accuracy (Figures 8 and 9) and §5.6: overhead (Figure 10)

def _run_fig8(scale: float) -> Any:
    from repro.experiments.accuracy import run_figure8
    from repro.workloads.nexmark import ALL_QUERIES

    return {
        query.name: run_figure8(
            query,
            offsets=(-4, -2, 0, +4),
            duration=240.0 * scale,
            tick=0.25,
            convergence_duration=1200.0 * scale,
        )
        for query in ALL_QUERIES
    }


def _render_fig8(results: Any) -> str:
    rows = []
    for name, points in results.items():
        for p in points:
            rows.append((
                name,
                f"{p.main_parallelism}"
                + (" <- indicated" if p.is_indicated else ""),
                format_rate(p.achieved_rate),
                format_rate(p.target_rate),
                "yes" if p.backpressured else "no",
                latency_summary(p.latency),
            ))
    return format_table(
        ("query", "parallelism", "achieved", "target",
         "backpressure", "per-record latency"),
        rows,
        title="Figure 8: source rates and latency vs parallelism",
    )


def _run_fig9(scale: float) -> Any:
    from repro.experiments.accuracy import FIGURE9_QUERIES, run_figure9

    return {
        query.name: run_figure9(
            query, worker_counts=(2, 3, 4, 6),
            duration=max(60.0, 120.0 * scale), tick=0.1,
        )
        for query in FIGURE9_QUERIES
    }


def _render_fig9(results: Any) -> str:
    rows = []
    for name, points in results.items():
        for p in points:
            dist = p.epoch_latency
            rows.append((
                name,
                f"{p.workers}" + (" <- indicated" if p.is_indicated
                                  else ""),
                f"{dist.median():.2f}" if len(dist) else "inf",
                f"{dist.quantile(0.99):.2f}" if len(dist) else "inf",
                f"{p.fraction_above_target:.0%}",
            ))
    return format_table(
        ("query", "workers", "epoch p50 (s)", "epoch p99 (s)",
         "epochs > 1 s"),
        rows,
        title="Figure 9: per-epoch latency vs global worker count",
    )


def _run_fig10(scale: float) -> Any:
    from repro.experiments.overhead import run_figure10

    return run_figure10(
        flink_duration=240.0 * scale,
        timely_duration=120.0 * scale,
        convergence_duration=1200.0 * scale,
    )


def _render_fig10(points: Any) -> str:
    return format_table(
        ("query", "runtime", "vanilla p50 (ms)", "instr p50 (ms)",
         "overhead"),
        [
            (
                p.query,
                p.runtime,
                f"{p.vanilla_median * 1000:.1f}",
                f"{p.instrumented_median * 1000:.1f}",
                f"{p.relative_overhead:+.0%}",
            )
            for p in points
        ],
        title="Figure 10: instrumentation overhead (vanilla vs instr)",
    )


# §4.2.3: data skew

def _run_skew(scale: float) -> Any:
    from repro.experiments.skew_experiment import run_skew_experiment

    return run_skew_experiment(
        duration=max(300.0, 600.0 * scale), tick=0.25
    )


def _render_skew(results: Any) -> str:
    return format_table(
        ("skew", "steps", "final (flatmap, count)",
         "no-skew optimum", "achieved/target", "frozen"),
        [
            (
                f"{r.skew:.0%}",
                r.steps,
                f"({r.final_flatmap}, {r.final_count})",
                f"({r.noskew_flatmap}, {r.noskew_count})",
                f"{r.achieved_rate / r.target_rate:.0%}",
                "yes" if r.frozen else "no",
            )
            for r in results
        ],
        title="Section 4.2.3: DS2 under data skew",
    )


# Robustness extensions: injected faults and chaos campaigns

def _run_faults(
    scale: float, faults: Optional[str] = None, fault_seed: int = 1
) -> Any:
    from repro.experiments.fault_tolerance import run_fault_tolerance
    from repro.faults import parse_faults

    # The campaign's fault times are absolute, so the duration stays
    # fixed; --scale below 1 coarsens the tick instead.
    return run_fault_tolerance(
        tick=0.5 if scale >= 1.0 else 1.0,
        seed=fault_seed,
        schedule=None if faults is None else parse_faults(
            faults, seed=fault_seed
        ),
    )


def _render_faults(results: Any) -> str:
    from repro.experiments.fault_tolerance import fault_tolerance_report

    return fault_tolerance_report(results)


def _run_chaos(
    scale: float,
    seeds: Optional[int] = None,
    fault_seed: int = 1,
    **options: Any,
) -> Any:
    """``options``: ``run_chaos``'s own keywords (``profile``,
    ``workload``, ``jobs``, ``checkpoint``, ``resume``, ``progress``)."""
    from repro.experiments import chaos

    if seeds is not None:
        options["campaigns"] = seeds
    # Campaign durations are baked into the profile; --scale below 1
    # coarsens the tick instead (as with 'faults').
    return chaos.run_chaos(
        seed=fault_seed, tick=1.0 if scale >= 1.0 else 2.0, **options
    )


def _render_chaos(result: Any) -> str:
    from repro.experiments import chaos

    return chaos.chaos_report(result)


#: Every artifact, in the paper's order, keyed by its ``repro run`` id.
ARTIFACTS: Dict[str, Artifact] = {
    entry.id: entry
    for entry in (
        Artifact("fig1", "fig1_dhalion_source_rate",
                 "Dhalion's source rate over its scaling steps (Fig. 1)",
                 _run_fig1, _render_fig1),
        Artifact("fig6", "fig6_ds2_vs_dhalion",
                 "DS2 vs Dhalion on Heron wordcount (§5.2)",
                 _run_fig6, _render_fig6),
        Artifact("fig7", "fig7_flink_dynamic",
                 "dynamic scaling on Flink wordcount (§5.3)",
                 _run_fig7, _render_fig7),
        Artifact("fig8", "fig8_flink_accuracy",
                 "Flink rates and latency vs parallelism (§5.5)",
                 _run_fig8, _render_fig8),
        Artifact("fig9", "fig9_timely_accuracy",
                 "Timely epoch-latency accuracy (§5.5)",
                 _run_fig9, _render_fig9),
        Artifact("fig10", "fig10_overhead",
                 "instrumentation overhead on Flink and Timely (§5.6)",
                 _run_fig10, _render_fig10),
        Artifact("table4", "table4_convergence",
                 "Nexmark convergence sweep (§5.4)",
                 _run_table4, _render_table4),
        Artifact("table4-timely", "table4_timely",
                 "Nexmark convergence on Timely, global workers (§5.4)",
                 _run_table4_timely, _render_table4_timely),
        Artifact("skew", "skew_experiment",
                 "DS2 under data skew (§4.2.3)",
                 _run_skew, _render_skew),
        Artifact("faults", "fault_tolerance",
                 "convergence under injected faults (robustness)",
                 _run_faults, _render_faults,
                 flags=("faults", "fault_seed"),
                 invalid_input="invalid fault spec"),
        Artifact("chaos", "chaos_scorecards",
                 "seeded chaos campaigns with SASO scorecards (robustness)",
                 _run_chaos, _render_chaos,
                 flags=("profile", "seeds", "fault_seed", "workload",
                        "jobs", "checkpoint", "resume", "progress"),
                 invalid_input="invalid chaos campaign"),
    )
}

#: Accepted spellings of artifact ids.
ALIASES = {"fault_tolerance": "faults", "fault-tolerance": "faults"}

__all__ = ["ALIASES", "ARTIFACTS", "Artifact"]
