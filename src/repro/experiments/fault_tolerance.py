"""Convergence under injected faults (robustness experiment).

The paper's evaluation runs DS2 against healthy jobs; a production
autoscaler also has to survive the failure modes of the telemetry and
reconfiguration machinery itself. This experiment replays one
deterministic fault campaign against the Heron wordcount benchmark
(section 5.2) for three controllers:

* **DS2 (hardened)** — the full scaling manager: completeness
  compensation, degraded-mode floor, stale-window guard, truncated
  window skipping, and loop-level retry with backoff.
* **DS2 (legacy)** — the same policy with every hardening flag off,
  reproducing the naive treatment of missing telemetry as missing
  load.
* **Dhalion** — the backpressure-driven baseline.

The default campaign:

1. ``rescale-fail@0`` — the first reconfiguration attempt is rejected
   (savepoint refused); the loop must retry with backoff and the job
   must never end up partially reconfigured.
2. ``dropout@420+180:source*0.5`` — half the source's metric reporters
   go silent for three minutes. The monitored source rate halves, which
   legacy DS2 reads as a halved workload (spurious scale-down, then a
   second outage scaling back up); hardened DS2 compensates and holds.
3. ``crash@810:flatmap`` — a worker loss mid-window: full
   savepoint-and-restart recovery outage, in-flight counters lost
   (truncated window). DS2 must return to steady state within a few
   decisions with no overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.runtimes import HeronRuntime
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.experiments.harness import (
    WORDCOUNT_INITIAL_PARALLELISM,
    ExperimentRun,
    campaign_engine_config,
    dhalion_controller,
    ds2_controller,
    run_controlled,
)
from repro.experiments.report import format_table
from repro.faults import (
    FaultSchedule,
    InstanceCrash,
    MetricDropout,
    RescaleFailure,
)
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    HERON_SOURCE_RATE,
    SOURCE,
    heron_wordcount_graph,
    heron_wordcount_optimum,
)

#: Fault times of the default campaign (virtual seconds).
RESCALE_FAILURE_AT = 0.0
DROPOUT_AT = 420.0
DROPOUT_SECONDS = 180.0
# Mid-window (policy interval 60 s); recovery redeploys once the
# outage ends, discarding in-flight counters — the window covering the
# restart is truncated.
CRASH_AT = 810.0


def default_fault_schedule(seed: int = 1) -> FaultSchedule:
    """The three-phase campaign described in the module docstring."""
    return FaultSchedule(
        [
            RescaleFailure(time=RESCALE_FAILURE_AT, mode="abort", count=1),
            MetricDropout(
                time=DROPOUT_AT,
                duration=DROPOUT_SECONDS,
                operator=SOURCE,
                fraction=0.5,
            ),
            InstanceCrash(time=CRASH_AT, operator=FLATMAP, index=0),
        ],
        seed=seed,
    )


@dataclass(frozen=True)
class FaultToleranceResult:
    """Outcome of one controller's run under the fault campaign."""

    controller: str
    hardened: bool
    run: ExperimentRun
    steps: int
    failed_rescales: int
    final_flatmap: int
    final_count: int
    target_rate: float
    achieved_rate: float

    @property
    def optimal_flatmap(self) -> int:
        return heron_wordcount_optimum()[FLATMAP]

    @property
    def optimal_count(self) -> int:
        return heron_wordcount_optimum()[COUNT]

    def min_parallelism_between(
        self, operator: str, start: float, end: float
    ) -> int:
        """Lowest parallelism sampled for ``operator`` in
        ``[start, end)`` — exposes a transient scale-down that the
        final configuration would hide."""
        series = self.run.parallelism[operator]
        chosen = [
            value
            for time, value in series
            if start <= time < end
        ]
        if not chosen:
            return self.run.final_parallelism[operator]
        return int(min(chosen))

    @property
    def held_through_dropout(self) -> bool:
        """True when neither scalable operator dipped below its
        pre-dropout parallelism during the dropout (the hardened
        behaviour; legacy DS2 scales the whole job down)."""
        end = DROPOUT_AT + DROPOUT_SECONDS + HERON_POLICY_INTERVAL
        before_fm = self.min_parallelism_between(
            FLATMAP, DROPOUT_AT - HERON_POLICY_INTERVAL, DROPOUT_AT
        )
        before_ct = self.min_parallelism_between(
            COUNT, DROPOUT_AT - HERON_POLICY_INTERVAL, DROPOUT_AT
        )
        return (
            self.min_parallelism_between(FLATMAP, DROPOUT_AT, end)
            >= before_fm
            and self.min_parallelism_between(COUNT, DROPOUT_AT, end)
            >= before_ct
        )


def _run(
    controller,
    controller_name: str,
    hardened: bool,
    duration: float,
    tick: float,
    schedule: FaultSchedule,
) -> FaultToleranceResult:
    run = run_controlled(
        graph=heron_wordcount_graph(),
        runtime=HeronRuntime(),
        initial_parallelism=WORDCOUNT_INITIAL_PARALLELISM,
        controller=controller,
        policy_interval=HERON_POLICY_INTERVAL,
        duration=duration,
        engine_config=campaign_engine_config(tick),
        fault_schedule=schedule,
    )
    return FaultToleranceResult(
        controller=controller_name,
        hardened=hardened,
        run=run,
        steps=len(run.loop_result.events),
        failed_rescales=len(run.loop_result.failed_rescales),
        final_flatmap=run.final_parallelism[FLATMAP],
        final_count=run.final_parallelism[COUNT],
        target_rate=HERON_SOURCE_RATE,
        achieved_rate=run.achieved_source_rate(SOURCE),
    )


def run_ds2_faults(
    duration: float = 1200.0,
    tick: float = 0.5,
    hardened: bool = True,
    schedule: Optional[FaultSchedule] = None,
) -> FaultToleranceResult:
    """DS2 (hardened or legacy) under the fault campaign."""
    return _run(
        ds2_controller(heron_wordcount_graph, hardened),
        "ds2" if hardened else "ds2-legacy",
        hardened,
        duration,
        tick,
        schedule if schedule is not None else default_fault_schedule(),
    )


def run_dhalion_faults(
    duration: float = 1200.0,
    tick: float = 0.5,
    schedule: Optional[FaultSchedule] = None,
) -> FaultToleranceResult:
    """Dhalion under the same fault campaign."""
    return _run(
        dhalion_controller(),
        "dhalion",
        False,
        duration,
        tick,
        schedule if schedule is not None else default_fault_schedule(),
    )


def run_fault_tolerance(
    duration: float = 1200.0,
    tick: float = 0.5,
    seed: int = 1,
    schedule: Optional[FaultSchedule] = None,
) -> List[FaultToleranceResult]:
    """All three controllers under one campaign (default: the
    built-in one, seeded with ``seed``)."""
    if schedule is None:
        schedule = default_fault_schedule(seed)
    return [
        run_ds2_faults(duration, tick, hardened=True, schedule=schedule),
        run_ds2_faults(duration, tick, hardened=False, schedule=schedule),
        run_dhalion_faults(duration, tick, schedule=schedule),
    ]


def fault_tolerance_report(
    results: List[FaultToleranceResult],
) -> str:
    """The experiment's summary table."""
    rows: List[Tuple[object, ...]] = []
    for result in results:
        rows.append(
            (
                result.controller,
                result.steps,
                result.failed_rescales,
                "yes" if result.held_through_dropout else "NO",
                f"{result.final_flatmap}/{result.final_count}",
                f"{result.optimal_flatmap}/{result.optimal_count}",
                f"{result.achieved_rate / result.target_rate:.2f}",
            )
        )
    return format_table(
        (
            "controller",
            "rescales",
            "failed",
            "held dropout",
            "final fm/ct",
            "optimal fm/ct",
            "rate ratio",
        ),
        rows,
        title="Convergence under faults (Heron wordcount)",
    )


__all__ = [
    "CRASH_AT",
    "DROPOUT_AT",
    "DROPOUT_SECONDS",
    "FaultToleranceResult",
    "default_fault_schedule",
    "fault_tolerance_report",
    "run_dhalion_faults",
    "run_ds2_faults",
    "run_fault_tolerance",
]
