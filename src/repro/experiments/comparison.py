"""DS2 vs Dhalion on Heron wordcount (Figures 1 and 6, section 5.2).

The benchmark from the Dhalion paper: a three-stage wordcount whose
source produces 1M sentences/minute with rate-limited FlatMap (100K
sentences/min/instance) and Count (1M words/min/instance) operators,
started under-provisioned at one instance per operator.

* Figure 1 plots the observed source rate over time under Dhalion: it
  climbs toward the target in many steps, with dips during
  redeployments and overshoot spikes while backlog drains.
* Figure 6 plots FlatMap/Count parallelism over time for both
  controllers: Dhalion takes many single-operator speculative steps to
  an over-provisioned configuration; DS2 identifies the optimal
  10 FlatMap / 20 Count in a single step from one 60-second window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.engine.runtimes import HeronRuntime
from repro.experiments.harness import (
    ExperimentRun,
    campaign_engine_config,
    dhalion_controller,
    ds2_controller,
    run_controlled,
)
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    HERON_SOURCE_RATE,
    SOURCE,
    heron_wordcount_graph,
    heron_wordcount_optimum,
)

#: Paper's §5.2 controller settings.
HERON_POLICY_INTERVAL = 60.0


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one controller's run on the Heron wordcount."""

    controller: str
    run: ExperimentRun
    steps: int
    convergence_time: float
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

    @property
    def overprovisioning_factor(self) -> float:
        """Provisioned instances relative to the known optimum."""
        optimal = self.optimal_flatmap + self.optimal_count
        return (self.final_flatmap + self.final_count) / optimal


def _run(
    controller,
    controller_name: str,
    duration: float,
    tick: float,
) -> ComparisonResult:
    graph = heron_wordcount_graph()
    run = run_controlled(
        graph=graph,
        runtime=HeronRuntime(),
        initial_parallelism={name: 1 for name in graph.names},
        controller=controller,
        policy_interval=HERON_POLICY_INTERVAL,
        duration=duration,
        engine_config=campaign_engine_config(tick),
    )
    events = run.loop_result.events
    convergence_time = events[-1].time if events else 0.0
    return ComparisonResult(
        controller=controller_name,
        run=run,
        steps=len(events),
        convergence_time=convergence_time,
        final_flatmap=run.final_parallelism[FLATMAP],
        final_count=run.final_parallelism[COUNT],
        target_rate=HERON_SOURCE_RATE,
        achieved_rate=run.achieved_source_rate(SOURCE),
    )


def run_dhalion(
    duration: float = 4000.0, tick: float = 0.5
) -> ComparisonResult:
    """Dhalion on the Heron wordcount (Figure 1 / Figure 6 left)."""
    return _run(
        dhalion_controller(),
        "dhalion",
        duration,
        tick,
    )


def run_ds2(
    duration: float = 600.0, tick: float = 0.5
) -> ComparisonResult:
    """DS2 on the Heron wordcount (§5.2: 60 s interval, no warm-up,
    one-interval activation, target ratio 1.0)."""
    return _run(
        ds2_controller(heron_wordcount_graph), "ds2", duration, tick
    )


def source_rate_series(
    result: ComparisonResult,
) -> List[Tuple[float, float]]:
    """The Figure 1 series: observed source rate over time."""
    return list(result.run.source_rate[SOURCE])


def parallelism_series(
    result: ComparisonResult,
) -> Dict[str, List[Tuple[float, float]]]:
    """The Figure 6 series: FlatMap and Count parallelism over time."""
    return {
        FLATMAP: list(result.run.parallelism[FLATMAP]),
        COUNT: list(result.run.parallelism[COUNT]),
    }


__all__ = [
    "ComparisonResult",
    "HERON_POLICY_INTERVAL",
    "parallelism_series",
    "run_dhalion",
    "run_ds2",
    "source_rate_series",
]
