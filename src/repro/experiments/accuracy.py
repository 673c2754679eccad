"""Accuracy experiments (Figure 8 and Figure 9, section 5.5).

Figure 8 (Flink-style): for each Nexmark query, run fixed
configurations around the DS2-indicated parallelism of the main
operator and record (a) the observed source rate and (b) the
per-record latency distribution. The indicated configuration is the
lowest parallelism that sustains the full source rate; lower
parallelism causes backpressure (depressed source rate, exploding
latency) and higher parallelism wastes resources without improving
latency.

Figure 9 (Timely-style): per-epoch latency CDFs for different global
worker counts; the DS2-indicated worker count (4) is the minimum that
keeps 1 s of data processed in under 1 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.dataflow.physical import PhysicalPlan
from repro.engine.latency import LatencyDistribution
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ReproError
from repro.experiments.harness import run_controlled
from repro.workloads.nexmark import ALL_QUERIES, NexmarkQuery


@dataclass(frozen=True)
class AccuracyPoint:
    """One fixed-configuration measurement."""

    query: str
    main_parallelism: int
    is_indicated: bool
    target_rate: float
    achieved_rate: float
    backpressured: bool
    latency: LatencyDistribution

    @property
    def sustains_target(self) -> bool:
        """Whether the configuration keeps up with the sources
        (within 2% measurement tolerance)."""
        return self.achieved_rate >= 0.98 * self.target_rate


def converged_flink_plan(
    query: NexmarkQuery,
    duration: float = 1200.0,
    tick: float = 0.25,
) -> Dict[str, int]:
    """The full converged configuration for a query (all operators),
    obtained by running DS2 to convergence once."""
    graph = query.flink_graph()
    controller = DS2Controller(
        DS2Policy(graph),
        ManagerConfig(warmup_intervals=1, activation_intervals=5),
    )
    run = run_controlled(
        graph=graph,
        runtime=FlinkRuntime(),
        initial_parallelism=query.initial_parallelism(graph, 12),
        controller=controller,
        policy_interval=30.0,
        duration=duration,
        max_parallelism=36,
        engine_config=EngineConfig(tick=tick, track_record_latency=False),
    )
    return dict(run.final_parallelism)


def measure_fixed_flink(
    query: NexmarkQuery,
    base_plan: Dict[str, int],
    main_parallelism: int,
    duration: float = 300.0,
    tick: float = 0.25,
) -> AccuracyPoint:
    """Run a fixed configuration (no controller) and measure rate and
    per-record latency."""
    graph = query.flink_graph()
    parallelism = dict(base_plan)
    parallelism[query.main_operator] = max(1, main_parallelism)
    plan = PhysicalPlan(graph, parallelism, max_parallelism=64)
    simulator = Simulator(
        plan=plan,
        runtime=FlinkRuntime(),
        config=EngineConfig(tick=tick, track_record_latency=True),
    )
    simulator.run_for(duration)
    window = simulator.collect_metrics()
    achieved = sum(window.source_observed_rates.values())
    target = sum(simulator.source_target_rates().values())
    assert simulator.record_latency is not None
    return AccuracyPoint(
        query=query.name,
        main_parallelism=parallelism[query.main_operator],
        is_indicated=(
            parallelism[query.main_operator]
            == base_plan[query.main_operator]
        ),
        target_rate=target,
        achieved_rate=achieved,
        backpressured=bool(simulator.backpressured_operators()),
        latency=simulator.record_latency.distribution,
    )


def run_figure8(
    query: NexmarkQuery,
    offsets: Sequence[int] = (-4, -2, 0, +4),
    duration: float = 300.0,
    tick: float = 0.25,
    convergence_duration: float = 1200.0,
) -> List[AccuracyPoint]:
    """The Figure 8 sweep for one query: configurations around the
    DS2-indicated parallelism of the main operator."""
    base_plan = converged_flink_plan(
        query, duration=convergence_duration, tick=tick
    )
    indicated = base_plan[query.main_operator]
    points: List[AccuracyPoint] = []
    for offset in offsets:
        value = indicated + offset
        if value < 1:
            continue
        points.append(
            measure_fixed_flink(
                query, base_plan, value, duration=duration, tick=tick
            )
        )
    return points


@dataclass(frozen=True)
class EpochAccuracyPoint:
    """One Figure 9 measurement: a fixed Timely worker count."""

    query: str
    workers: int
    is_indicated: bool
    epoch_latency: LatencyDistribution
    fraction_above_target: float


def measure_fixed_timely(
    query: NexmarkQuery,
    workers: int,
    duration: float = 120.0,
    tick: float = 0.1,
    epoch_seconds: float = 1.0,
) -> EpochAccuracyPoint:
    """Run a fixed Timely worker count and measure per-epoch latency."""
    if workers < 1:
        raise ReproError("workers must be >= 1")
    graph = query.timely_graph()
    plan = PhysicalPlan(graph, {name: workers for name in graph.names})
    simulator = Simulator(
        plan=plan,
        runtime=TimelyRuntime(),
        config=EngineConfig(
            tick=tick,
            track_record_latency=False,
            epoch_seconds=epoch_seconds,
        ),
    )
    simulator.run_for(duration)
    assert simulator.epoch_latency is not None
    distribution = simulator.epoch_latency.distribution
    return EpochAccuracyPoint(
        query=query.name,
        workers=workers,
        is_indicated=(workers == query.indicated_timely),
        epoch_latency=distribution,
        fraction_above_target=(
            distribution.fraction_above(epoch_seconds)
            if len(distribution)
            else 1.0
        ),
    )


def run_figure9(
    query: NexmarkQuery,
    worker_counts: Sequence[int] = (2, 3, 4, 6),
    duration: float = 120.0,
    tick: float = 0.1,
) -> List[EpochAccuracyPoint]:
    """The Figure 9 sweep for one query (paper shows Q3, Q5, Q11)."""
    return [
        measure_fixed_timely(query, workers, duration=duration, tick=tick)
        for workers in worker_counts
    ]


#: The queries Figure 9 plots.
FIGURE9_QUERIES = tuple(
    q for q in ALL_QUERIES if q.name in ("Q3", "Q5", "Q11")
)


__all__ = [
    "AccuracyPoint",
    "EpochAccuracyPoint",
    "FIGURE9_QUERIES",
    "converged_flink_plan",
    "measure_fixed_flink",
    "measure_fixed_timely",
    "run_figure8",
    "run_figure9",
]
