"""Instrumentation overhead (Figure 10, section 5.6).

Each Nexmark query runs at its DS2-indicated configuration twice: once
with the DS2 instrumentation disabled (*vanilla*) and once enabled
(*instr*), using the smallest decision interval of the paper (10 s,
the worst case for aggregation overhead). The figure compares latency
between the two; the paper measures at most 13% overhead on Flink and
at most 20% on Timely (Heron needs no extra instrumentation at all).

In the simulator the instrumentation cost is an explicit per-record
multiplier on every operator (8% Flink-style, 15% Timely-style), so
this experiment verifies that the end-to-end latency penalty stays in
the paper's envelope rather than re-measuring a constant: queueing
amplifies or hides per-record costs depending on headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dataflow.physical import PhysicalPlan
from repro.engine.latency import LatencyDistribution
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.experiments.accuracy import converged_flink_plan
from repro.workloads.nexmark import ALL_QUERIES, NexmarkQuery


@dataclass(frozen=True)
class OverheadPoint:
    """Vanilla-vs-instrumented latency for one query on one runtime."""

    query: str
    runtime: str
    vanilla_median: float
    instrumented_median: float

    @property
    def absolute_overhead(self) -> float:
        """Median latency increase in seconds."""
        return self.instrumented_median - self.vanilla_median

    @property
    def relative_overhead(self) -> float:
        """Median latency increase as a fraction of vanilla."""
        if self.vanilla_median <= 0:
            return 0.0
        return self.absolute_overhead / self.vanilla_median


def _flink_latency(
    query: NexmarkQuery,
    parallelism: Dict[str, int],
    instrumented: bool,
    duration: float,
    tick: float,
) -> LatencyDistribution:
    graph = query.flink_graph()
    plan = PhysicalPlan(graph, parallelism, max_parallelism=64)
    simulator = Simulator(
        plan=plan,
        runtime=FlinkRuntime(),
        config=EngineConfig(
            tick=tick,
            instrumentation_enabled=instrumented,
            track_record_latency=True,
        ),
    )
    simulator.run_for(duration)
    assert simulator.record_latency is not None
    return simulator.record_latency.distribution

def _timely_latency(
    query: NexmarkQuery,
    workers: int,
    instrumented: bool,
    duration: float,
    tick: float,
) -> LatencyDistribution:
    graph = query.timely_graph()
    plan = PhysicalPlan(graph, {name: workers for name in graph.names})
    simulator = Simulator(
        plan=plan,
        runtime=TimelyRuntime(),
        config=EngineConfig(
            tick=tick,
            instrumentation_enabled=instrumented,
            track_record_latency=False,
            epoch_seconds=1.0,
        ),
    )
    simulator.run_for(duration)
    assert simulator.epoch_latency is not None
    return simulator.epoch_latency.distribution


def measure_flink_overhead(
    query: NexmarkQuery,
    duration: float = 300.0,
    tick: float = 0.25,
    convergence_duration: float = 1200.0,
    base_plan: Optional[Dict[str, int]] = None,
) -> OverheadPoint:
    """Figure 10a: one query's vanilla-vs-instr per-record latency."""
    plan = base_plan or converged_flink_plan(
        query, duration=convergence_duration, tick=tick
    )
    vanilla = _flink_latency(query, plan, False, duration, tick)
    instrumented = _flink_latency(query, plan, True, duration, tick)
    return OverheadPoint(
        query=query.name,
        runtime="flink",
        vanilla_median=vanilla.median(),
        instrumented_median=instrumented.median(),
    )


def measure_timely_overhead(
    query: NexmarkQuery,
    duration: float = 120.0,
    tick: float = 0.1,
) -> OverheadPoint:
    """Figure 10b: one query's vanilla-vs-instr per-epoch latency."""
    workers = query.indicated_timely
    vanilla = _timely_latency(query, workers, False, duration, tick)
    instrumented = _timely_latency(query, workers, True, duration, tick)
    return OverheadPoint(
        query=query.name,
        runtime="timely",
        vanilla_median=vanilla.median(),
        instrumented_median=instrumented.median(),
    )


def run_figure10(
    queries: Sequence[NexmarkQuery] = ALL_QUERIES,
    flink_duration: float = 300.0,
    timely_duration: float = 120.0,
    convergence_duration: float = 1200.0,
) -> List[OverheadPoint]:
    """The full Figure 10 sweep (both runtimes, all queries)."""
    points: List[OverheadPoint] = []
    for query in queries:
        points.append(
            measure_flink_overhead(
                query,
                duration=flink_duration,
                convergence_duration=convergence_duration,
            )
        )
        points.append(
            measure_timely_overhead(query, duration=timely_duration)
        )
    return points


__all__ = [
    "OverheadPoint",
    "measure_flink_overhead",
    "measure_timely_overhead",
    "run_figure10",
]
