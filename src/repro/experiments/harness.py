"""Shared experiment machinery.

:func:`run_controlled` wires a workload graph, a runtime, and a
controller into a :class:`~repro.core.controller.ControlLoop`, runs it
for a given duration, and captures the time series the paper's figures
are drawn from: observed source rate over time, per-operator
parallelism over time, scaling events, and latency distributions.

The contender vocabulary of the robustness experiments (the faults
experiment, chaos campaigns, sweeps) lives here too: the DS2 and
Dhalion controller factories, their engine settings, the runtime
table, and the starting configurations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.baselines import DhalionConfig, DhalionController
from repro.core.controller import Controller, ControlLoop, LoopResult
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy, ExecutionModel
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalPlan
from repro.engine.latency import LatencyDistribution
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    Runtime,
    TimelyRuntime,
)
from repro.engine.simulator import EngineConfig, Simulator, TickStats
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.workloads.wordcount import COUNT, FLATMAP, SINK, SOURCE


@dataclass
class TimeSeries:
    """A sampled (time, value) series."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        if not self.values:
            raise ReproError("empty time series")
        return sum(self.values) / len(self.values)

    def last(self) -> float:
        if not self.values:
            raise ReproError("empty time series")
        return self.values[-1]

    def window_mean(self, start: float, end: float) -> float:
        """Mean value over samples with start <= time < end."""
        chosen = [
            v for t, v in zip(self.times, self.values) if start <= t < end
        ]
        if not chosen:
            raise ReproError(f"no samples in [{start}, {end})")
        return sum(chosen) / len(chosen)


@dataclass
class ExperimentRun:
    """Everything captured from one controlled run."""

    loop_result: LoopResult
    source_rate: Dict[str, TimeSeries]
    parallelism: Dict[str, TimeSeries]
    final_parallelism: Dict[str, int]
    record_latency: Optional[LatencyDistribution]
    epoch_latency: Optional[LatencyDistribution]
    simulator: Simulator
    #: Present when the run was fault-injected.
    injector: Optional[FaultInjector] = None

    @property
    def scaling_steps(self) -> int:
        return self.loop_result.scaling_steps

    def main_parallelism_steps(self, operator: str) -> List[int]:
        """The sequence of parallelism values applied to ``operator``
        (one entry per scaling event that changed it)."""
        steps: List[int] = []
        for event in self.loop_result.events:
            value = event.applied.get(operator)
            if value is not None and (not steps or steps[-1] != value):
                steps.append(value)
        return steps

    def converged_parallelism(self, operator: str) -> int:
        return self.final_parallelism[operator]

    def achieved_source_rate(
        self, source: str, tail_seconds: float = 60.0
    ) -> float:
        """Mean observed rate of ``source`` over the run's last
        ``tail_seconds`` (the post-convergence steady state)."""
        series = self.source_rate[source]
        if not series.times:
            raise ReproError("no source-rate samples captured")
        end = series.times[-1]
        return series.window_mean(max(0.0, end - tail_seconds), end + 1e-9)


def run_controlled(
    graph: LogicalGraph,
    runtime: Runtime,
    initial_parallelism: Mapping[str, int],
    controller: Controller,
    policy_interval: float,
    duration: float,
    engine_config: Optional[EngineConfig] = None,
    plan: Optional[PhysicalPlan] = None,
    max_parallelism: Optional[int] = None,
    scalable_operators: Optional[Tuple[str, ...]] = None,
    sample_every: int = 4,
    fault_schedule: Optional[FaultSchedule] = None,
) -> ExperimentRun:
    """Run ``controller`` against ``graph`` on ``runtime``.

    Args:
        graph: The workload's logical dataflow.
        runtime: Execution model (Flink-, Timely-, or Heron-style).
        initial_parallelism: Starting parallelism per operator
            (ignored when an explicit ``plan`` is given).
        controller: The scaling controller under test.
        policy_interval: Seconds between policy invocations.
        duration: Virtual seconds to run.
        engine_config: Engine parameters (tick size etc.).
        plan: Optional pre-built physical plan (e.g. with a skewed
            partitioner).
        max_parallelism: Slot limit for the plan built from
            ``initial_parallelism``.
        scalable_operators: Operators the loop may rescale (defaults to
            the graph's data-parallel non-source/sink operators).
        sample_every: Capture one time-series sample every N ticks.
        fault_schedule: Optional fault schedule; when given, the
            simulator is wrapped in a
            :class:`~repro.faults.injector.FaultInjector` and the loop
            runs against the shim (the control path is otherwise
            unchanged).
    """
    if plan is None:
        plan = PhysicalPlan(
            graph=graph,
            parallelism=dict(initial_parallelism),
            max_parallelism=max_parallelism,
        )
    config = engine_config or EngineConfig()
    simulator = Simulator(plan=plan, runtime=runtime, config=config)
    injector: Optional[FaultInjector] = None
    job = simulator
    if fault_schedule is not None:
        injector = FaultInjector(simulator, fault_schedule)
        job = injector

    source_rate: Dict[str, TimeSeries] = {
        name: TimeSeries() for name in graph.sources()
    }
    parallelism: Dict[str, TimeSeries] = {
        name: TimeSeries() for name in graph.names
    }
    tick_counter = [0]

    def observer(stats: TickStats) -> None:
        tick_counter[0] += 1
        if tick_counter[0] % sample_every:
            return
        for name, emitted in stats.source_emitted.items():
            source_rate[name].append(stats.time, emitted / config.tick)
        current = simulator.plan.parallelism
        for name, value in current.items():
            parallelism[name].append(stats.time, float(value))

    loop = ControlLoop(
        simulator=job,
        controller=controller,
        policy_interval=policy_interval,
        scalable_operators=scalable_operators,
        tick_observer=observer,
    )
    result = loop.run(duration)
    return ExperimentRun(
        loop_result=result,
        source_rate=source_rate,
        parallelism=parallelism,
        final_parallelism=simulator.plan.parallelism,
        record_latency=(
            simulator.record_latency.distribution
            if simulator.record_latency is not None
            else None
        ),
        epoch_latency=(
            simulator.epoch_latency.distribution
            if simulator.epoch_latency is not None
            else None
        ),
        simulator=simulator,
        injector=injector,
    )


# ----------------------------------------------------------------------
# Robustness contenders and their settings
# ----------------------------------------------------------------------

#: Runtime factories by name, in the crash-recovery replay's fold order.
RUNTIMES: Dict[str, Callable[[], Runtime]] = {
    "flink": FlinkRuntime,
    "timely": TimelyRuntime,
    "heron": HeronRuntime,
}

#: Starting parallelism of the Heron wordcount robustness runs. The
#: source runs two instances so a 50% reporter dropout resolves to one
#: whole silenced reporter.
WORDCOUNT_INITIAL_PARALLELISM: Mapping[str, int] = {
    SOURCE: 2,
    FLATMAP: 1,
    COUNT: 1,
    SINK: 1,
}

#: Timely workers per operator at the start of a global-scaling run
#: (under the paper's 4-worker optimum, so the controller must act).
TIMELY_INITIAL_WORKERS = 2


def campaign_engine_config(tick: float) -> EngineConfig:
    """Engine settings of every robustness run: no per-record latency
    tracking, and sources drain backlog at up to 1.3x their rate."""
    return EngineConfig(
        tick=tick,
        track_record_latency=False,
        source_catchup_factor=1.3,
    )


def ds2_controller(
    graph_source: Callable[[], LogicalGraph],
    hardened: bool = True,
    model: ExecutionModel = ExecutionModel.PER_OPERATOR,
) -> DS2Controller:
    """DS2 on the graph ``graph_source()`` builds, with the paper's
    §5.2 manager settings: no warm-up, one-interval activation, target
    ratio 1.0.

    ``hardened`` keeps completeness compensation, the degraded-mode
    floor and the stale-window guard; False turns them off, reproducing
    the legacy treatment of missing telemetry as missing load. A
    :func:`functools.partial` over this function pickles whenever its
    arguments do, so cell specs can carry it to pool workers.
    """
    config = ManagerConfig(
        warmup_intervals=0, activation_intervals=1, target_ratio=1.0
    )
    if not hardened:
        config = dataclasses.replace(
            config,
            completeness_compensation=False,
            min_completeness=0.0,
            max_window_age_intervals=None,
        )
    return DS2Controller(
        DS2Policy(
            graph_source(),
            execution_model=model,
            completeness_scaling=hardened,
        ),
        config,
    )


def dhalion_controller() -> DhalionController:
    """Dhalion, the backpressure-driven baseline, at its defaults."""
    return DhalionController(DhalionConfig())


def contenders(
    graph_source: Callable[[], LogicalGraph],
    model: ExecutionModel = ExecutionModel.PER_OPERATOR,
) -> Dict[str, Callable[[], Controller]]:
    """Fresh-instance factories for the robustness contenders, in cell
    order: hardened DS2 (``ds2``), legacy DS2 (``ds2-legacy``) and,
    under per-operator execution only, Dhalion (``dhalion``): its
    backpressure heuristic has no global-scaling analogue."""
    factories: Dict[str, Callable[[], Controller]] = {
        "ds2": partial(ds2_controller, graph_source, True, model),
        "ds2-legacy": partial(ds2_controller, graph_source, False, model),
    }
    if model is ExecutionModel.PER_OPERATOR:
        factories["dhalion"] = dhalion_controller
    return factories


__all__ = [
    "ExperimentRun",
    "RUNTIMES",
    "TIMELY_INITIAL_WORKERS",
    "TimeSeries",
    "WORDCOUNT_INITIAL_PARALLELISM",
    "campaign_engine_config",
    "contenders",
    "dhalion_controller",
    "ds2_controller",
    "run_controlled",
]
