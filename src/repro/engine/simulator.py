"""The streaming-engine simulator.

This is the substrate that stands in for Apache Flink / Timely / Heron:
a discrete-time *fluid* simulation of a physical dataflow. Virtual time
advances in small ticks; per tick, every operator instance receives a
time budget from the runtime's execution model and converts queued
records into output records at its per-record cost, limited by available
input, by its budget, and — for bounded-buffer runtimes — by free space
in downstream queues. That last limit is what creates backpressure, and
it propagates all the way to the sources exactly as in a credit-based
network stack.

The simulator accounts *useful time* (records processed times per-record
cost, covering deserialization + processing + serialization) and
*waiting time* (the rest of the tick) per instance, which is precisely
the instrumentation DS2 requires (paper section 4.1). Everything the
controller can observe flows out through the
:class:`~repro.engine.metrics_manager.MetricsManager`.

Processing order within a tick is reverse topological: sinks first,
sources last. Draining downstream queues first lets freed buffer space
propagate upstream within the same tick (backpressure releases quickly),
while emitted records land in queues that have already been processed
and are consumed on the next tick (one tick of pipeline delay per hop).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dataflow.graph import LogicalGraph
from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import StateModel
from repro.engine.latency import (
    EpochLatencyTracker,
    RecordLatencyTracker,
)
from repro.engine.metrics_manager import MetricsManager
from repro.engine.objects import ObjectEngine, _Instance
from repro.engine.runtimes import Runtime
from repro.errors import EngineError, ReconfigurationError
from repro.metrics import MetricsWindow, OperatorHealth
from repro.telemetry.spans import SpanProfiler, active_profiler
from repro.telemetry.tracer import Tracer, active_tracer


@dataclass(frozen=True)
class EngineConfig:
    """Tunable parameters of the simulation.

    Attributes:
        tick: Virtual seconds per simulation step.
        instrumentation_enabled: Whether the DS2 instrumentation is
            active; when on, every per-record cost is inflated by the
            runtime's ``instrumentation_overhead`` (used by the Figure 10
            overhead experiment).
        source_catchup_factor: When backpressure lifts, a source may
            drain its external backlog at up to this multiple of its
            target rate (external systems like Kafka buffer the data a
            blocked source could not emit). Values > 1 reproduce the
            above-target spikes visible in the paper's Figure 1.
        check_invariants: Verify queue-conservation invariants each tick
            (cheap, on by default).
        track_record_latency: Maintain the per-record latency
            distribution (Figure 8).
        epoch_seconds: When set, maintain per-epoch latency (Figure 9).
        cost_jitter: Relative amplitude of per-tick cost noise. Real
            per-record costs fluctuate (GC pauses, cache effects,
            record-size variance — section 4.2.2's "noisy metrics");
            with jitter ``j``, each operator's per-record cost is
            multiplied by a fresh uniform factor in ``[1-j, 1+j]``
            every tick. Deterministic given ``seed``.
        seed: PRNG seed for the cost-noise stream.
        trace_tick_every: When tracing is active, sample one
            ``engine.tick`` trace event every N ticks (1 = every tick).
            Sampling keeps the flight recorder's hot-path cost inside
            the telemetry overhead budget; rescale/outage/recovery
            events are never sampled away.
    """

    tick: float = 0.1
    instrumentation_enabled: bool = True
    source_catchup_factor: float = 2.0
    check_invariants: bool = True
    track_record_latency: bool = True
    epoch_seconds: Optional[float] = None
    cost_jitter: float = 0.0
    seed: int = 1
    trace_tick_every: int = 8

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN or infinite tick
        # would stall or never end run_for.
        if not 0.0 < self.tick < math.inf:
            raise EngineError(
                f"tick must be finite and > 0, got {self.tick!r}"
            )
        if not 1.0 <= self.source_catchup_factor < math.inf:
            raise EngineError(
                "source_catchup_factor must be finite and >= 1, got "
                f"{self.source_catchup_factor!r}"
            )
        if self.epoch_seconds is not None and not (
            0.0 < self.epoch_seconds < math.inf
        ):
            raise EngineError(
                "epoch_seconds must be finite and > 0, got "
                f"{self.epoch_seconds!r}"
            )
        if not 0.0 <= self.cost_jitter < 1.0:
            raise EngineError("cost_jitter must be in [0, 1)")
        # An int that is not a bool: the sampling test is
        # ``tick % trace_tick_every == 0``, which NaN never passes, inf
        # passes only at tick 0, and 2.5 passes every 5th tick.
        if (
            not isinstance(self.trace_tick_every, int)
            or isinstance(self.trace_tick_every, bool)
            or self.trace_tick_every < 1
        ):
            raise EngineError(
                "trace_tick_every must be an int >= 1, got "
                f"{self.trace_tick_every!r}"
            )


@dataclass(frozen=True)
class TickStats:
    """Per-tick observations surfaced to experiment harnesses.

    Per-operator queue lengths are left out because they cost a pass
    over every instance per tick; ask :meth:`Simulator.queue_length`
    when they are needed.
    """

    time: float
    source_emitted: Mapping[str, float]
    source_desired: Mapping[str, float]
    sink_consumed: Mapping[str, float]
    backpressured: Tuple[str, ...]
    in_outage: bool


class Simulator:
    """Simulates a physical dataflow under a runtime execution model."""

    def __init__(
        self,
        plan: PhysicalPlan,
        runtime: Runtime,
        config: Optional[EngineConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``tracer`` defaults to the ambient one (see
        :func:`repro.telemetry.tracing`) — a no-op unless a caller
        activated tracing."""
        self._plan = plan
        self._graph: LogicalGraph = plan.graph
        # Topology lookups the tick makes, resolved once.
        self._order = self._graph.topological_order()
        self._reverse_order = tuple(reversed(self._order))
        self._specs: Dict[str, OperatorSpec] = {
            name: self._graph.operator(name) for name in self._order
        }
        self._sources = self._graph.sources()
        self._sinks = self._graph.sinks()
        self._runtime = runtime
        self._config = config or EngineConfig()
        self._time = 0.0
        # Virtual time is derived from the tick count (time = n * dt)
        # rather than accumulated, so phase boundaries and window fires
        # land exactly where the schedule says — accumulated floating
        # point drift would shift them by a tick over long runs.
        self._tick_count = 0
        self._tracer = tracer if tracer is not None else active_tracer()
        self._profiler: SpanProfiler = active_profiler()
        self._metrics = MetricsManager(tracer=self._tracer)
        self._state = StateModel(graph=self._graph)
        # The engine holds the instance state (built by _deploy; until
        # then it carries nothing); everything else lives here.
        self._engine = ObjectEngine(self)
        # Per-deployment state (see _deploy): per-record costs before
        # this tick's noise, and demand-independent budgets per lane.
        self._unit_costs: Dict[str, float] = {}
        self._window_factors: Dict[str, Tuple[float, float, float]] = {}
        self._static_budgets: Optional[Dict[str, List[float]]] = None
        self._source_backlog: Dict[str, float] = {
            name: 0.0 for name in self._sources
        }
        self._outage_until: float = 0.0
        self._pending_plan: Optional[PhysicalPlan] = None
        self._rescale_count = 0
        self._crash_count = 0
        # Window-accumulated source emissions for observed-rate reporting.
        self._window_source_emitted: Dict[str, float] = {
            name: 0.0 for name in self._sources
        }
        # Window-accumulated seconds each operator spent backpressured.
        self._window_bp_seconds: Dict[str, float] = {
            name: 0.0 for name in self._graph.names
        }
        self._window_started = 0.0
        self._last_stats: Optional[TickStats] = None
        self._rng = random.Random(self._config.seed)
        # Per-operator cost-noise factors for the current tick.
        self._jitter: Dict[str, float] = {
            name: 1.0 for name in self._graph.names
        }
        self._record_latency: Optional[RecordLatencyTracker] = None
        if self._config.track_record_latency:
            self._record_latency = RecordLatencyTracker(
                self._graph, pipeline_hop_delay=self._config.tick / 2.0
            )
        self._epoch_latency: Optional[EpochLatencyTracker] = None
        if self._config.epoch_seconds is not None:
            self._epoch_latency = EpochLatencyTracker(
                self._graph, epoch_seconds=self._config.epoch_seconds
            )
        self._deploy(plan)
        if self._tracer.enabled:
            # Epoch marker: a new simulator starts a fresh virtual
            # clock, and the trace validator only accepts a time
            # regression at an engine.start record.
            self._tracer.emit(
                "engine.start",
                self._time,
                runtime=self._runtime.name,
                parallelism=dict(sorted(plan.parallelism.items())),
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def time(self) -> float:
        """Current virtual time in seconds."""
        return self._time

    @property
    def plan(self) -> PhysicalPlan:
        """The physical plan currently deployed."""
        return self._plan

    @property
    def runtime(self) -> Runtime:
        return self._runtime

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def graph(self) -> LogicalGraph:
        return self._graph

    @property
    def in_outage(self) -> bool:
        """True while the job is down for reconfiguration."""
        return self._time < self._outage_until

    @property
    def rescale_count(self) -> int:
        """Number of reconfigurations applied so far."""
        return self._rescale_count

    @property
    def crash_count(self) -> int:
        """Number of instance crashes injected so far."""
        return self._crash_count

    @property
    def metrics_manager(self) -> MetricsManager:
        """The instrumentation aggregator (fault injectors hook it to
        model metric dropout)."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The tracer this simulator emits events into."""
        return self._tracer

    @property
    def last_stats(self) -> Optional[TickStats]:
        """Observations from the most recent tick."""
        return self._last_stats

    @property
    def record_latency(self) -> Optional[RecordLatencyTracker]:
        return self._record_latency

    @property
    def epoch_latency(self) -> Optional[EpochLatencyTracker]:
        return self._epoch_latency

    @property
    def state_model(self) -> StateModel:
        return self._state

    @property
    def _instances(self) -> Dict[str, List[_Instance]]:
        """Per-operator instance objects, one per instance.

        A read-only materialization of the engine's state: per-instance
        snapshots of its lanes (mutations do not flow back). Kept for
        tests and debugging tools that inspect per-port queues.
        """
        return self._engine.materialize_instances()

    def source_target_rates(self) -> Dict[str, float]:
        """Target (schedule) rate of each source at the current time —
        the externally monitored source rates DS2 uses as λ_src."""
        rates: Dict[str, float] = {}
        for name in self._sources:
            schedule = self._specs[name].rate
            assert schedule is not None
            rates[name] = schedule.rate_at(self._time)
        return rates

    def source_backlog(self, source: str) -> float:
        """Records the external system buffered while the source was
        blocked (or the job was down)."""
        try:
            return self._source_backlog[source]
        except KeyError:
            raise EngineError(f"unknown source {source!r}") from None

    def total_queued_records(self) -> float:
        """Records queued anywhere inside the dataflow."""
        return self._engine.total_queued()

    def _require_operator(self, operator: str) -> None:
        if operator not in self._specs:
            raise EngineError(f"unknown operator {operator!r}")

    def queue_length(self, operator: str) -> float:
        """Total records queued at an operator (all instances)."""
        self._require_operator(operator)
        return self._engine.queue_length(operator)

    def pending_records(self, operator: Optional[str] = None) -> float:
        """Records pending inside the dataflow: queued at the ports
        plus window buffers and fire backlogs. With ``operator`` the
        aggregation covers that operator's instances; without it, the
        whole dataflow (``total_queued_records``)."""
        if operator is None:
            return self.total_queued_records()
        return self.queue_length(operator)

    def max_fill_fraction(self, operator: str) -> float:
        """Worst input-buffer occupancy across the operator's
        instances, in [0, 1] (0 for unbounded or portless queues)."""
        self._require_operator(operator)
        return self._engine.max_fill(operator)

    def utilization(self, operator: str) -> float:
        """Useful-time fraction of the operator since the last metrics
        collection (see :meth:`MetricsManager.utilization`)."""
        return self._metrics.utilization(operator)

    def backpressured_operators(self) -> Tuple[str, ...]:
        """Operators whose queues crossed the runtime's backpressure
        threshold (the coarse signal Dhalion-style controllers use)."""
        return self._engine.backpressured()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def collect_metrics(self) -> MetricsWindow:
        """Collect the instrumentation window accumulated since the last
        collection (what the MetricsManager reports to the repository)."""
        duration = self._time - self._window_started
        source_rates: Dict[str, float] = {}
        for name, emitted in self._window_source_emitted.items():
            source_rates[name] = emitted / duration if duration > 0 else 0.0
        health: Dict[str, OperatorHealth] = {}
        backpressured = set(self.backpressured_operators())
        for name in self._order:
            bp_fraction = (
                min(1.0, self._window_bp_seconds[name] / duration)
                if duration > 0
                else 0.0
            )
            health[name] = OperatorHealth(
                queue_fill=self.max_fill_fraction(name),
                backpressure=name in backpressured,
                pending_records=self.queue_length(name),
                backpressure_fraction=bp_fraction,
            )
        window = self._metrics.collect(
            health=health, source_observed_rates=source_rates
        )
        self._window_source_emitted = {
            name: 0.0 for name in self._sources
        }
        self._window_bp_seconds = {
            name: 0.0 for name in self._graph.names
        }
        self._window_started = self._time
        return window

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------

    def rescale(self, updates: Mapping[str, int]) -> float:
        """Request a new parallelism for the given operators.

        Returns the outage duration in seconds (0 if the request is a
        no-op). The mechanism mirrors Flink's stop-with-savepoint: the
        job halts for ``savepoint + redeploy`` seconds during which the
        sources accumulate external backlog; queued records survive the
        restart.
        """
        if self.in_outage:
            raise ReconfigurationError(
                "cannot rescale while a reconfiguration is in flight"
            )
        new_plan = self._plan.clamped(updates)
        if new_plan.parallelism == self._plan.parallelism:
            return 0.0
        outage = self._runtime.savepoint_model().outage_seconds(
            self._state.total_bytes
        )
        self._pending_plan = new_plan
        self._outage_until = self._time + outage
        self._rescale_count += 1
        if self._tracer.enabled:
            self._tracer.emit(
                "engine.rescale",
                self._time,
                requested=dict(updates),
                parallelism=dict(new_plan.parallelism),
                outage=outage,
            )
        if outage == 0.0:
            self._deploy(new_plan)
            self._pending_plan = None
        return outage

    def force_outage(self, seconds: float) -> None:
        """Halt the job for ``seconds`` without changing the plan.

        Models failures that cost a restart but leave the configuration
        untouched (crash recovery, a reconfiguration that timed out and
        fell back to the old plan). Sources accumulate external backlog
        during the halt; every instance restarts at the end, so the
        in-flight instrumentation counters of the current window are
        lost and the window is flagged truncated. Overlapping outages
        extend rather than stack: the job is simply down until the
        latest end time.
        """
        # NaN fails the test too; an infinite outage is allowed.
        if not seconds >= 0:
            raise EngineError(f"seconds must be >= 0, got {seconds!r}")
        if seconds == 0:
            return
        if self._pending_plan is None:
            self._pending_plan = self._plan
        self._outage_until = max(
            self._outage_until, self._time + seconds
        )
        if self._tracer.enabled:
            self._tracer.emit(
                "engine.outage",
                self._time,
                seconds=seconds,
                until=self._outage_until,
            )

    def fail_instance(self, operator: str, index: int = 0) -> float:
        """Crash one operator instance (a TaskManager/worker loss).

        The outage is charged by the runtime's
        :class:`~repro.engine.recovery.RecoveryModel`: a full
        savepoint restore proportional to total state on Flink, a peer
        re-sync of the failed worker's shard on Timely, a container
        restart on Heron. The job halts for that outage, then every
        instance restarts from the last consistent snapshot with
        queued records intact. If a reconfiguration is already in
        flight, the crash extends its outage and the pending plan still
        applies at the end. Returns the recovery outage in seconds.
        """
        if operator not in self._plan.parallelism:
            raise EngineError(f"unknown operator {operator!r}")
        parallelism = self._plan.parallelism_of(operator)
        if not 0 <= index < parallelism:
            raise EngineError(
                f"unknown instance {operator!r} index {index} "
                f"(parallelism {parallelism})"
            )
        outage = self._runtime.recovery_model().outage_seconds(
            self._state.snapshot(), self._plan.parallelism, operator
        )
        self._crash_count += 1
        if self._tracer.enabled:
            self._tracer.emit(
                "engine.recovery",
                self._time,
                operator=operator,
                index=index,
                outage=outage,
            )
        if outage > 0:
            self.force_outage(outage)
        else:
            # Zero-cost recovery model: the restart is instantaneous
            # but still loses the in-flight counters.
            self._deploy(self._plan)
        return outage

    def _deploy(self, plan: PhysicalPlan) -> None:
        """(Re)build instance state for ``plan``, preserving in-flight
        records and window buffers from the previous deployment, and
        resolve everything a tick needs that only the plan decides.

        The old instance state is reduced to a
        :data:`~repro.engine.objects.Carry` and spread over the new
        plan's lanes. Everything else (metrics manager, state model,
        source backlogs, latency trackers, the jitter RNG) lives here."""
        carried = self._engine.carry()
        self._plan = plan
        self._cache_costs(plan)
        self._engine.deploy(plan, carried)
        self._metrics.register_instances(plan.all_instances())
        self._static_budgets = None
        if not self._runtime.demand_driven:
            self._static_budgets = self._engine.grant(
                self._runtime.budgets(plan, {}, self._config.tick)
            )

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def _cost_multiplier(self) -> float:
        if self._config.instrumentation_enabled:
            return 1.0 + self._runtime.instrumentation_overhead
        return 1.0

    def _refresh_jitter(self) -> None:
        """Draw this tick's per-operator cost-noise factors."""
        amplitude = self._config.cost_jitter
        if amplitude <= 0:
            return
        for name in self._jitter:
            self._jitter[name] = 1.0 + self._rng.uniform(
                -amplitude, amplitude
            )

    def _cache_costs(self, plan: PhysicalPlan) -> None:
        """Per-record costs of ``plan`` without this tick's noise: the
        parts of :meth:`_unit_cost`, :meth:`_window_costs` and
        :meth:`_source_cost` that only change on a redeploy."""
        multiplier = self._cost_multiplier()
        self._unit_costs = {}
        self._window_factors = {}
        for name, spec in self._specs.items():
            parallelism = plan.parallelism_of(name)
            if spec.is_source:
                self._unit_costs[name] = spec.costs.base_cost * multiplier
            elif spec.window is not None:
                window = spec.window
                coordination = 1.0 + spec.costs.coordination_alpha * (
                    parallelism - 1
                )
                self._window_factors[name] = (
                    coordination * multiplier,
                    spec.costs.base_cost
                    + window.replication * window.assign_cost,
                    window.fire_cost,
                )
            else:
                cost = spec.costs.effective_cost(parallelism)
                if spec.rate_limit is not None:
                    cost = max(cost, 1.0 / spec.rate_limit)
                self._unit_costs[name] = cost * multiplier

    def _source_cost(self, name: str) -> float:
        """Per-record cost of generating a source record (no noise)."""
        return self._unit_costs[name]

    def _unit_cost(self, name: str) -> float:
        """Per-record useful-time cost for regular (non-window)
        processing, including coordination overhead, rate limits,
        instrumentation overhead, and this tick's cost noise."""
        return self._unit_costs[name] * self._jitter[name]

    def _window_costs(self, name: str) -> Tuple[float, float]:
        """(assign_cost_per_input_record, fire_cost_per_buffered_record)
        for a window operator."""
        scale, assign, fire = self._window_factors[name]
        multiplier = scale * self._jitter[name]
        return assign * multiplier, fire * multiplier

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self) -> TickStats:
        """Advance virtual time by one tick."""
        dt = self._config.tick
        profiled = self._profiler.enabled
        if profiled:
            self._profiler.enter("engine.tick")
        try:
            if self.in_outage:
                stats = self._outage_tick(dt)
            else:
                stats = self._active_tick(dt)
        finally:
            if profiled:
                self._profiler.exit("engine.tick")
        self._last_stats = stats
        tracer = self._tracer
        if (
            tracer.enabled
            and self._tick_count % self._config.trace_tick_every == 0
        ):
            queued = sum(
                self.queue_length(name) for name in self._graph.names
            )
            tracer.emit(
                "engine.tick",
                self._time,
                queued=round(queued, 6),
                backpressured=len(stats.backpressured),
                outage=stats.in_outage,
            )
        return stats

    def run_for(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``."""
        if not 0.0 <= seconds < math.inf:
            raise EngineError(
                f"seconds must be finite and >= 0, got {seconds!r}"
            )
        target = self._time + seconds
        while self._time < target - 1e-9:
            self.step()

    def run_until(self, time: float) -> None:
        """Advance virtual time up to ``time``."""
        if not math.isfinite(time):
            raise EngineError(f"time must be finite, got {time!r}")
        if time < self._time:
            raise EngineError("cannot run backwards in time")
        self.run_for(time - self._time)

    def _outage_tick(self, dt: float) -> TickStats:
        """One tick while the job is down for reconfiguration: nothing
        processes; sources accumulate external backlog."""
        desired: Dict[str, float] = {}
        for name in self._sources:
            schedule = self._specs[name].rate
            assert schedule is not None
            rate = schedule.rate_at(self._time)
            desired[name] = rate * dt
            self._source_backlog[name] += rate * dt
        self._metrics.advance(dt, outage=True)
        self._tick_count += 1
        self._time = self._tick_count * dt
        if self._time >= self._outage_until - 1e-9 and self._pending_plan:
            self._deploy(self._pending_plan)
            self._pending_plan = None
        if self._epoch_latency is not None:
            self._epoch_latency.observe_tick(
                now=self._time, source_emitted={}, sink_consumed={}
            )
        return TickStats(
            time=self._time,
            source_emitted={name: 0.0 for name in desired},
            source_desired=desired,
            sink_consumed={name: 0.0 for name in self._sinks},
            backpressured=self.backpressured_operators(),
            in_outage=True,
        )

    def _active_tick(self, dt: float) -> TickStats:
        self._refresh_jitter()
        engine = self._engine
        profiled = self._profiler.enabled
        if profiled:
            self._profiler.enter("engine.allocate")
        try:
            budgets = self._static_budgets
            if budgets is None:
                budgets = engine.grant(
                    self._runtime.budgets(
                        self._plan, engine.estimate_demands(dt), dt
                    )
                )
        finally:
            if profiled:
                self._profiler.exit("engine.allocate")
        source_emitted: Dict[str, float] = {}
        source_desired: Dict[str, float] = {}
        sink_consumed: Dict[str, float] = {
            name: 0.0 for name in self._sinks
        }
        end_time = self._time + dt
        for name in self._reverse_order:
            spec = self._specs[name]
            if spec.is_source:
                emitted, desired = engine.run_source(
                    name, spec, budgets[name], dt
                )
                source_emitted[name] = emitted
                source_desired[name] = desired
                self._window_source_emitted[name] += emitted
            else:
                consumed = engine.run_operator(
                    name, spec, budgets[name], end_time
                )
                if spec.is_sink:
                    sink_consumed[name] = consumed
        self._observe_latency(dt, source_emitted, sink_consumed)
        backpressured = self.backpressured_operators()
        for name in backpressured:
            self._window_bp_seconds[name] += dt
        self._metrics.advance(dt)
        self._tick_count += 1
        self._time = self._tick_count * dt
        if self._config.check_invariants:
            engine.check_invariants()
        return TickStats(
            time=self._time,
            source_emitted=source_emitted,
            source_desired=source_desired,
            sink_consumed=sink_consumed,
            backpressured=backpressured,
            in_outage=False,
        )

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------

    def _observe_latency(
        self,
        dt: float,
        source_emitted: Mapping[str, float],
        sink_consumed: Mapping[str, float],
    ) -> None:
        if self._record_latency is not None:
            self._record_latency.observe_tick(
                operator_delays=self._engine.operator_delays(),
                sink_consumed=sink_consumed,
            )
        if self._epoch_latency is not None:
            self._epoch_latency.observe_tick(
                now=self._time + dt,
                source_emitted=source_emitted,
                sink_consumed=sink_consumed,
            )


__all__ = ["EngineConfig", "Simulator", "TickStats"]
