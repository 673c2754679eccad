"""Per-instance engine backend (the ``object`` engine).

One :class:`_Instance` per operator instance and per-instance Python
loops: the reference semantics, cheapest on narrow plans, and no numpy
needed. :class:`ObjectEngine` answers the same methods as its peer
:class:`~repro.engine.vectorized.VectorEngine`, which replays its
float64 operations one for one (see ``docs/engine.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import fair_allocate
from repro.engine.buffers import Queue
from repro.engine.vectorized import Carry
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator


@dataclass
class _Instance:
    """Mutable runtime state of one operator instance.

    Input records arrive through per-port queues, one per upstream
    operator — as with Flink's per-channel network buffers, a flooding
    input fills its own buffers and backpressures its own producer
    without crowding out the other inputs of a join. Sources have no
    ports.
    """

    iid: InstanceId
    spec: OperatorSpec
    ports: Dict[str, Queue]
    window: Optional[WindowState] = None
    fire_backlog: float = 0.0

    @property
    def total_queue_length(self) -> float:
        """Records queued across all input ports."""
        return sum(queue.length for queue in self.ports.values())

    @property
    def max_fill_fraction(self) -> float:
        """Worst port occupancy (0 for unbounded/portless)."""
        if not self.ports:
            return 0.0
        return max(queue.fill_fraction for queue in self.ports.values())

    @property
    def pending_records(self) -> float:
        extra = self.fire_backlog
        if self.window is not None:
            extra += self.window.buffered
        return self.total_queue_length + extra

    def pop_records(self, amount: float, total: float) -> float:
        """Remove up to ``amount`` records, drawing from each port in
        proportion to its backlog (the scheduler polls all inputs);
        returns the amount actually removed. ``total`` is the current
        :attr:`total_queue_length`, which the caller already holds."""
        if amount <= 0 or total <= 0:
            return 0.0
        if amount >= total:
            return sum(queue.drain() for queue in self.ports.values())
        popped = 0.0
        for queue in self.ports.values():
            share = amount * (queue.length / total)
            popped += queue.pop(share)
        return popped


#: Output targets of one operator: (downstream port queue, input
#: weight, downstream instance) for every downstream instance that
#: receives records.
_Routes = List[Tuple[Queue, float, InstanceId]]


class ObjectEngine:
    """The per-instance tick loop behind ``backend="object"``: a
    friend object of :class:`~repro.engine.simulator.Simulator`, which
    keeps the state both engines share and drives this one per tick."""

    #: The metrics manager's row layout this engine writes (per-row
    #: float lists, see :meth:`MetricsManager.register_instances`).
    metric_blocks = False

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._graph = sim.graph
        # Every operator in topological order.
        self._specs = sim._specs
        self._metrics = sim.metrics_manager
        self._state = sim.state_model
        self._profiler = sim._profiler
        self._dt = sim.config.tick
        self._instances: Dict[str, List[_Instance]] = {}
        # Per deployment: each operator's first metrics row, the
        # targets of its output, and the input queues of every bounded
        # operator with ports.
        self._rows: Dict[str, int] = {}
        self._routes: Dict[str, _Routes] = {}
        self._bounded: List[Tuple[str, Tuple[Queue, ...]]] = []

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def carry(self) -> Carry:
        """The instance state reduced to carried totals (see
        :data:`~repro.engine.vectorized.Carry`), summed instance by
        instance (empty before the first deployment)."""
        carried: Carry = {}
        for name, instances in self._instances.items():
            per_port: Dict[str, float] = {}
            for inst in instances:
                for port, queue in inst.ports.items():
                    per_port[port] = per_port.get(port, 0.0) + queue.length
            buffered = 0.0
            backlog = 0.0
            for inst in instances:
                if inst.window is not None:
                    buffered += inst.window.buffered
                backlog += inst.fire_backlog
            carried[name] = (per_port, buffered, backlog)
        return carried

    def deploy(self, plan: PhysicalPlan, carried: Carry) -> None:
        """Build the instances for ``plan`` from the ``carried`` totals
        of the previous deployment (empty on the first)."""
        runtime = self._sim.runtime
        self._instances = {}
        self._rows = {}
        row = 0
        for name, spec in self._specs.items():
            parallelism = plan.parallelism_of(name)
            capacity = runtime.queue_capacity(spec, parallelism)
            weights = plan.input_weights(name)
            ports = self._graph.upstream(name)
            queued_by_port, buffered, backlog = carried.get(
                name, ({}, 0.0, 0.0)
            )
            instances: List[_Instance] = []
            for index, iid in enumerate(plan.instances(name)):
                instance = _Instance(
                    iid=iid,
                    spec=spec,
                    ports={
                        port: Queue(capacity=capacity) for port in ports
                    },
                )
                if spec.window is not None:
                    instance.window = WindowState(spec=spec.window)
                    instance.window.reset(self._sim.time)
                    instance.window.buffered = buffered * weights[index]
                for port in ports:
                    instance.ports[port].force_push(
                        queued_by_port.get(port, 0.0) * weights[index]
                    )
                instance.fire_backlog = backlog * weights[index]
                instances.append(instance)
            self._instances[name] = instances
            self._rows[name] = row
            row += parallelism
        # Zero-weight instances receive nothing and bound nothing.
        self._routes = {
            name: [
                (inst.ports[name], weight, inst.iid)
                for downstream in self._graph.downstream(name)
                for inst, weight in zip(
                    self._instances[downstream],
                    plan.input_weights(downstream),
                )
                if weight > 0
            ]
            for name in self._specs
        }
        self._bounded = [
            (name, tuple(q for i in instances for q in i.ports.values()))
            for name, instances in self._instances.items()
            if instances[0].ports
            and next(iter(instances[0].ports.values())).bounded
        ]

    def grant(
        self, budgets: Dict[str, List[float]]
    ) -> Dict[str, List[float]]:
        """The runtime's per-operator budget lists, as this engine's
        tick reads them (unchanged)."""
        return budgets

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def queue_length(self, name: str) -> float:
        """Total pending records at an operator (all instances)."""
        return sum(i.pending_records for i in self._instances[name])

    def total_queued(self) -> float:
        """Records queued anywhere inside the dataflow."""
        return sum(
            inst.pending_records
            for instances in self._instances.values()
            for inst in instances
        )

    def max_fill(self, name: str) -> float:
        """Worst port occupancy across the operator's instances."""
        return max(inst.max_fill_fraction for inst in self._instances[name])

    def backpressured(self) -> Tuple[str, ...]:
        """Operators with a bounded port at or above the runtime's
        backpressure threshold, in topological order."""
        threshold = self._sim.runtime.backpressure_threshold
        return tuple(
            name
            for name, queues in self._bounded
            if any(queue.fill_fraction >= threshold for queue in queues)
        )

    def check_invariants(self) -> None:
        """Queue conservation and non-negative fire backlogs."""
        for instances in self._instances.values():
            for inst in instances:
                for queue in inst.ports.values():
                    queue.check_conservation()
                if inst.fire_backlog < -1e-6:
                    raise EngineError(
                        f"negative fire backlog at {inst.iid}"
                    )

    def materialize_instances(self) -> Dict[str, List[_Instance]]:
        """The live per-operator instances (mutations are the
        simulation's own state)."""
        return self._instances

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def _work(self, name: str, instances: List[_Instance]) -> List[float]:
        """Seconds of pending work per instance of a non-source
        operator: queue totals times the per-record cost, plus fire
        backlog times the fire cost at a window operator."""
        sim = self._sim
        if self._specs[name].window is not None:
            assign_cost, fire_cost = sim._window_costs(name)
            return [
                inst.total_queue_length * assign_cost
                + inst.fire_backlog * fire_cost
                for inst in instances
            ]
        cost = sim._unit_cost(name)
        return [inst.total_queue_length * cost for inst in instances]

    def estimate_demands(self, dt: float) -> Dict[str, List[float]]:
        """Seconds of pending work per instance, one list per operator
        in topological order (for shared-worker budget allocation)."""
        sim = self._sim
        demands: Dict[str, List[float]] = {}
        for name, instances in self._instances.items():
            spec = self._specs[name]
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                per_instance = (
                    rate * dt + sim._source_backlog[name]
                ) / len(instances)
                cost = sim._source_cost(name)
                demands[name] = [per_instance * max(cost, 1e-9)] * len(
                    instances
                )
            else:
                demands[name] = self._work(name, instances)
        return demands

    def operator_delays(self) -> Dict[str, float]:
        """Per-operator drain delays for the record-latency tracker."""
        sim = self._sim
        delays: Dict[str, float] = {}
        for name, instances in self._instances.items():
            spec = self._specs[name]
            if spec.is_source:
                # Source delay: time to drain external backlog.
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                backlog = sim._source_backlog[name]
                delays[name] = backlog / rate if rate > 0 else 0.0
                continue
            per_instance = self._work(name, instances)
            delays[name] = max(per_instance) if per_instance else 0.0
        return delays

    def record_metrics(self, dt: float) -> None:
        """Nothing to do: each instance recorded its row as it ran."""

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _downstream_limit(routes: _Routes) -> float:
        """Maximum records an operator may emit right now without
        overflowing any downstream instance queue (inf if unbounded)."""
        limit = math.inf
        for queue, weight, _ in routes:
            limit = min(limit, queue.free_space / weight)
        return limit

    @staticmethod
    def _emit(routes: _Routes, records: float) -> None:
        """Distribute ``records`` output records of one operator
        instance across all downstream instance queues."""
        if records <= 0:
            return
        for queue, weight, iid in routes:
            amount = records * weight
            if queue.push(amount) < amount - 1e-6:
                raise EngineError(
                    f"emission overflow into {iid}: the "
                    "downstream limit computation is inconsistent"
                )

    # ------------------------------------------------------------------
    # Tick work
    # ------------------------------------------------------------------

    def run_source(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: Sequence[float],
        dt: float,
    ) -> Tuple[float, float]:
        """Generate and emit source records; returns (emitted, desired)."""
        sim = self._sim
        schedule = spec.rate
        assert schedule is not None
        rate = schedule.rate_at(sim.time)
        desired = rate * dt
        available = desired + sim._source_backlog[name]
        cap = desired * sim.config.source_catchup_factor
        want = min(available, max(cap, desired))
        routes = self._routes[name]
        if sim.runtime.sources_blocked_by_backpressure:
            space = self._downstream_limit(routes)
        else:
            space = math.inf
        cost = sim._source_cost(name)
        # Each source instance generates an equal share of the stream;
        # the shared downstream space is divided fairly among them.
        share = want / len(budgets)
        desires = []
        for budget in budgets:
            by_budget = math.inf if cost <= 0 else budget / cost
            desires.append(min(share, by_budget))
        allocations = fair_allocate(space, desires)
        record = self._metrics.record_row
        row = self._rows[name]
        emitted_total = 0.0
        for index, emit in enumerate(allocations):
            self._emit(routes, emit)
            useful = min(emit * cost, dt)
            record(row + index, emit, emit, useful, max(0.0, dt - useful))
            emitted_total += emit
        sim._source_backlog[name] = max(
            0.0, available - emitted_total
        )
        return emitted_total, desired

    def run_operator(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: Sequence[float],
        end_time: float,
    ) -> float:
        """Run one non-source operator for a tick; returns records
        consumed (meaningful for sinks)."""
        dt = self._dt
        instances = self._instances[name]
        routes = self._routes[name]
        # Shared downstream space for this operator's emissions this
        # tick, in output records; divided fairly among the instances
        # so that a squeezed instance does not distort the
        # backpressure limit seen by upstream operators.
        if spec.is_sink:
            space = math.inf
        else:
            space = self._downstream_limit(routes)
        # Nothing refills this operator's queues before it runs: its
        # upstream operators come later in the (reverse topological)
        # tick order.
        totals = [inst.total_queue_length for inst in instances]
        if spec.window is not None:
            profiled = self._profiler.enabled
            if profiled:
                self._profiler.enter("engine.window_fire")
            try:
                return self._run_window(
                    name, spec, instances, totals, budgets, dt,
                    end_time, space,
                )
            finally:
                if profiled:
                    self._profiler.exit("engine.window_fire")
        # Regular (non-window) operator.
        unit_cost = self._sim._unit_cost(name)
        selectivity = spec.selectivity.ratio
        desires = []
        for total, budget in zip(totals, budgets):
            by_budget = math.inf if unit_cost <= 0 else budget / unit_cost
            desires.append(min(total, by_budget))
        pull_cap = (
            math.inf if selectivity <= 0 else space / selectivity
        )
        allocations = fair_allocate(pull_cap, desires)
        record = self._metrics.record_row
        row = self._rows[name]
        consumed_total = 0.0
        processed_all = []
        for index, (inst, allowed) in enumerate(
            zip(instances, allocations)
        ):
            processed = inst.pop_records(allowed, totals[index])
            emit = processed * selectivity
            pushed = 0.0
            if not spec.is_sink and emit > 0:
                self._emit(routes, emit)
                pushed = emit
            useful = min(processed * unit_cost, dt)
            record(
                row + index,
                processed,
                pushed,
                useful,
                max(0.0, dt - useful),
            )
            processed_all.append(processed)
            consumed_total += processed
        self._state.record_processed_block(name, processed_all)
        return consumed_total

    def _run_window(
        self,
        name: str,
        spec: OperatorSpec,
        instances: List[_Instance],
        totals: List[float],
        budgets: Sequence[float],
        dt: float,
        end_time: float,
        space: float,
    ) -> float:
        window_spec = spec.window
        assert window_spec is not None
        parallelism = len(instances)
        routes = self._routes[name]
        assign_cost, fire_cost = self._sim._window_costs(name)
        fire_sel = window_spec.fire_selectivity
        budgets_left = list(budgets)
        useful_acc = [0.0] * parallelism
        pushed_acc = [0.0] * parallelism
        pulled_acc = [0.0] * parallelism
        # Fire work and assignment work share each instance's budget
        # proportionally to their demands (the scheduler interleaves
        # them); a fire-first priority would let a large fire backlog
        # starve input reading entirely, collapsing throughput instead
        # of degrading it.
        fire_budget = [0.0] * parallelism
        for index, inst in enumerate(instances):
            fire_demand = inst.fire_backlog * fire_cost
            assign_demand = totals[index] * assign_cost
            total_demand = fire_demand + assign_demand
            if total_demand <= 0:
                continue
            share = min(1.0, fire_demand / total_demand)
            fire_budget[index] = budgets_left[index] * share
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        fire_desires = []
        for inst, budget in zip(instances, fire_budget):
            by_budget = math.inf if fire_cost <= 0 else budget / fire_cost
            fire_desires.append(min(inst.fire_backlog, by_budget))
        fire_cap = math.inf if fire_sel <= 0 else space / fire_sel
        fired_alloc = fair_allocate(fire_cap, fire_desires)
        for index, (inst, fired) in enumerate(zip(instances, fired_alloc)):
            if fired <= 0:
                continue
            inst.fire_backlog -= fired
            emit = fired * fire_sel
            self._emit(routes, emit)
            useful_acc[index] += fired * fire_cost
            pushed_acc[index] += emit
            budgets_left[index] = max(
                0.0, budgets_left[index] - fired * fire_cost
            )
        # Stage 2: assign newly arrived records to windows (no
        # emission, so no space constraint). Firing popped nothing, so
        # the queue totals are unchanged.
        for index, inst in enumerate(instances):
            by_budget = (
                math.inf
                if assign_cost <= 0
                else budgets_left[index] / assign_cost
            )
            assigned = inst.pop_records(
                min(totals[index], by_budget), totals[index]
            )
            assert inst.window is not None
            inst.window.buffered += assigned * window_spec.replication
            useful_acc[index] += assigned * assign_cost
            pulled_acc[index] += assigned
            # Stage 3: check window boundaries.
            released, _fires = inst.window.maybe_fire(end_time)
            inst.fire_backlog += released
        record = self._metrics.record_row
        row = self._rows[name]
        consumed_total = 0.0
        for index in range(parallelism):
            useful = min(useful_acc[index], dt)
            record(
                row + index,
                pulled_acc[index],
                pushed_acc[index],
                useful,
                max(0.0, dt - useful),
            )
            consumed_total += pulled_acc[index]
        self._state.record_processed_block(name, pulled_acc)
        return consumed_total


__all__ = ["ObjectEngine"]
