"""The engine's tick loop (:class:`ObjectEngine`).

Python objects and loops, no third-party dependencies. The engine steps
*lanes*: a lane is one :class:`_Instance` with ``count`` = the length
of a maximal run of consecutive instances whose input weights
(:meth:`~repro.dataflow.physical.PhysicalPlan.input_weights`) are equal
(:func:`lane_runs`). Instances of a run start every deployment equal,
receive equal input and get equal budgets, so they stay equal tick
after tick (``docs/performance.md`` gives the argument), and one of them
stands for all. An evenly partitioned operator is one lane; a skewed
one (a hot instance, then instances sharing the rest evenly) is two.
Each step whose result depends on the order of instances — a
water-fill, the pushes into a downstream queue, a sum — is replayed
``count`` times in instance order, so a lane is bit for bit the
instances it stands for. The replay is one call per lane (a counted
:meth:`~repro.engine.buffers.Queue.push`, ``fair_allocate`` and state
update), a tight loop over floats rather than a Python call per
instance, and a lane's metrics rows are one shared list.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import fair_allocate
from repro.engine.buffers import Queue
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator


#: Carried state of a deployment, per operator: records queued per
#: input port, window-buffered records, and fire backlog, each summed
#: over the instances in index order. A redeploy reduces instance state
#: to exactly these totals and spreads them over the new instances by
#: the plan's input weights.
Carry = Dict[str, Tuple[Dict[str, float], float, float]]


def lane_runs(plan: PhysicalPlan, name: str) -> List[Tuple[int, int]]:
    """The lanes of operator ``name`` in ``plan``: each maximal run of
    consecutive instances with equal input weights, as ``(first,
    count)`` in instance order."""
    weights = plan.input_weights(name)
    runs: List[Tuple[int, int]] = []
    first = 0
    for index in range(1, len(weights) + 1):
        if index == len(weights) or weights[index] != weights[first]:
            runs.append((first, index - first))
            first = index
    return runs


@dataclass
class _Instance:
    """Mutable runtime state of one operator instance, or of a lane of
    ``count`` identical instances from ``iid`` on.

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
    count: int = 1

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

    def snapshot(self, iid: InstanceId) -> "_Instance":
        """A detached copy of this lane's state as instance ``iid``."""
        return replace(
            self,
            iid=iid,
            ports={port: copy.copy(q) for port, q in self.ports.items()},
            window=copy.copy(self.window),
            count=1,
        )


def _expand(
    values: Sequence[float], lanes: Sequence[_Instance]
) -> List[float]:
    """One value per lane, repeated per instance: the instance order."""
    return [
        value
        for value, lane in zip(values, lanes)
        for _ in range(lane.count)
    ]


def _first_short_push(
    capacity: Optional[float], length: float, amount: float, count: int
) -> int:
    """Which of ``count`` pushes of ``amount`` into a queue of
    ``capacity`` holding ``length`` first comes up short."""
    probe = Queue(capacity)
    probe.force_push(length)
    for index in range(count):
        if probe.push(amount) < amount - 1e-6:
            return index
    return count


#: Output targets of one operator: (downstream port queue, input
#: weight, downstream lane) for every downstream lane that receives
#: records.
_Routes = List[Tuple[Queue, float, InstanceId]]


class ObjectEngine:
    """The lane tick loop: a friend object of
    :class:`~repro.engine.simulator.Simulator`, which keeps the state
    outside the instances and drives this one per tick."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._graph = sim.graph
        # Every operator in topological order.
        self._specs = sim._specs
        self._metrics = sim.metrics_manager
        self._state = sim.state_model
        self._profiler = sim._profiler
        self._dt = sim.config.tick
        # Per deployment: each operator's lanes in instance order and
        # their counts, its parallelism and first metrics row, the
        # targets of its output, and the input queues of every bounded
        # operator with ports.
        self._lanes: Dict[str, List[_Instance]] = {}
        self._counts: Dict[str, List[int]] = {}
        self._widths: Dict[str, int] = {}
        self._rows: Dict[str, int] = {}
        self._routes: Dict[str, _Routes] = {}
        self._bounded: List[Tuple[str, Tuple[Queue, ...]]] = []

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def carry(self) -> Carry:
        """The instance state reduced to carried totals (see
        :data:`Carry`), summed instance by instance (empty before the
        first deployment)."""
        carried: Carry = {}
        for name, lanes in self._lanes.items():
            per_port: Dict[str, float] = {}
            for lane in lanes:
                for port, queue in lane.ports.items():
                    for _ in range(lane.count):
                        per_port[port] = (
                            per_port.get(port, 0.0) + queue.length
                        )
            buffered = 0.0
            backlog = 0.0
            for lane in lanes:
                for _ in range(lane.count):
                    if lane.window is not None:
                        buffered += lane.window.buffered
                    backlog += lane.fire_backlog
            carried[name] = (per_port, buffered, backlog)
        return carried

    def deploy(self, plan: PhysicalPlan, carried: Carry) -> None:
        """Build the lanes for ``plan`` from the ``carried`` totals of
        the previous deployment (empty on the first), and share each
        lane's metrics rows, which the metrics manager must already
        have registered for ``plan``."""
        runtime = self._sim.runtime
        runs = {name: lane_runs(plan, name) for name in self._specs}
        if runtime.demand_driven:
            # A demand-driven runtime may divide shared worker time by
            # the demands of every operator at once (Timely's per-worker
            # water-fill), so worker k's budgets depend on instance k of
            # every operator. Cutting every operator wherever any
            # operator's run starts keeps a lane's workers equal across
            # the whole plan, and so their budgets too.
            cuts = sorted(
                {first for spans in runs.values() for first, _ in spans}
            )
            for name in runs:
                width = plan.parallelism_of(name)
                bounds = [cut for cut in cuts if cut < width] + [width]
                runs[name] = [
                    (first, stop - first)
                    for first, stop in zip(bounds, bounds[1:])
                ]
        self._lanes = {}
        self._counts = {}
        self._widths = {}
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
            lanes: List[_Instance] = []
            for first, count in runs[name]:
                weight = weights[first]
                lane = _Instance(
                    iid=InstanceId(name, first),
                    spec=spec,
                    ports={
                        port: Queue(capacity=capacity) for port in ports
                    },
                    count=count,
                )
                if spec.window is not None:
                    lane.window = WindowState(spec=spec.window)
                    lane.window.reset(self._sim.time)
                    lane.window.buffered = buffered * weight
                for port in ports:
                    lane.ports[port].force_push(
                        queued_by_port.get(port, 0.0) * weight
                    )
                lane.fire_backlog = backlog * weight
                lanes.append(lane)
                self._metrics.share_rows(row + first, row + first + count)
            self._lanes[name] = lanes
            self._counts[name] = [count for _, count in runs[name]]
            self._widths[name] = parallelism
            self._rows[name] = row
            row += parallelism
        # Zero-weight instances receive nothing and bound nothing.
        self._routes = {}
        for name in self._specs:
            routes: _Routes = []
            for downstream in self._graph.downstream(name):
                weights = plan.input_weights(downstream)
                for lane in self._lanes[downstream]:
                    weight = weights[lane.iid.index]
                    if weight > 0:
                        routes.append((lane.ports[name], weight, lane.iid))
            self._routes[name] = routes
        self._bounded = [
            (name, tuple(q for i in lanes for q in i.ports.values()))
            for name, lanes in self._lanes.items()
            if lanes[0].ports
            and next(iter(lanes[0].ports.values())).bounded
        ]

    def grant(
        self, budgets: Dict[str, List[float]]
    ) -> Dict[str, List[float]]:
        """The runtime's per-instance budget lists as one budget per
        lane; raises :class:`EngineError` if the instances of a lane
        were granted different budgets (a lane could not stand for
        them)."""
        granted: Dict[str, List[float]] = {}
        for name, lanes in self._lanes.items():
            values = budgets[name]
            if len(lanes) == len(values):
                granted[name] = values
                continue
            per_lane: List[float] = []
            for lane in lanes:
                first = lane.iid.index
                value = values[first]
                for other in values[first : first + lane.count]:
                    if other != value:
                        raise EngineError(
                            "unequal budgets across the instances of "
                            f"{name!r}, which run as one lane"
                        )
                per_lane.append(value)
            granted[name] = per_lane
        return granted

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def queue_length(self, name: str) -> float:
        """Total pending records at an operator (all instances)."""
        lanes = self._lanes[name]
        return sum(_expand([lane.pending_records for lane in lanes], lanes))

    def total_queued(self) -> float:
        """Records queued anywhere inside the dataflow."""
        lanes = [lane for group in self._lanes.values() for lane in group]
        return sum(_expand([lane.pending_records for lane in lanes], lanes))

    def max_fill(self, name: str) -> float:
        """Worst port occupancy across the operator's instances."""
        return max(lane.max_fill_fraction for lane in self._lanes[name])

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
        """Queue conservation and non-negative fire backlogs (the first
        violating instance of a lane is its first)."""
        for lanes in self._lanes.values():
            for lane in lanes:
                for queue in lane.ports.values():
                    queue.check_conservation()
                if lane.fire_backlog < -1e-6:
                    raise EngineError(
                        f"negative fire backlog at {lane.iid}"
                    )

    def materialize_instances(self) -> Dict[str, List[_Instance]]:
        """Per-instance snapshots of the lanes, one per instance in
        index order. Treat them as read-only: mutations do not flow
        back into the lanes."""
        return {
            name: [
                lane.snapshot(InstanceId(name, lane.iid.index + offset))
                for lane in lanes
                for offset in range(lane.count)
            ]
            for name, lanes in self._lanes.items()
        }

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def _work(self, name: str, lanes: List[_Instance]) -> List[float]:
        """Seconds of pending work per lane of a non-source operator:
        queue totals times the per-record cost, plus fire backlog times
        the fire cost at a window operator."""
        sim = self._sim
        if self._specs[name].window is not None:
            assign_cost, fire_cost = sim._window_costs(name)
            return [
                lane.total_queue_length * assign_cost
                + lane.fire_backlog * fire_cost
                for lane in lanes
            ]
        cost = sim._unit_cost(name)
        return [lane.total_queue_length * cost for lane in lanes]

    def estimate_demands(self, dt: float) -> Dict[str, List[float]]:
        """Seconds of pending work per instance, one list per operator
        in topological order (for shared-worker budget allocation)."""
        sim = self._sim
        demands: Dict[str, List[float]] = {}
        for name, lanes in self._lanes.items():
            spec = self._specs[name]
            parallelism = self._widths[name]
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                per_instance = (
                    rate * dt + sim._source_backlog[name]
                ) / parallelism
                cost = sim._source_cost(name)
                demands[name] = [per_instance * max(cost, 1e-9)] * (
                    parallelism
                )
            else:
                demands[name] = _expand(self._work(name, lanes), lanes)
        return demands

    def operator_delays(self) -> Dict[str, float]:
        """Per-operator drain delays for the record-latency tracker."""
        sim = self._sim
        delays: Dict[str, float] = {}
        for name, lanes in self._lanes.items():
            spec = self._specs[name]
            if spec.is_source:
                # Source delay: time to drain external backlog.
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                backlog = sim._source_backlog[name]
                delays[name] = backlog / rate if rate > 0 else 0.0
                continue
            delays[name] = max(self._work(name, lanes))
        return delays

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
    def _emit(routes: _Routes, records: float, count: int) -> None:
        """Distribute ``records`` output records of each of ``count``
        operator instances across all downstream queues, route by route:
        the queues of the routes are distinct, so each still sees the
        per-instance push sequence. An overflow names the lane that
        instance-major pushes would have hit first."""
        if records <= 0:
            return
        overflow: Optional[Tuple[int, InstanceId]] = None
        for queue, weight, iid in routes:
            amount = records * weight
            length = queue.length
            if queue.push(amount, count) < amount - 1e-6:
                index = _first_short_push(
                    queue.capacity, length, amount, count
                )
                if overflow is None or index < overflow[0]:
                    overflow = (index, iid)
        if overflow is not None:
            raise EngineError(
                f"emission overflow into {overflow[1]}: the "
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
        share = want / self._widths[name]
        desires = []
        for budget in budgets:
            by_budget = math.inf if cost <= 0 else budget / cost
            desires.append(min(share, by_budget))
        allocations = fair_allocate(space, desires, self._counts[name])
        record = self._metrics.record_rows
        row = self._rows[name]
        emitted_total = 0.0
        for lane, emit in zip(self._lanes[name], allocations):
            self._emit(routes, emit, lane.count)
            useful = min(emit * cost, dt)
            start = row + lane.iid.index
            record(
                start,
                start + lane.count,
                emit,
                emit,
                useful,
                max(0.0, dt - useful),
            )
            for _ in range(lane.count):
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
        lanes = self._lanes[name]
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
        totals = [lane.total_queue_length for lane in lanes]
        if spec.window is not None:
            profiled = self._profiler.enabled
            if profiled:
                self._profiler.enter("engine.window_fire")
            try:
                return self._run_window(
                    name, spec, lanes, totals, budgets, dt,
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
        allocations = fair_allocate(pull_cap, desires, self._counts[name])
        record = self._metrics.record_rows
        row = self._rows[name]
        consumed_total = 0.0
        processed_lanes = []
        for lane, allowed, total in zip(lanes, allocations, totals):
            processed = lane.pop_records(allowed, total)
            emit = processed * selectivity
            pushed = 0.0
            if not spec.is_sink and emit > 0:
                self._emit(routes, emit, lane.count)
                pushed = emit
            useful = min(processed * unit_cost, dt)
            start = row + lane.iid.index
            record(
                start,
                start + lane.count,
                processed,
                pushed,
                useful,
                max(0.0, dt - useful),
            )
            processed_lanes.append(processed)
            for _ in range(lane.count):
                consumed_total += processed
        self._state.record_processed_block(
            name, processed_lanes, self._counts[name]
        )
        return consumed_total

    def _run_window(
        self,
        name: str,
        spec: OperatorSpec,
        lanes: List[_Instance],
        totals: List[float],
        budgets: Sequence[float],
        dt: float,
        end_time: float,
        space: float,
    ) -> float:
        window_spec = spec.window
        assert window_spec is not None
        width = len(lanes)
        routes = self._routes[name]
        assign_cost, fire_cost = self._sim._window_costs(name)
        fire_sel = window_spec.fire_selectivity
        budgets_left = list(budgets)
        useful_acc = [0.0] * width
        pushed_acc = [0.0] * width
        pulled_acc = [0.0] * width
        # Fire work and assignment work share each instance's budget
        # proportionally to their demands (the scheduler interleaves
        # them); a fire-first priority would let a large fire backlog
        # starve input reading entirely, collapsing throughput instead
        # of degrading it.
        fire_budget = [0.0] * width
        for index, lane in enumerate(lanes):
            fire_demand = lane.fire_backlog * fire_cost
            assign_demand = totals[index] * assign_cost
            total_demand = fire_demand + assign_demand
            if total_demand <= 0:
                continue
            share = min(1.0, fire_demand / total_demand)
            fire_budget[index] = budgets_left[index] * share
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        fire_desires = []
        for lane, budget in zip(lanes, fire_budget):
            by_budget = math.inf if fire_cost <= 0 else budget / fire_cost
            fire_desires.append(min(lane.fire_backlog, by_budget))
        fire_cap = math.inf if fire_sel <= 0 else space / fire_sel
        fired_alloc = fair_allocate(
            fire_cap, fire_desires, self._counts[name]
        )
        for index, (lane, fired) in enumerate(zip(lanes, fired_alloc)):
            if fired <= 0:
                continue
            lane.fire_backlog -= fired
            emit = fired * fire_sel
            self._emit(routes, emit, lane.count)
            useful_acc[index] += fired * fire_cost
            pushed_acc[index] += emit
            budgets_left[index] = max(
                0.0, budgets_left[index] - fired * fire_cost
            )
        # Stage 2: assign newly arrived records to windows (no
        # emission, so no space constraint). Firing popped nothing, so
        # the queue totals are unchanged.
        for index, lane in enumerate(lanes):
            by_budget = (
                math.inf
                if assign_cost <= 0
                else budgets_left[index] / assign_cost
            )
            assigned = lane.pop_records(
                min(totals[index], by_budget), totals[index]
            )
            assert lane.window is not None
            lane.window.buffered += assigned * window_spec.replication
            useful_acc[index] += assigned * assign_cost
            pulled_acc[index] += assigned
            # Stage 3: check window boundaries.
            released, _fires = lane.window.maybe_fire(end_time)
            lane.fire_backlog += released
        record = self._metrics.record_rows
        row = self._rows[name]
        consumed_total = 0.0
        for index, lane in enumerate(lanes):
            useful = min(useful_acc[index], dt)
            start = row + lane.iid.index
            record(
                start,
                start + lane.count,
                pulled_acc[index],
                pushed_acc[index],
                useful,
                max(0.0, dt - useful),
            )
            for _ in range(lane.count):
                consumed_total += pulled_acc[index]
        self._state.record_processed_block(
            name, pulled_acc, self._counts[name]
        )
        return consumed_total


__all__ = ["Carry", "ObjectEngine", "lane_runs"]
