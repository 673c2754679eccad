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

Each deployment also compiles a *tick program* (:meth:`ObjectEngine.deploy`):
one flat tuple per operator in the order a tick runs them, holding
everything the plan fixes (kind, lanes, counts, routes, metrics rows,
port queues, selectivity, state growth), plus flat tuples of every
queue, every lane and the bounded queues. :meth:`ObjectEngine.run_tick`
runs a whole tick from it with one lane loop per operator kind, and
the backpressure scan and the invariant check walk the flat tuples, so
a tick pays no per-operator dictionary lookups or property calls. The
float operations and their order are those of the per-operator code
it replaced.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
            return sum(map(Queue.drain, self.ports.values()))
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

#: Operator kinds of a tick program.
_SOURCE, _REGULAR, _WINDOW = range(3)

#: One lane of a tick-program operator: the lane, its instance count,
#: its first metrics row and its input port queues in port order.
_ProgramLane = Tuple[_Instance, int, int, Tuple[Queue, ...]]

#: One operator of a tick program: (kind, name, is sink, lanes, lane
#: counts, routes, selectivity — the fire selectivity at a window —,
#: state bytes per processed record, extra), where extra is (rate
#: schedule, parallelism) at a source, the replication at a window and
#: None otherwise.
_Op = Tuple[
    int,
    str,
    bool,
    Tuple[_ProgramLane, ...],
    Tuple[int, ...],
    _Routes,
    float,
    float,
    Any,
]

_Limit = Callable[[_Routes], float]
_EmitStep = Callable[[_Routes, float, int], None]

#: A queue's length, read off its slot (the tick reads queue slots
#: directly, as a friend of :class:`~repro.engine.buffers.Queue`).
_LENGTH = attrgetter("_length")


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
        self._catchup = sim.config.source_catchup_factor
        self._blocking = sim.runtime.sources_blocked_by_backpressure
        # Per deployment: each operator's lanes in instance order and
        # its parallelism, and the tick program (see deploy).
        self._lanes: Dict[str, List[_Instance]] = {}
        self._widths: Dict[str, int] = {}
        self._program: Tuple[_Op, ...] = ()
        self._queues: Tuple[Queue, ...] = ()
        self._all_lanes: Tuple[_Instance, ...] = ()
        self._bounded: Tuple[Tuple[str, Tuple[Queue, ...]], ...] = ()

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
        self._widths = {}
        rows: Dict[str, int] = {}
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
            self._widths[name] = parallelism
            rows[name] = row
            row += parallelism
        self._compile(plan, rows)

    def _compile(self, plan: PhysicalPlan, rows: Dict[str, int]) -> None:
        """Build the tick program of the lanes just deployed: one
        :data:`_Op` per operator in reverse topological order (sinks
        first, the order a tick runs them), and flat tuples of every
        queue, every lane and each bounded operator's queues for the
        per-tick scans. ``rows`` holds each operator's first metrics
        row."""
        program: List[_Op] = []
        for name in reversed(list(self._specs)):
            spec = self._specs[name]
            lanes = self._lanes[name]
            # Zero-weight instances receive nothing and bound nothing.
            routes: _Routes = []
            for downstream in self._graph.downstream(name):
                weights = plan.input_weights(downstream)
                for lane in self._lanes[downstream]:
                    weight = weights[lane.iid.index]
                    if weight > 0:
                        routes.append((lane.ports[name], weight, lane.iid))
            if spec.is_source:
                kind, ratio = _SOURCE, 0.0
                extra: Any = (spec.rate, self._widths[name])
            elif spec.window is not None:
                kind, ratio = _WINDOW, spec.window.fire_selectivity
                extra = spec.window.replication
            else:
                kind, ratio, extra = _REGULAR, spec.selectivity.ratio, None
            program.append(
                (
                    kind,
                    name,
                    spec.is_sink,
                    tuple(
                        (
                            lane,
                            lane.count,
                            rows[name] + lane.iid.index,
                            tuple(lane.ports.values()),
                        )
                        for lane in lanes
                    ),
                    tuple(lane.count for lane in lanes),
                    routes,
                    ratio,
                    spec.state_bytes_per_record,
                    extra,
                )
            )
        self._program = tuple(program)
        self._all_lanes = tuple(
            lane for lanes in self._lanes.values() for lane in lanes
        )
        self._queues = tuple(
            queue for lane in self._all_lanes for queue in lane.ports.values()
        )
        self._bounded = tuple(
            (name, tuple(q for i in lanes for q in i.ports.values()))
            for name, lanes in self._lanes.items()
            if lanes[0].ports
            and next(iter(lanes[0].ports.values())).bounded
        )

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
        hot = []
        for name, queues in self._bounded:
            for queue in queues:
                # min(1.0, fill), NaN included: the fill fraction.
                fill = queue._length / queue._capacity
                if not fill < 1.0:
                    fill = 1.0
                if fill >= threshold:
                    hot.append(name)
                    break
        return tuple(hot)

    def check_invariants(self) -> None:
        """Queue conservation and non-negative fire backlogs (the first
        violating instance of a lane is its first).

        One pass over the flat queue and lane tuples with
        :meth:`~repro.engine.buffers.Queue.check_conservation`'s test
        inlined; only a violation walks the lanes again, in operator
        order, to raise the first one's error."""
        for queue in self._queues:
            pushed = queue._pushed
            drift = abs((pushed - queue._popped) - queue._length)
            if not drift <= 1e-6 * (pushed if pushed > 1.0 else 1.0):
                break
        else:
            for lane in self._all_lanes:
                if lane.fire_backlog < -1e-6:
                    break
            else:
                return
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
        overflowing any downstream instance queue (inf if unbounded):
        the smallest ``free_space / weight`` over the routes."""
        limit = math.inf
        for queue, weight, _ in routes:
            capacity = queue._capacity
            if capacity is None:
                continue
            free = capacity - queue._length
            room = (free if free > 0.0 else 0.0) / weight
            if room < limit:
                limit = room
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
            length = queue._length
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

    def run_tick(
        self,
        budgets: Dict[str, List[float]],
        dt: float,
        end_time: float,
        source_emitted: Dict[str, float],
        source_desired: Dict[str, float],
        sink_consumed: Dict[str, float],
    ) -> None:
        """Run every operator for one active tick from the tick program,
        sinks first. Each source's emitted and desired records go into
        ``source_emitted`` and ``source_desired`` (in program order),
        each sink's consumed records into ``sink_consumed``.

        :meth:`_downstream_limit` and :meth:`_emit` are looked up once
        per tick, so a patched one takes effect from the next tick."""
        limit = self._downstream_limit
        emit = self._emit
        for op in self._program:
            kind, name, sink = op[0], op[1], op[2]
            if kind == _SOURCE:
                emitted, desired = self._source_step(
                    op, budgets[name], dt, limit, emit
                )
                source_emitted[name] = emitted
                source_desired[name] = desired
                continue
            if kind == _REGULAR:
                consumed = self._regular_step(
                    op, budgets[name], dt, limit, emit
                )
            else:
                profiler = self._profiler
                profiled = profiler.enabled
                if profiled:
                    profiler.enter("engine.window_fire")
                try:
                    consumed = self._window_step(
                        op, budgets[name], dt, end_time, limit, emit
                    )
                finally:
                    if profiled:
                        profiler.exit("engine.window_fire")
            if sink:
                sink_consumed[name] = consumed

    # The steps below spell ``min(a, b)`` as ``b if b < a else a`` and
    # ``max(a, b)`` as ``b if b > a else a``: the builtins' results,
    # ties and NaN included, without a call.

    def _source_step(
        self,
        op: _Op,
        budgets: Sequence[float],
        dt: float,
        limit: _Limit,
        emit: _EmitStep,
    ) -> Tuple[float, float]:
        """Generate and emit a source's records; returns (emitted,
        desired)."""
        _, name, _, lanes, counts, routes, _, _, extra = op
        schedule, width = extra
        sim = self._sim
        backlogs = sim._source_backlog
        desired = schedule.rate_at(sim.time) * dt
        available = desired + backlogs[name]
        cap = desired * self._catchup
        # min(available, max(cap, desired))
        most = desired if desired > cap else cap
        want = most if most < available else available
        space = limit(routes) if self._blocking else math.inf
        cost = sim._source_cost(name)
        # Each source instance generates an equal share of the stream;
        # the shared downstream space is divided fairly among them.
        share = want / width
        desires = []
        for budget in budgets:
            by_budget = math.inf if cost <= 0 else budget / cost
            desires.append(by_budget if by_budget < share else share)
        allocations = fair_allocate(space, desires, counts)
        record = self._metrics.record_rows
        emitted_total = 0.0
        for (_, count, start, _), emitted in zip(lanes, allocations):
            emit(routes, emitted, count)
            useful = emitted * cost
            if dt < useful:
                useful = dt
            idle = dt - useful
            record(
                start,
                start + count,
                emitted,
                emitted,
                useful,
                idle if idle > 0.0 else 0.0,
            )
            for _ in range(count):
                emitted_total += emitted
        left = available - emitted_total
        backlogs[name] = left if left > 0.0 else 0.0
        return emitted_total, desired

    def _regular_step(
        self,
        op: _Op,
        budgets: Sequence[float],
        dt: float,
        limit: _Limit,
        emit: _EmitStep,
    ) -> float:
        """Run a non-window operator; returns records consumed
        (meaningful for sinks)."""
        _, name, sink, lanes, counts, routes, selectivity, growth, _ = op
        sim = self._sim
        # Shared downstream space for this operator's emissions this
        # tick, in output records; divided fairly among the instances
        # so that a squeezed instance does not distort the
        # backpressure limit seen by upstream operators.
        space = math.inf if sink else limit(routes)
        cost = sim._unit_cost(name)
        # Nothing refills this operator's queues before it runs: its
        # upstream operators come later in the (reverse topological)
        # tick order.
        totals = []
        desires = []
        for (_, _, _, ports), budget in zip(lanes, budgets):
            total = sum(map(_LENGTH, ports))
            totals.append(total)
            by_budget = math.inf if cost <= 0 else budget / cost
            desires.append(by_budget if by_budget < total else total)
        pull_cap = math.inf if selectivity <= 0 else space / selectivity
        allocations = fair_allocate(pull_cap, desires, counts)
        record = self._metrics.record_rows
        consumed_total = 0.0
        processed_lanes = []
        for (lane, count, start, _), allowed, total in zip(
            lanes, allocations, totals
        ):
            processed = lane.pop_records(allowed, total)
            pushed = processed * selectivity
            if sink or not pushed > 0:
                pushed = 0.0
            else:
                emit(routes, pushed, count)
            useful = processed * cost
            if dt < useful:
                useful = dt
            idle = dt - useful
            record(
                start,
                start + count,
                processed,
                pushed,
                useful,
                idle if idle > 0.0 else 0.0,
            )
            processed_lanes.append(processed)
            for _ in range(count):
                consumed_total += processed
        if growth > 0:
            self._state.record_processed_block(
                name, processed_lanes, counts
            )
        return consumed_total

    def _window_step(
        self,
        op: _Op,
        budgets: Sequence[float],
        dt: float,
        end_time: float,
        limit: _Limit,
        emit: _EmitStep,
    ) -> float:
        """Run a window operator: drain fire backlogs, assign arrivals
        to windows, fire crossed boundaries; returns records consumed
        (meaningful for sinks)."""
        _, name, sink, lanes, counts, routes, fire_sel, growth, extra = op
        replication = extra
        sim = self._sim
        space = math.inf if sink else limit(routes)
        assign_cost, fire_cost = sim._window_costs(name)
        # Fire work and assignment work share each instance's budget
        # proportionally to their demands (the scheduler interleaves
        # them); a fire-first priority would let a large fire backlog
        # starve input reading entirely, collapsing throughput instead
        # of degrading it.
        totals = []
        fire_desires = []
        for (lane, _, _, ports), budget in zip(lanes, budgets):
            total = sum(map(_LENGTH, ports))
            totals.append(total)
            backlog = lane.fire_backlog
            fire_demand = backlog * fire_cost
            total_demand = fire_demand + total * assign_cost
            fire_budget = 0.0
            if not total_demand <= 0:
                share = fire_demand / total_demand
                fire_budget = budget * (share if share < 1.0 else 1.0)
            by_budget = (
                math.inf if fire_cost <= 0 else fire_budget / fire_cost
            )
            fire_desires.append(
                by_budget if by_budget < backlog else backlog
            )
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        fire_cap = math.inf if fire_sel <= 0 else space / fire_sel
        fired_alloc = fair_allocate(fire_cap, fire_desires, counts)
        record = self._metrics.record_rows
        consumed_total = 0.0
        pulled_lanes = []
        for (lane, count, start, _), budget, total, fired in zip(
            lanes, budgets, totals, fired_alloc
        ):
            useful = 0.0
            pushed = 0.0
            pulled = 0.0
            if not fired <= 0:
                lane.fire_backlog -= fired
                emitted = fired * fire_sel
                emit(routes, emitted, count)
                useful += fired * fire_cost
                pushed += emitted
                left = budget - fired * fire_cost
                budget = left if left > 0.0 else 0.0
            # Stage 2: assign newly arrived records to windows (no
            # emission, so no space constraint). Firing popped nothing,
            # so the queue total is unchanged.
            by_budget = (
                math.inf if assign_cost <= 0 else budget / assign_cost
            )
            assigned = lane.pop_records(
                by_budget if by_budget < total else total, total
            )
            window = lane.window
            assert window is not None
            window.buffered += assigned * replication
            useful += assigned * assign_cost
            pulled += assigned
            # Stage 3: check window boundaries.
            released, _fires = window.maybe_fire(end_time)
            lane.fire_backlog += released
            if dt < useful:
                useful = dt
            idle = dt - useful
            record(
                start,
                start + count,
                pulled,
                pushed,
                useful,
                idle if idle > 0.0 else 0.0,
            )
            pulled_lanes.append(pulled)
            for _ in range(count):
                consumed_total += pulled
        if growth > 0:
            self._state.record_processed_block(name, pulled_lanes, counts)
        return consumed_total


__all__ = ["Carry", "ObjectEngine", "lane_runs"]
