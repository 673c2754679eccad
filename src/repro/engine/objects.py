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
instance, and a lane adds its counters in place to the metrics lists
its rows are (:meth:`~repro.engine.metrics_manager.MetricsManager.lists`:
one shared list, two while a dropout silences part of the lane).

Each deployment also compiles a *tick program* (:meth:`ObjectEngine.deploy`):
one flat tuple per operator in the order a tick runs them, holding
everything the plan fixes (kind, lanes, counts, routes, metrics lists,
port queues, selectivity, state growth, per-record costs), plus flat
tuples of every lane and of each operator's queues.
:meth:`ObjectEngine.run_tick` runs a whole tick from it with one step
per operator kind, and :meth:`ObjectEngine.post_tick` does the
bookkeeping after it (the backpressure scan, the invariant check and
the metrics' observed time), so a tick pays no per-operator dictionary
lookups or property calls. The scan and the check are one walk over
the queues, which :meth:`ObjectEngine.backpressured` and
:meth:`ObjectEngine.check_invariants` share. An operator that runs as
one lane whose metrics rows are one list takes a one-lane path through
its step, without the per-lane lists and the ``fair_allocate`` call of
the general one. The float operations and their order are those of the
per-operator code it replaced.

:meth:`ObjectEngine.state` is one read-only, per-instance view of the
engine's state; a redeploy carries its reduction
(:meth:`EngineState.carry`) into the new lanes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.state import StateModel
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import fair_allocate, fill_lane
from repro.engine.buffers import Queue
from repro.engine.metrics_manager import MetricsManager
from repro.engine.runtimes import Runtime
from repro.errors import EngineError
from repro.telemetry.spans import SpanProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import EngineConfig


#: Carried state of a deployment, per operator: records queued per
#: input port, window-buffered records, and fire backlog, each summed
#: over the instances in index order. A redeploy reduces instance state
#: to exactly these totals and spreads them over the new instances by
#: the plan's input weights.
Carry = Dict[str, Tuple[Dict[str, float], float, float]]


class PortState(NamedTuple):
    """An input port's queue: records queued, ever pushed and popped."""

    length: float
    pushed: float
    popped: float


class WindowBuffer(NamedTuple):
    """A window's buffered records, next fire and last release check."""

    buffered: float
    next_fire: float
    last_check: float


class InstanceState(NamedTuple):
    """An instance's input ports in port order, window (or None) and
    fire backlog."""

    ports: Mapping[str, PortState]
    window: Optional[WindowBuffer]
    fire_backlog: float


class EngineState(NamedTuple):
    """The engine's state, independent of its lanes: each operator's
    instances (topological, then index order), each source's external
    backlog and the cost-noise RNG's :meth:`random.Random.getstate`."""

    operators: Mapping[str, Tuple[InstanceState, ...]]
    source_backlogs: Mapping[str, float]
    rng: Tuple[Any, ...]

    def carry(self) -> Carry:
        """The instance state reduced to carried totals (see
        :data:`Carry`), summed instance by instance."""
        carried: Carry = {}
        for name, instances in self.operators.items():
            per_port: Dict[str, float] = {}
            buffered = backlog = 0.0
            for instance in instances:
                for port, queue in instance.ports.items():
                    per_port[port] = per_port.get(port, 0.0) + queue.length
                if instance.window is not None:
                    buffered += instance.window.buffered
                backlog += instance.fire_backlog
            carried[name] = (per_port, buffered, backlog)
        return carried


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
    ports: Dict[str, Queue]
    window: Optional[WindowState] = None
    fire_backlog: float = 0.0
    count: int = 1

    @property
    def total_queue_length(self) -> float:
        """Records queued across all input ports."""
        return sum(queue.length for queue in self.ports.values())

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

    def states(self) -> Tuple[InstanceState, ...]:
        """The state of each instance of this lane."""
        ports = {
            port: PortState(q._length, q._pushed, q._popped)
            for port, q in self.ports.items()
        }
        buffer = None
        if self.window is not None:
            window = self.window
            buffer = WindowBuffer(
                window.buffered, window.next_fire, window._last_check
            )
        state = InstanceState(
            MappingProxyType(ports), buffer, self.fire_backlog
        )
        return (state,) * self.count


def _pending(lanes: Sequence[_Instance]) -> float:
    """Records queued, window-buffered and in fire backlogs at the
    instances of ``lanes``, summed in instance order."""
    values: List[float] = []
    for lane in lanes:
        extra = lane.fire_backlog
        if lane.window is not None:
            extra += lane.window.buffered
        values += [lane.total_queue_length + extra] * lane.count
    return sum(values)


def _window_costs(
    factors: Tuple[float, float, float], noise: float
) -> Tuple[float, float]:
    """A window's (assign cost per input record, fire cost per buffered
    record) from its cost factors and this tick's cost noise."""
    scale, assign, fire = factors
    multiplier = scale * noise
    return assign * multiplier, fire * multiplier


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
#: its first metrics row, its input port queues in port order and the
#: metrics lists its rows are (:meth:`MetricsManager.lists`).
_ProgramLane = Tuple[
    _Instance, int, int, Tuple[Queue, ...], Tuple[List[float], ...]
]

#: The one lane of an operator that runs as one lane whose metrics rows
#: are one list, for the one-lane paths of a tick: the lane, its
#: instance count, its input port queues and that list.
_Solo = Tuple[_Instance, int, Tuple[Queue, ...], List[float]]

#: One operator of a tick program: (kind, name, is sink, lanes, lane
#: counts, routes, selectivity — the fire selectivity at a window —,
#: state bytes per processed record, cost, extra, solo). The cost is
#: per record and before this tick's noise: the generation cost at a
#: source, the processing cost at a regular operator, and at a window
#: the factors of :func:`_window_costs`. Extra is (rate schedule,
#: parallelism) at a source, the replication at a window and None
#: otherwise. Solo is the :data:`_Solo` of a one-lane operator whose
#: rows are one list and None otherwise.
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
    Any,
    Optional[_Solo],
]

#: Records per operator in one tick.
_Flows = Dict[str, float]
_Limit = Callable[[_Routes], float]
_EmitStep = Callable[[_Routes, float, int], None]

#: A queue's length, read off its slot (the tick reads queue slots
#: directly, as a friend of :class:`~repro.engine.buffers.Queue`).
_LENGTH = attrgetter("_length")

_INF = math.inf

class ObjectEngine:
    """The lane tick loop of one dataflow under one runtime: it holds
    the lanes, the source backlogs, the tick program with its costs,
    the cost-noise RNG and the budgets a plan fixes, and records into
    the metrics manager and state model it is given."""

    def __init__(
        self,
        graph: LogicalGraph,
        runtime: Runtime,
        config: "EngineConfig",
        metrics: MetricsManager,
        state: StateModel,
        profiler: SpanProfiler,
    ) -> None:
        self._graph = graph
        self._runtime = runtime
        self._config = config
        self._metrics = metrics
        self._state = state
        self._profiler = profiler
        # Every operator in topological order.
        self._specs = {n: graph.operator(n) for n in graph.topological_order()}
        self._sinks = graph.sinks()
        self._catchup = config.source_catchup_factor
        self._blocking = runtime.sources_blocked_by_backpressure
        # Records each source's external system buffered while the
        # source was blocked or the job was down.
        self._backlogs: Dict[str, float] = dict.fromkeys(graph.sources(), 0.0)
        self._rng = random.Random(config.seed)
        # Per-operator cost-noise factors for the current tick.
        self._jitter: Dict[str, float] = dict.fromkeys(graph.names, 1.0)
        # Per deployment (see deploy): the plan, each operator's lanes
        # in instance order and their instance counts, the tick program
        # and the budgets when they do not depend on demand.
        self._plan: Optional[PhysicalPlan] = None
        self._lanes: Dict[str, List[_Instance]] = {}
        self._counts: Dict[str, Tuple[int, ...]] = {}
        self._program: Tuple[_Op, ...] = ()
        self._all_lanes: Tuple[_Instance, ...] = ()
        # Each operator's queues and whether they are bounded, in
        # topological order: the queue walk (_walk) goes over them.
        self._scan: Tuple[Tuple[str, Tuple[Queue, ...], bool], ...] = ()
        self._threshold = runtime.backpressure_threshold
        # The metrics layout the lanes' row lists were resolved at.
        self._layout = -1
        self._static_budgets: Optional[Dict[str, List[float]]] = None

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, plan: PhysicalPlan, now: float) -> None:
        """Deploy ``plan`` at virtual time ``now``: register its
        instances with the metrics manager, and build its lanes from the
        carried totals of the previous deployment (:meth:`state`
        reduced by :meth:`EngineState.carry`; nothing on the first),
        each lane sharing its metrics rows."""
        runtime = self._runtime
        runtime.validate_plan(plan)
        carried = self.state().carry()
        self._plan = plan
        self._metrics.register_instances(plan.all_instances())
        runs = {name: lane_runs(plan, name) for name in self._specs}
        if runtime.demand_driven:
            # A demand-driven runtime may divide shared worker time by
            # the demands of every operator at once (Timely's per-worker
            # water-fill), so worker k's budgets depend on instance k of
            # every operator. Cutting every operator wherever any
            # operator's run starts keeps a lane's workers equal across
            # the whole plan, so lane j of every operator covers the
            # same workers and the runtime grants budgets per lane.
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
                    ports={
                        port: Queue(capacity=capacity) for port in ports
                    },
                    count=count,
                )
                if spec.window is not None:
                    lane.window = WindowState(spec=spec.window)
                    lane.window.reset(now)
                    lane.window.buffered = buffered * weight
                for port in ports:
                    lane.ports[port].force_push(
                        queued_by_port.get(port, 0.0) * weight
                    )
                lane.fire_backlog = backlog * weight
                lanes.append(lane)
                self._metrics.share_rows(row + first, row + first + count)
            self._lanes[name] = lanes
            rows[name] = row
            row += parallelism
        self._counts = {
            name: tuple(lane.count for lane in lanes)
            for name, lanes in self._lanes.items()
        }
        self._compile(plan, rows)
        self._static_budgets = None
        if not runtime.demand_driven:
            self._static_budgets = runtime.budgets(
                plan, self._counts, {}, self._config.tick
            )

    def _compile(self, plan: PhysicalPlan, rows: Dict[str, int]) -> None:
        """Build the tick program of the lanes just deployed: one
        :data:`_Op` per operator in reverse topological order (sinks
        first, the order a tick runs them), with the metrics row lists
        of its lanes resolved, and flat tuples of every lane and of
        each operator's queues for the per-tick scans. ``rows`` holds
        each operator's first metrics row."""
        multiplier = 1.0
        if self._config.instrumentation_enabled:
            multiplier += self._runtime.instrumentation_overhead
        program: List[_Op] = []
        for name in reversed(list(self._specs)):
            spec = self._specs[name]
            lanes = self._lanes[name]
            parallelism = plan.parallelism_of(name)
            # Zero-weight instances receive nothing and bound nothing.
            routes: _Routes = []
            for downstream in self._graph.downstream(name):
                weights = plan.input_weights(downstream)
                for lane in self._lanes[downstream]:
                    weight = weights[lane.iid.index]
                    if weight > 0:
                        routes.append((lane.ports[name], weight, lane.iid))
            cost: Any
            if spec.is_source:
                kind, ratio = _SOURCE, 0.0
                cost = spec.costs.base_cost * multiplier
                extra: Any = (spec.rate, parallelism)
            elif spec.window is not None:
                window = spec.window
                kind, ratio = _WINDOW, window.fire_selectivity
                coordination = 1.0 + spec.costs.coordination_alpha * (
                    parallelism - 1
                )
                cost = (
                    coordination * multiplier,
                    spec.costs.base_cost
                    + window.replication * window.assign_cost,
                    window.fire_cost,
                )
                extra = window.replication
            else:
                kind, ratio, extra = _REGULAR, spec.selectivity.ratio, None
                cost = spec.costs.effective_cost(parallelism)
                if spec.rate_limit is not None:
                    cost = max(cost, 1.0 / spec.rate_limit)
                cost *= multiplier
            program_lanes = tuple(
                (
                    lane,
                    lane.count,
                    rows[name] + lane.iid.index,
                    tuple(lane.ports.values()),
                    (),
                )
                for lane in lanes
            )
            program.append(
                (
                    kind,
                    name,
                    spec.is_sink,
                    program_lanes,
                    tuple(lane.count for lane in lanes),
                    routes,
                    ratio,
                    spec.state_bytes_per_record,
                    cost,
                    extra,
                    None,
                )
            )
        self._program = tuple(program)
        self._resolve_rows()
        self._all_lanes = tuple(
            lane for lanes in self._lanes.values() for lane in lanes
        )
        # A port queue is bounded exactly when its operator's are.
        self._scan = tuple(
            (name, queues, bool(queues) and queues[0].bounded)
            for name, queues in (
                (name, tuple(q for i in lanes for q in i.ports.values()))
                for name, lanes in self._lanes.items()
            )
        )

    def _resolve_rows(self) -> None:
        """Point every lane of the tick program at the metrics lists its
        rows are now (:meth:`MetricsManager.lists`), at the manager's
        current :attr:`~MetricsManager.layout`. An operator takes its
        one-lane path while it is one lane whose rows are one list."""
        lists = self._metrics.lists
        program = []
        for op in self._program:
            lanes = tuple(
                (lane, count, start, ports, lists(start, start + count))
                for lane, count, start, ports, _ in op[3]
            )
            solo: Optional[_Solo] = None
            if len(lanes) == 1 and len(lanes[0][4]) == 1:
                lane, count, _, ports, (row,) = lanes[0]
                solo = (lane, count, ports, row)
            program.append(op[:3] + (lanes,) + op[4:10] + (solo,))
        self._program = tuple(program)
        self._layout = self._metrics.layout

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def state(self) -> EngineState:
        """The engine's state as one read-only view (see
        :class:`EngineState`): the instances of a lane are equal, so
        each repeats the lane's state."""
        operators = {
            name: tuple(state for lane in lanes for state in lane.states())
            for name, lanes in self._lanes.items()
        }
        return EngineState(
            MappingProxyType(operators),
            MappingProxyType(dict(self._backlogs)),
            self._rng.getstate(),
        )

    def source_backlog(self, name: str) -> float:
        """Records buffered externally for source ``name``."""
        try:
            return self._backlogs[name]
        except KeyError:
            raise EngineError(f"unknown source {name!r}") from None

    def queue_length(self, name: str) -> float:
        """Total pending records at an operator (all instances)."""
        return _pending(self._lanes[name])

    def total_queued(self) -> float:
        """Records queued anywhere inside the dataflow."""
        return _pending(self._all_lanes)

    def max_fill(self, name: str) -> float:
        """Worst port occupancy across the operator's instances (0 for
        unbounded or portless queues)."""
        lanes = self._lanes[name]
        fills = [q.fill_fraction for i in lanes for q in i.ports.values()]
        return max(fills, default=0.0)

    def backpressured(self) -> Tuple[str, ...]:
        """Operators with a bounded port at or above the runtime's
        backpressure threshold, in topological order."""
        return self._walk(False)[0]

    def check_invariants(self) -> None:
        """Queue conservation and non-negative fire backlogs (the first
        violating instance of a lane is its first)."""
        if not self._walk(True)[1]:
            self._raise_violation()

    def _walk(self, check: bool) -> Tuple[Tuple[str, ...], bool]:
        """One walk over every operator's queues: the
        :meth:`backpressured` operators and, with ``check``, whether
        every queue passes
        :meth:`~repro.engine.buffers.Queue.check_conservation`'s test
        (inlined) and every fire backlog is non-negative (always True
        without ``check``). An operator's fill is tested up to its
        first hot queue."""
        threshold = self._threshold
        hot = []
        conserved = True
        for name, queues, bounded in self._scan:
            cold = bounded
            for queue in queues:
                if check:
                    pushed = queue._pushed
                    drift = abs((pushed - queue._popped) - queue._length)
                    if not drift <= 1e-6 * (pushed if pushed > 1.0 else 1.0):
                        conserved = False
                elif not cold:
                    break
                if cold:
                    # min(1.0, fill), NaN included: the fill fraction.
                    fill = queue._length / queue._capacity
                    if not fill < 1.0:
                        fill = 1.0
                    if fill >= threshold:
                        hot.append(name)
                        cold = False
        if check and conserved:
            for lane in self._all_lanes:
                if lane.fire_backlog < -1e-6:
                    conserved = False
                    break
        return tuple(hot), conserved

    def _raise_violation(self) -> None:
        """Raise the first invariant violation, walking the lanes in
        operator order."""
        for lanes in self._lanes.values():
            for lane in lanes:
                for queue in lane.ports.values():
                    queue.check_conservation()
                if lane.fire_backlog < -1e-6:
                    raise EngineError(
                        f"negative fire backlog at {lane.iid}"
                    )

    def post_tick(
        self, dt: float, check: bool, backpressure_seconds: Dict[str, float]
    ) -> Tuple[str, ...]:
        """The bookkeeping after an active tick of ``dt`` seconds, in
        one call: returns :meth:`backpressured` and adds ``dt`` to each
        of those operators' ``backpressure_seconds``, advances the
        metrics' observed time (:meth:`MetricsManager.advance`), then,
        when ``check`` is set, raises the first error
        :meth:`check_invariants` would."""
        backpressured, conserved = self._walk(check)
        for name in backpressured:
            backpressure_seconds[name] += dt
        self._metrics.advance(dt)
        if not conserved:
            self._raise_violation()
        return backpressured

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def _work(self, op: _Op) -> List[float]:
        """Seconds of pending work per lane of a non-source operator:
        queue totals times the per-record cost, plus fire backlog times
        the fire cost at a window operator."""
        kind, name, _, lanes, _, _, _, _, cost = op[:9]
        noise = self._jitter[name]
        if kind == _WINDOW:
            assign_cost, fire_cost = _window_costs(cost, noise)
            return [
                sum(map(_LENGTH, ports)) * assign_cost
                + lane.fire_backlog * fire_cost
                for lane, _, _, ports, _ in lanes
            ]
        cost *= noise
        return [
            sum(map(_LENGTH, ports)) * cost for _, _, _, ports, _ in lanes
        ]

    def _estimate_demands(
        self, now: float, dt: float
    ) -> Dict[str, List[float]]:
        """Seconds of pending work per instance of each lane, one list
        per operator in topological order (for shared-worker budget
        allocation)."""
        demands: Dict[str, List[float]] = {}
        for op in reversed(self._program):
            kind, name, _, _, counts, _, _, _, cost, extra = op[:10]
            if kind == _SOURCE:
                schedule, parallelism = extra
                per_instance = (
                    schedule.rate_at(now) * dt + self._backlogs[name]
                ) / parallelism
                demands[name] = [per_instance * max(cost, 1e-9)] * len(counts)
            else:
                demands[name] = self._work(op)
        return demands

    def operator_delays(self, now: float) -> Dict[str, float]:
        """Per-operator drain delays at virtual time ``now``, for the
        record-latency tracker."""
        delays: Dict[str, float] = {}
        for op in reversed(self._program):
            name = op[1]
            if op[0] == _SOURCE:
                # Source delay: time to drain external backlog.
                rate = op[9][0].rate_at(now)
                backlog = self._backlogs[name]
                delays[name] = backlog / rate if rate > 0 else 0.0
                continue
            delays[name] = max(self._work(op))
        return delays

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _downstream_limit(routes: _Routes) -> float:
        """Maximum records an operator may emit right now without
        overflowing any downstream instance queue (inf if unbounded):
        the smallest ``free_space / weight`` over the routes."""
        limit = _INF
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

    def hold_sources(self, records: Mapping[str, float]) -> None:
        """Add each source's ``records`` to its external backlog: the
        job is down, so nothing runs."""
        for name, value in records.items():
            self._backlogs[name] += value

    def run_tick(
        self, now: float, dt: float
    ) -> Tuple[_Flows, _Flows, _Flows]:
        """Run one active tick from virtual time ``now``: draw the
        tick's cost noise, grant the budgets, then run every operator
        from the tick program, sinks first. Returns the records each
        source emitted and desired (in program order) and each sink
        consumed.

        An operator that runs as one lane whose metrics rows are one
        list takes its one-lane path, with
        :func:`~repro.engine.allocation.fill_lane` for the water-fill.
        The float operations and their order are those of the general
        path.

        :meth:`_downstream_limit` and :meth:`_emit` are looked up once
        per tick, so a patched one takes effect from the next tick."""
        amplitude = self._config.cost_jitter
        if amplitude > 0:
            uniform = self._rng.uniform
            for name in self._jitter:
                self._jitter[name] = 1.0 + uniform(-amplitude, amplitude)
        profiler = self._profiler
        profiled = profiler.enabled
        if profiled:
            profiler.enter("engine.allocate")
        try:
            budgets = self._static_budgets
            if budgets is None:
                assert self._plan is not None
                budgets = self._runtime.budgets(
                    self._plan,
                    self._counts,
                    self._estimate_demands(now, dt),
                    dt,
                )
        finally:
            if profiled:
                profiler.exit("engine.allocate")
        if self._metrics.layout != self._layout:
            # A dropout split or rejoined a lane's metrics rows.
            self._resolve_rows()
        source_emitted: _Flows = {}
        source_desired: _Flows = {}
        sink_consumed = dict.fromkeys(self._sinks, 0.0)
        end_time = now + dt
        limit = self._downstream_limit
        emit = self._emit
        for op in self._program:
            kind, name, sink = op[0], op[1], op[2]
            if kind == _SOURCE:
                emitted, desired = self._source_step(
                    op, budgets[name], now, dt, limit, emit
                )
                source_emitted[name] = emitted
                source_desired[name] = desired
                continue
            if kind == _REGULAR:
                consumed = self._regular_step(
                    op, budgets[name], dt, limit, emit
                )
            else:
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
        return source_emitted, source_desired, sink_consumed

    # The steps below spell ``min(a, b)`` as ``b if b < a else a`` and
    # ``max(a, b)`` as ``b if b > a else a``: the builtins' results,
    # ties and NaN included, without a call. Each lane adds its counters
    # to its metrics lists in place, the four adds of
    # :meth:`MetricsManager.record_rows` per list. A step's one-lane
    # path (a :data:`_Solo`) does for its one lane what the general
    # path does lane by lane, with :func:`fill_lane` for the
    # water-fill.

    def _source_step(
        self,
        op: _Op,
        budgets: Sequence[float],
        now: float,
        dt: float,
        limit: _Limit,
        emit: _EmitStep,
    ) -> Tuple[float, float]:
        """Generate and emit a source's records; returns (emitted,
        desired)."""
        _, name, _, lanes, counts, routes, _, _, cost, extra, solo = op
        schedule, width = extra
        backlogs = self._backlogs
        desired = schedule.rate_at(now) * dt
        available = desired + backlogs[name]
        cap = desired * self._catchup
        # min(available, max(cap, desired))
        most = desired if desired > cap else cap
        want = most if most < available else available
        # Each source instance generates an equal share of the stream;
        # the shared downstream space is divided fairly among them.
        share = want / width
        emitted_total = 0.0
        if solo is not None:
            _, count, _, row = solo
            space = limit(routes) if self._blocking else _INF
            by_budget = _INF if cost <= 0 else budgets[0] / cost
            emitted = fill_lane(
                space, by_budget if by_budget < share else share, count
            )
            emit(routes, emitted, count)
            useful = emitted * cost
            if dt < useful:
                useful = dt
            idle = dt - useful
            if not idle > 0.0:
                idle = 0.0
            row[0] += emitted
            row[1] += emitted
            row[2] += useful
            row[3] += idle
            for _ in range(count):
                emitted_total += emitted
        else:
            space = limit(routes) if self._blocking else _INF
            desires = []
            for budget in budgets:
                by_budget = _INF if cost <= 0 else budget / cost
                desires.append(by_budget if by_budget < share else share)
            allocations = fair_allocate(space, desires, counts)
            for (_, count, _, _, rows), emitted in zip(lanes, allocations):
                emit(routes, emitted, count)
                useful = emitted * cost
                if dt < useful:
                    useful = dt
                idle = dt - useful
                if not idle > 0.0:
                    idle = 0.0
                for row in rows:
                    row[0] += emitted
                    row[1] += emitted
                    row[2] += useful
                    row[3] += idle
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
        """Run a non-window operator; returns records consumed at a
        sink (0.0 at any other operator, whose value the tick drops)."""
        _, name, sink, lanes, counts, routes, selectivity, growth = op[:8]
        cost = op[8] * self._jitter[name]
        solo = op[10]
        # Nothing refills this operator's queues before it runs: its
        # upstream operators come later in the (reverse topological)
        # tick order.
        consumed_total = 0.0
        if solo is not None:
            lane, count, ports, row = solo
            space = _INF if sink else limit(routes)
            total = sum(map(_LENGTH, ports))
            by_budget = _INF if cost <= 0 else budgets[0] / cost
            pull_cap = _INF if selectivity <= 0 else space / selectivity
            allowed = fill_lane(
                pull_cap, by_budget if by_budget < total else total, count
            )
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
            if not idle > 0.0:
                idle = 0.0
            row[0] += processed
            row[1] += pushed
            row[2] += useful
            row[3] += idle
            if sink:
                for _ in range(count):
                    consumed_total += processed
            if growth > 0:
                self._state.record_processed_block(
                    name, (processed,), counts
                )
            return consumed_total
        # Shared downstream space for this operator's emissions this
        # tick, in output records; divided fairly among the instances
        # so that a squeezed instance does not distort the
        # backpressure limit seen by upstream operators.
        space = _INF if sink else limit(routes)
        totals = []
        desires = []
        for (_, _, _, ports, _), budget in zip(lanes, budgets):
            total = sum(map(_LENGTH, ports))
            totals.append(total)
            by_budget = _INF if cost <= 0 else budget / cost
            desires.append(by_budget if by_budget < total else total)
        pull_cap = _INF if selectivity <= 0 else space / selectivity
        allocations = fair_allocate(pull_cap, desires, counts)
        processed_lanes = []
        for (lane, count, _, _, rows), allowed, total in zip(
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
            if not idle > 0.0:
                idle = 0.0
            for row in rows:
                row[0] += processed
                row[1] += pushed
                row[2] += useful
                row[3] += idle
            processed_lanes.append(processed)
            if sink:
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
        at a sink (0.0 at any other operator).

        Fire work and assignment work share each instance's budget
        proportionally to their demands (the scheduler interleaves
        them); a fire-first priority would let a large fire backlog
        starve input reading entirely, collapsing throughput instead
        of degrading it."""
        _, name, sink, lanes, counts, routes, fire_sel, growth = op[:8]
        cost, replication, solo = op[8:]
        assign_cost, fire_cost = _window_costs(cost, self._jitter[name])
        consumed_total = 0.0
        if solo is not None:
            lane, count, ports, row = solo
            space = _INF if sink else limit(routes)
            budget = budgets[0]
            total = sum(map(_LENGTH, ports))
            backlog = lane.fire_backlog
            fire_demand = backlog * fire_cost
            total_demand = fire_demand + total * assign_cost
            fire_budget = 0.0
            if not total_demand <= 0:
                share = fire_demand / total_demand
                fire_budget = budget * (share if share < 1.0 else 1.0)
            by_budget = _INF if fire_cost <= 0 else fire_budget / fire_cost
            fire_cap = _INF if fire_sel <= 0 else space / fire_sel
            fired = fill_lane(
                fire_cap, by_budget if by_budget < backlog else backlog, count
            )
            useful = 0.0
            pushed = 0.0
            if not fired <= 0:
                lane.fire_backlog -= fired
                emitted = fired * fire_sel
                emit(routes, emitted, count)
                useful += fired * fire_cost
                pushed += emitted
                left = budget - fired * fire_cost
                budget = left if left > 0.0 else 0.0
            by_budget = (
                _INF if assign_cost <= 0 else budget / assign_cost
            )
            assigned = lane.pop_records(
                by_budget if by_budget < total else total, total
            )
            window = lane.window
            assert window is not None
            window.buffered += assigned * replication
            useful += assigned * assign_cost
            pulled = 0.0
            pulled += assigned
            released, _fires = window.maybe_fire(end_time)
            lane.fire_backlog += released
            if dt < useful:
                useful = dt
            idle = dt - useful
            if not idle > 0.0:
                idle = 0.0
            row[0] += pulled
            row[1] += pushed
            row[2] += useful
            row[3] += idle
            if sink:
                for _ in range(count):
                    consumed_total += pulled
            if growth > 0:
                self._state.record_processed_block(name, (pulled,), counts)
            return consumed_total
        space = _INF if sink else limit(routes)
        totals = []
        fire_desires = []
        for (lane, _, _, ports, _), budget in zip(lanes, budgets):
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
                _INF if fire_cost <= 0 else fire_budget / fire_cost
            )
            fire_desires.append(
                by_budget if by_budget < backlog else backlog
            )
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        fire_cap = _INF if fire_sel <= 0 else space / fire_sel
        fired_alloc = fair_allocate(fire_cap, fire_desires, counts)
        pulled_lanes = []
        for (lane, count, _, _, rows), budget, total, fired in zip(
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
                _INF if assign_cost <= 0 else budget / assign_cost
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
            if not idle > 0.0:
                idle = 0.0
            for row in rows:
                row[0] += pulled
                row[1] += pushed
                row[2] += useful
                row[3] += idle
            pulled_lanes.append(pulled)
            if sink:
                for _ in range(count):
                    consumed_total += pulled
        if growth > 0:
            self._state.record_processed_block(name, pulled_lanes, counts)
        return consumed_total


__all__ = [
    "Carry",
    "EngineState",
    "InstanceState",
    "ObjectEngine",
    "PortState",
    "WindowBuffer",
    "lane_runs",
]
