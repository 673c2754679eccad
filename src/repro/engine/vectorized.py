"""Struct-of-arrays engine backend (the ``vector`` engine).

The ``object`` backend (:class:`~repro.engine.objects.ObjectEngine`)
steps one Python object per operator instance: a dict of
:class:`~repro.engine.buffers.Queue` per port, a scalar fire backlog,
and per-instance loops for routing, budget allocation, and metrics. That
is O(upstream x downstream) Queue pushes per edge per tick — the binding
constraint on wide deployments (the Nexmark queries run up to 36 slots).

This module holds the same simulation as flat float64 numpy arrays.
Each deployment owns one :class:`_Arena`: a handful of contiguous
buffers that hold every operator's state back to back, in topological
order. Each operator's :class:`_OpState` fields are views into it:

* ``q_len``, ``q_pushed``, ``q_popped`` — shape ``(K, p)`` for an
  operator with ``K`` input ports (one per upstream edge) and ``p``
  instances, each a block of one flat queue buffer. Column ``j`` of
  row ``k`` is instance ``j``'s port queue for upstream ``k``: its
  current length and the cumulative pushed / popped conservation
  counters of :class:`~repro.engine.buffers.Queue`.
* ``fire_backlog`` — shape ``(p,)``, windowed operators' released but
  unprocessed records, a slice of one ``(N,)`` buffer over all ``N``
  instances of the deployment.
* ``counters`` — shape ``(4, p)``, the tick's ``[pulled, pushed,
  useful, waiting]`` rows, a column block of one ``(4, N)`` buffer
  whose columns are the metrics manager's rows.
* ``weights`` — shape ``(p,)``, the plan's input-partitioning weights
  for the operator (how upstream output is split across its instances).

The tick still steps operators one by one in reverse topological order
for the phases that depend on that order (downstream limit, budget
allocation, pop, emit, window fire). The phases that do not — the
conservation check, the backpressure and fill scan, the metrics
record, demand estimates and latency delays — run once per tick over
the whole arena. Every write to operator state goes into the views in
place (``[...] =`` or ``out=``): rebinding a field would detach the
operator from its arena, and the arena-wide passes would read stale
state.

Window state (:class:`~repro.dataflow.windowing.WindowState`) is held
as ``win_buffered`` — shape ``(p,)``, per-instance buffered records, a
slice of the arena's ``(N,)`` buffer — plus one shared fire clock
(``win_next_fire`` / ``win_last_check``) per operator: every instance
of a window operator is created, reset, and fired with the same spec
and the same virtual times, so the scalar clocks advance in
bit-identical lockstep and only ``buffered`` varies per instance.
:meth:`VectorEngine.materialize_instances` rebuilds real
``WindowState`` objects from these arrays on demand.

The cost of a tick here is a fixed number of small numpy calls per
operator plus a few per tick, nearly independent of the parallelism,
so the backend wins on wide plans and loses on narrow ones. Width-1
sources, width-1 single-port operators without a window, and the
pushes into any width-1 queue skip numpy altogether: they run as float
code on their arena cells, because a numpy call on a one-element array
costs more than the arithmetic it does. :func:`width_backend` picks a
backend per deployment from the plan's widest operator, and a redeploy
may switch backends by handing the old one's :data:`Carry` to the new
one.

**Equivalence contract.** The vector backend must produce *bit-identical*
decisions, metrics, traces, and scorecards to the object backend. Every
array operation below is chosen to replay the scalar float64 operations
of the object backend exactly:

* element-wise float64 arithmetic (`+`, `-`, `*`, `/`) is IEEE-754 and
  matches the scalar interpreter operation for operation;
* ``np.minimum`` / ``np.maximum`` argument order mirrors the scalar
  ``min`` / ``max`` calls (both return the first argument on ties);
* reductions that the object backend performs with sequential
  left-to-right Python ``sum`` / ``+=`` are replayed as sequential
  loops over ``.tolist()`` (``np.sum`` uses pairwise blocking and is
  *not* bit-identical) — min/max reductions are order-free and safe;
* queue pushes replay the object backend's base-dependent sequential
  accumulation with ``np.cumsum`` down the base row stacked over the
  amounts (cumsum is sequential by definition); columns where a bounded
  queue would clamp an individual push fall back to an exact scalar
  replay;
* the float code of width-1 operators and width-1 queues performs the
  object backend's own float operations, in the same order (its pop is
  the single-port ``min(amount, length)``, argued at
  :meth:`VectorEngine._pop_batch`).

The shortcuts that keep the per-operator call count down are exact too;
``docs/performance.md`` gives the argument for each. The contract is
enforced by ``tests/engine/test_vector_equivalence.py`` and by the
full tier-1 suite (golden trace, chaos scorecards) that
``scripts/check.sh`` runs once per backend.
"""

# Bit-identity contract of docs/performance.md: reductions here must stay
# sequential; tests/engine/test_vector_equivalence.py enforces it.
from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import fair_allocate, fair_allocate_batch
from repro.engine.npcompat import HAVE_NUMPY, FloatArray, np
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.objects import _Instance
    from repro.engine.simulator import Simulator

#: Environment variable pinning the engine backend for simulators
#: constructed without an explicit ``backend=`` argument.
ENGINE_ENV = "REPRO_ENGINE"

#: Recognized backend names.
BACKENDS = ("object", "vector")

#: Parallelism of a plan's widest operator at and above which the
#: vector backend is used. Below it the backend's fixed numpy cost per
#: operator per tick outweighs what it saves per instance; the measured
#: crossover is in benchmarks/output/engine_speedup.txt.
VECTOR_MIN_WIDTH = 8


def resolve_backend(backend: Optional[str]) -> Optional[str]:
    """The pinned engine backend: the explicit argument if given, else
    the ``REPRO_ENGINE`` environment variable, else None (pick from the
    plan, see :func:`width_backend`)."""
    chosen = backend if backend is not None else (
        os.environ.get(ENGINE_ENV) or None
    )
    if chosen is None:
        return None
    if chosen not in BACKENDS:
        raise EngineError(
            f"unknown engine backend {chosen!r}; expected one of "
            f"{BACKENDS} (see the {ENGINE_ENV} environment variable)"
        )
    if chosen == "vector" and not HAVE_NUMPY:
        raise EngineError(
            "the vector engine backend requires numpy; install numpy "
            f"or select {ENGINE_ENV}=object"
        )
    return chosen


def width_backend(plan: PhysicalPlan) -> str:
    """The width rule: ``vector`` when numpy is available and the
    plan's widest operator has at least :data:`VECTOR_MIN_WIDTH`
    instances, else ``object``."""
    widest = max(plan.parallelism.values())
    if HAVE_NUMPY and widest >= VECTOR_MIN_WIDTH:
        return "vector"
    return "object"


#: Carried state of a deployment, per operator: records queued per
#: input port, window-buffered records, and fire backlog, each summed
#: over the instances in index order. A redeploy reduces instance state
#: to exactly these totals and spreads them over the new instances by
#: the plan's input weights, on either backend.
Carry = Dict[str, Tuple[Dict[str, float], float, float]]


class _Arena:
    """One deployment's operator state in contiguous float64 buffers.

    Operators are laid out back to back in topological order, which is
    also the metrics manager's row order, so column ``row_start + j``
    of the ``(N,)`` and ``(4, N)`` buffers is instance ``j`` of the
    operator whose first row is ``row_start``. Each operator's queue
    block ``(K, p)`` occupies ``K * p`` consecutive cells of the flat
    queue buffers, port-major. The arena also holds the index arrays
    its per-tick passes need; they are fixed for the deployment.
    """

    __slots__ = (
        "q_len",
        "q_pushed",
        "q_popped",
        "fire_backlog",
        "win_buffered",
        "counters",
        "drift",
        "bound",
        "bad",
        "row_starts",
        "queue_starts",
        "op_rows",
        "ported",
        "ported_cells",
    )

    def __init__(self, blocks: Sequence[Tuple[int, int]]) -> None:
        """``blocks`` holds each operator's ``(ports, parallelism)``,
        in topological order."""
        row_starts: List[int] = []
        queue_starts: List[int] = []
        rows = cells = 0
        for ports, parallelism in blocks:
            row_starts.append(rows)
            queue_starts.append(cells)
            rows += parallelism
            cells += ports * parallelism
        self.row_starts = tuple(row_starts)
        self.queue_starts = tuple(queue_starts)
        self.q_len: FloatArray = np.zeros(cells, dtype=np.float64)
        self.q_pushed: FloatArray = np.zeros(cells, dtype=np.float64)
        self.q_popped: FloatArray = np.zeros(cells, dtype=np.float64)
        # Zero at every instance of an operator that has no window.
        self.fire_backlog: FloatArray = np.zeros(rows, dtype=np.float64)
        self.win_buffered: FloatArray = np.zeros(rows, dtype=np.float64)
        # The tick's [pulled, pushed, useful, waiting] rows, one column
        # per metrics row; rewritten in full every active tick.
        self.counters: FloatArray = np.zeros((4, rows), dtype=np.float64)
        # Scratch of the conservation check.
        self.drift: FloatArray = np.empty(cells, dtype=np.float64)
        self.bound: FloatArray = np.empty(cells, dtype=np.float64)
        self.bad: FloatArray = np.empty(cells, dtype=np.bool_)
        # First row of every operator (every block is non-empty), and
        # first queue cell of every operator that has ports: the
        # segment starts of the per-operator maxima (``reduceat`` needs
        # non-empty segments, so portless operators are left out).
        self.op_rows = np.array(row_starts, dtype=np.intp)
        self.ported = tuple(
            i for i, (ports, _) in enumerate(blocks) if ports
        )
        self.ported_cells = np.array(
            [queue_starts[i] for i in self.ported], dtype=np.intp
        )


class _OpState:
    """Struct-of-arrays state of one operator's instances: views into
    its deployment's :class:`_Arena` plus per-operator constants."""

    __slots__ = (
        "name",
        "spec",
        "parallelism",
        "ports",
        "port_index",
        "capacity",
        "q_len",
        "q_pushed",
        "q_popped",
        "fire_backlog",
        "win_buffered",
        "win_next_fire",
        "win_last_check",
        "weights",
        "positive",
        "row_start",
        "row_stop",
        "targets",
        "zeros",
        "counters",
        "scalar",
    )

    def __init__(
        self,
        name: str,
        spec: OperatorSpec,
        parallelism: int,
        ports: Tuple[str, ...],
        capacity: Optional[float],
        weights: Tuple[float, ...],
        arena: _Arena,
        position: int,
    ) -> None:
        """``position`` is the operator's index in the arena's
        topological layout."""
        self.name = name
        self.spec = spec
        self.parallelism = parallelism
        self.ports = ports
        self.port_index: Dict[str, int] = {
            port: k for k, port in enumerate(ports)
        }
        self.capacity = capacity
        shape = (len(ports), parallelism)
        first = arena.queue_starts[position]
        cells = slice(first, first + len(ports) * parallelism)
        self.q_len: FloatArray = arena.q_len[cells].reshape(shape)
        self.q_pushed: FloatArray = arena.q_pushed[cells].reshape(shape)
        self.q_popped: FloatArray = arena.q_popped[cells].reshape(shape)
        self.row_start = arena.row_starts[position]
        self.row_stop = self.row_start + parallelism
        rows = slice(self.row_start, self.row_stop)
        self.fire_backlog: FloatArray = arena.fire_backlog[rows]
        # Window state, struct-of-arrays: the per-instance ``buffered``
        # amounts plus the shared fire clock. All instances of a window
        # operator are created, reset, and fired together with the same
        # spec and the same virtual times, so their ``next_fire`` /
        # ``_last_check`` scalars advance in bit-identical lockstep —
        # one copy is enough.
        self.win_buffered: Optional[FloatArray] = (
            None if spec.window is None else arena.win_buffered[rows]
        )
        self.win_next_fire = 0.0
        self.win_last_check = 0.0
        self.weights: FloatArray = np.array(weights, dtype=np.float64)
        # Instances that receive input; None when all of them do.
        positive = self.weights > 0
        self.positive: Optional[FloatArray] = (
            None if bool(positive.all()) else positive
        )
        # Per output edge, set by deploy: the downstream operator state,
        # this operator's port index there, and the edge's scratch for
        # _emit — ``stack`` (base row over this operator's per-instance
        # amounts) and ``sums`` (its running sums), both
        # ``(p + 1, downstream p)``.
        self.targets: Tuple[
            Tuple["_OpState", int, FloatArray, FloatArray], ...
        ] = ()
        # Read-only zeros: the start of the per-instance sequential
        # sums, and a sink's pushed counters.
        self.zeros: FloatArray = np.zeros(parallelism, dtype=np.float64)
        # The tick's [pulled, pushed, useful, waiting] rows: the
        # operator writes pulled, pushed and its raw useful time, and
        # VectorEngine.record_metrics finishes every column at once.
        self.counters: FloatArray = arena.counters[:, rows]
        # Width-1 sources and width-1 single-port operators without a
        # window run as float code on their arena cells; every other
        # operator runs on arrays.
        self.scalar = parallelism == 1 and (
            spec.is_source or (len(ports) == 1 and spec.window is None)
        )

    def queue_totals(self) -> FloatArray:
        """Records queued per instance, summed across ports in port
        order — the sequential sum of ``_Instance.total_queue_length``
        (``0 + q0 + q1 ...``) replayed element-wise."""
        totals = self.zeros
        for k in range(len(self.ports)):
            totals = totals + self.q_len[k]
        return totals if self.ports else self.zeros.copy()

    def pending(self) -> FloatArray:
        """Per-instance pending records: queued + fire backlog +
        window buffer (mirrors ``_Instance.pending_records``)."""
        extra = self.fire_backlog
        if self.win_buffered is not None:
            extra = extra + self.win_buffered
        return self.queue_totals() + extra


class VectorEngine:
    """The struct-of-arrays tick loop behind ``backend="vector"``.

    A friend object of :class:`~repro.engine.simulator.Simulator` and a
    peer of :class:`~repro.engine.objects.ObjectEngine`, answering the
    same methods: the simulator keeps the orchestration (tick order,
    outages, telemetry, TickStats, per-deployment costs and budgets)
    and delegates every per-instance loop here. All methods mutate the
    per-operator arrays in place.
    """

    #: The metrics manager's row layout this engine writes (one
    #: ``(n, 5)`` array, see :meth:`MetricsManager.register_instances`).
    metric_blocks = True

    def __init__(self, sim: "Simulator") -> None:
        if not HAVE_NUMPY:
            raise EngineError(
                "the vector engine backend requires numpy"
            )
        self._sim = sim
        self._graph = sim.graph
        self._ops: Dict[str, _OpState] = {}
        self._arena = _Arena(())
        # Bounded operators with ports: their positions among the
        # arena's ported operators, names, and queue capacities.
        self._bounded: FloatArray = np.zeros(0, dtype=np.intp)
        self._bounded_names: Tuple[str, ...] = ()
        self._capacities: FloatArray = np.zeros(0, dtype=np.float64)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def carry(self) -> Carry:
        """The live array state reduced to carried totals (see
        :data:`Carry`), summed instance by instance as
        ``ObjectEngine.carry`` does."""
        carried: Carry = {}
        for name, op in self._ops.items():
            per_port: Dict[str, float] = {}
            for k, port in enumerate(op.ports):
                total = 0.0
                for value in op.q_len[k].tolist():
                    total += value
                per_port[port] = total
            buffered = 0.0
            if op.win_buffered is not None:
                for value in op.win_buffered.tolist():
                    buffered += value
            backlog = 0.0
            for value in op.fire_backlog.tolist():
                backlog += value
            carried[name] = (per_port, buffered, backlog)
        return carried

    def deploy(self, plan: PhysicalPlan, carried: Carry) -> None:
        """Build a fresh arena for ``plan`` from the ``carried`` totals
        of the previous deployment (empty on the first) — the vector
        replay of ``ObjectEngine.deploy``."""
        sim = self._sim
        order = self._graph.topological_order()
        ports_of = {
            name: tuple(self._graph.upstream(name)) for name in order
        }
        arena = _Arena(
            [
                (len(ports_of[name]), plan.parallelism_of(name))
                for name in order
            ]
        )
        self._arena = arena
        self._ops = {}
        for position, name in enumerate(order):
            spec = self._graph.operator(name)
            parallelism = plan.parallelism_of(name)
            ports = ports_of[name]
            op = _OpState(
                name=name,
                spec=spec,
                parallelism=parallelism,
                ports=ports,
                capacity=sim.runtime.queue_capacity(spec, parallelism),
                weights=plan.input_weights(name),
                arena=arena,
                position=position,
            )
            queued_by_port, buffered, backlog = carried.get(
                name, ({}, 0.0, 0.0)
            )
            for k, port in enumerate(ports):
                queued = queued_by_port.get(port, 0.0)
                # force_push of queued * weight per instance: length
                # and the cumulative pushed counter both start there.
                np.multiply(queued, op.weights, out=op.q_len[k])
                op.q_pushed[k] = op.q_len[k]
            np.multiply(backlog, op.weights, out=op.fire_backlog)
            if op.win_buffered is not None:
                assert spec.window is not None
                # One WindowState carries the fire-clock reset semantics
                # for the whole instance block (lockstep, see _OpState).
                clock = WindowState(spec=spec.window)
                clock.reset(sim.time)
                np.multiply(buffered, op.weights, out=op.win_buffered)
                op.win_next_fire = clock.next_fire
                op.win_last_check = clock._last_check
            self._ops[name] = op
        for name, op in self._ops.items():
            targets = []
            for down in self._graph.downstream(name):
                dop = self._ops[down]
                shape = (op.parallelism + 1, dop.parallelism)
                targets.append(
                    (
                        dop,
                        dop.port_index[name],
                        np.empty(shape, dtype=np.float64),
                        np.empty(shape, dtype=np.float64),
                    )
                )
            op.targets = tuple(targets)
        ops = list(self._ops.values())
        bounded = [
            (slot, ops[position])
            for slot, position in enumerate(arena.ported)
            if ops[position].capacity is not None
        ]
        self._bounded = np.array(
            [slot for slot, _ in bounded], dtype=np.intp
        )
        self._bounded_names = tuple(op.name for _, op in bounded)
        self._capacities = np.array(
            [op.capacity for _, op in bounded], dtype=np.float64
        )

    def grant(
        self, budgets: Dict[str, List[float]]
    ) -> Dict[str, FloatArray]:
        """The runtime's per-operator budget lists as the float64
        arrays this engine's tick reads."""
        return {
            name: np.array(values, dtype=np.float64)
            for name, values in budgets.items()
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def queue_length(self, name: str) -> float:
        """Total pending records at an operator (all instances)."""
        total = 0.0
        for value in self._ops[name].pending().tolist():
            total += value
        return total

    def total_queued(self) -> float:
        """Records queued anywhere inside the dataflow."""
        total = 0.0
        for op in self._ops.values():
            for value in op.pending().tolist():
                total += value
        return total

    def _bounded_fills(self) -> FloatArray:
        """``max(len) / capacity`` of every bounded operator with
        ports, in topological order, from one ``reduceat`` over the
        arena's queue lengths. Maxima are order-free, so each is the
        operator's own ``q_len.max()``."""
        maxima = np.maximum.reduceat(
            self._arena.q_len, self._arena.ported_cells
        )[self._bounded]
        return np.divide(maxima, self._capacities, out=maxima)

    def max_fill(self, name: str) -> float:
        """Worst port occupancy across the operator's instances (0 when
        unbounded or portless). ``min(1, max(len) / capacity)`` is the
        maximum of the per-queue fills ``min(1, len / capacity)``:
        correctly rounded division by a positive constant and
        ``min(1, .)`` are both monotone."""
        if name not in self._bounded_names:
            return 0.0
        fills = self._bounded_fills()
        return min(1.0, fills.item(self._bounded_names.index(name)))

    def backpressured(self) -> Tuple[str, ...]:
        """Operators with a bounded port at or above the runtime's
        backpressure threshold, in topological order.

        One ``max`` per operator: ``min(1, len / capacity) >= t`` holds
        for some queue exactly when ``max(len) / capacity >= t``,
        because division by a positive capacity is monotone and, for a
        threshold ``t <= 1``, ``min(1, x) >= t`` is ``x >= t``. A
        threshold above 1 is never reached."""
        threshold = self._sim.runtime.backpressure_threshold
        if threshold > 1.0 or not self._bounded_names:
            return ()
        return tuple(
            name
            for name, fill in zip(
                self._bounded_names, self._bounded_fills().tolist()
            )
            if fill >= threshold
        )

    def check_invariants(self) -> None:
        """Queue conservation and non-negative fire backlogs (the
        vector replay of ``Queue.check_conservation``), one pass over
        the whole arena. On a violation the error names the first one
        in the object backend's order (see
        :meth:`_raise_first_violation`)."""
        arena = self._arena
        queues_bad = False
        if len(arena.q_len):
            drift, bound, bad = arena.drift, arena.bound, arena.bad
            np.subtract(arena.q_pushed, arena.q_popped, out=drift)
            np.subtract(drift, arena.q_len, out=drift)
            np.abs(drift, out=drift)
            np.maximum(1.0, arena.q_pushed, out=bound)
            np.multiply(1e-6, bound, out=bound)
            np.greater(drift, bound, out=bad)
            queues_bad = np.count_nonzero(bad) > 0
        if queues_bad or float(arena.fire_backlog.min()) < -1e-6:
            self._raise_first_violation()

    def _raise_first_violation(self) -> None:
        """Raise what the object backend's check raises: it walks the
        operators in topological order, each one's instances in index
        order, and checks an instance's ports in port order before its
        fire backlog. ``arena.bad`` holds the queue verdicts of the
        pass that just ran."""
        arena = self._arena
        for position, op in enumerate(self._ops.values()):
            first = arena.queue_starts[position]
            bad = arena.bad[first:first + op.q_len.size].reshape(
                op.q_len.shape
            )
            for j in range(op.parallelism):
                for k in range(len(op.ports)):
                    if bad[k, j]:
                        raise EngineError(
                            "queue conservation violated: "
                            f"pushed={float(op.q_pushed[k, j])} "
                            f"popped={float(op.q_popped[k, j])} "
                            f"length={float(op.q_len[k, j])}"
                        )
                if float(op.fire_backlog[j]) < -1e-6:
                    raise EngineError(
                        f"negative fire backlog at {InstanceId(op.name, j)}"
                    )

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def _write_work(self, op: _OpState, out: FloatArray) -> None:
        """Write a non-source operator's seconds of pending work per
        instance into ``out``: queue totals times the per-record cost,
        plus fire backlog times the fire cost at a window operator —
        the element-wise replay of ``ObjectEngine._work``."""
        sim = self._sim
        if op.win_buffered is None:
            np.multiply(op.queue_totals(), sim._unit_cost(op.name), out=out)
        else:
            assign_cost, fire_cost = sim._window_costs(op.name)
            np.multiply(op.queue_totals(), assign_cost, out=out)
            out += op.fire_backlog * fire_cost

    def estimate_demands(self, dt: float) -> Dict[str, List[float]]:
        """Seconds of pending work per instance, one list per operator
        in topological order (consumed by ``Runtime.budgets``), read
        out of one ``(N,)`` buffer in one ``tolist``."""
        sim = self._sim
        work = np.empty(len(self._arena.fire_backlog), dtype=np.float64)
        for name, op in self._ops.items():
            block = work[op.row_start:op.row_stop]
            if op.spec.is_source:
                schedule = op.spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                per_instance = (
                    rate * dt + sim._source_backlog[name]
                ) / op.parallelism
                cost = sim._source_cost(name)
                block.fill(per_instance * max(cost, 1e-9))
            else:
                self._write_work(op, block)
        values = work.tolist()
        return {
            name: values[op.row_start:op.row_stop]
            for name, op in self._ops.items()
        }

    def operator_delays(self) -> Dict[str, float]:
        """Per-operator drain delays for the record-latency tracker
        (the vector replay of ``ObjectEngine.operator_delays``): each
        operator's maximum pending work, from one ``reduceat`` over an
        ``(N,)`` buffer of every instance's work."""
        sim = self._sim
        work = np.zeros(len(self._arena.fire_backlog), dtype=np.float64)
        for op in self._ops.values():
            if not op.spec.is_source:
                self._write_work(op, work[op.row_start:op.row_stop])
        maxima = np.maximum.reduceat(work, self._arena.op_rows).tolist()
        delays: Dict[str, float] = {}
        for (name, op), longest in zip(self._ops.items(), maxima):
            if op.spec.is_source:
                schedule = op.spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                backlog = sim._source_backlog[name]
                delays[name] = backlog / rate if rate > 0 else 0.0
            else:
                delays[name] = longest
        return delays

    def record_metrics(self, dt: float) -> None:
        """Finish the tick's counters and hand them to the metrics
        manager in one call: ``useful = min(raw useful, dt)`` and
        ``waiting = max(0, dt - useful)`` over the whole arena, then one
        ``record_block`` over every row. Each operator wrote its pulled,
        pushed and raw useful rows during the tick; every column is
        rewritten every active tick and nothing reads the accumulators
        mid-tick, so one end-of-tick add per element is the per-operator
        add it replaces."""
        counters = self._arena.counters
        useful, waiting = counters[2], counters[3]
        np.minimum(useful, dt, out=useful)
        np.subtract(dt, useful, out=waiting)
        np.maximum(0.0, waiting, out=waiting)
        self._sim.metrics_manager.record_block(
            0, counters.shape[1], counters
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _downstream_limit(op: _OpState) -> float:
        """Maximum records ``op`` may emit right now without
        overflowing any downstream instance queue (inf if unbounded).
        A width-1 downstream operator is read as floats: the object
        backend's ``free_space / weight`` for its one queue."""
        limit = math.inf
        for dop, k, _, _ in op.targets:
            capacity = dop.capacity
            if capacity is None:
                continue
            if dop.parallelism == 1:
                weight = dop.weights.item(0)
                if weight > 0:
                    free = max(0.0, capacity - dop.q_len.item(k, 0))
                    limit = min(limit, free / weight)
                continue
            free = np.maximum(0.0, capacity - dop.q_len[k])
            if dop.positive is None:
                ratios = free / dop.weights
            elif np.count_nonzero(dop.positive):
                ratios = free[dop.positive] / dop.weights[dop.positive]
            else:
                continue
            limit = min(limit, float(ratios.min()))
        return limit

    @staticmethod
    def _emit(op: _OpState, emits: FloatArray) -> None:
        """Distribute per-upstream-instance emissions across every
        downstream instance queue.

        The object backend pushes nothing for a zero emission, and
        adding zeros would leave every queue unchanged, so an all-zero
        ``emits`` returns at once. A width-1 downstream operator takes
        the pushes one by one (:meth:`_push_one`), a wider one as an
        ``(p, p_down)`` block (:meth:`_push_block`).
        """
        if not np.count_nonzero(emits):
            return
        records: Optional[List[float]] = None
        for dop, k, stack, sums in op.targets:
            if dop.parallelism == 1:
                if records is None:
                    records = emits.tolist()
                VectorEngine._push_one(dop, k, records)
            else:
                np.multiply.outer(emits, dop.weights, out=stack[1:])
                VectorEngine._push_block(dop, k, stack, sums)

    @staticmethod
    def _emit_one(op: _OpState, records: float) -> None:
        """:meth:`_emit` for a width-1 operator's one emission, as a
        float — ``ObjectEngine._emit`` for its one instance."""
        if records <= 0:
            return
        for dop, k, stack, sums in op.targets:
            if dop.parallelism == 1:
                VectorEngine._push_one(dop, k, (records,))
            else:
                np.multiply(records, dop.weights, out=stack[1])
                VectorEngine._push_block(dop, k, stack, sums)

    @staticmethod
    def _push_one(dop: _OpState, k: int, records: Sequence[float]) -> None:
        """Push ``records[i] * weight`` into port ``k`` of a width-1
        operator, one upstream instance after the other, as floats."""
        weight = dop.weights.item(0)
        if not weight > 0:
            # The object backend routes nothing to a zero-weight queue.
            return
        # Nor does it push an emission <= 0.
        amounts = [record * weight for record in records if not record <= 0]
        dop.q_len[k, 0], dop.q_pushed[k, 0] = VectorEngine._replay_pushes(
            dop, 0, dop.q_len.item(k, 0), dop.q_pushed.item(k, 0), amounts
        )

    @staticmethod
    def _replay_pushes(
        dop: _OpState,
        j: int,
        length: float,
        pushed: float,
        amounts: Sequence[float],
    ) -> Tuple[float, float]:
        """``Queue.push`` of each amount in turn into a queue of
        instance ``j`` that holds ``length`` records and has accepted
        ``pushed``, with the object backend's overflow error; returns
        the new length and pushed counter."""
        capacity = dop.capacity
        for amount in amounts:
            space = (
                math.inf if capacity is None
                else max(0.0, capacity - length)
            )
            accepted = min(amount, space)
            length += accepted
            pushed += accepted
            if accepted < amount - 1e-6:
                raise EngineError(
                    f"emission overflow into {InstanceId(dop.name, j)}: "
                    "the downstream limit computation is inconsistent"
                )
        return length, pushed

    @staticmethod
    def _push_block(
        dop: _OpState, k: int, stack: FloatArray, sums: FloatArray
    ) -> None:
        """Push the amounts in ``stack[1:]`` (upstream instance by
        downstream instance) into port ``k`` of a wide operator.

        For downstream instance ``j`` the object backend pushes the
        amounts ``emits[i] * weight[j]`` sequentially over upstream
        instances ``i``; ``np.cumsum`` down ``stack`` (the base row over
        the amounts) replays that base-dependent sequence exactly, and
        with one upstream instance it is the single sum ``base +
        amount``. Columns where a bounded queue would clamp an
        individual push (backpressure epsilon cases) are replayed
        scalar-exactly instead; one count over the whole block decides
        whether any column needs it.
        """
        amounts = stack[1:]
        single = len(amounts) == 1
        base_len = dop.q_len[k]
        base_pushed = dop.q_pushed[k]
        if single:
            starts = base_len[None, :]
            new_len = base_len + amounts[0]
        else:
            stack[0] = base_len
            np.cumsum(stack, axis=0, out=sums)
            starts = sums[:-1]
            new_len = sums[-1]
        replayed: List[Tuple[int, float, float]] = []
        capacity = dop.capacity
        if capacity is not None:
            # A push clamps when its amount exceeds the free space
            # seen at that step; before the first clamp the
            # unclamped partial sums are the true lengths, so the
            # test is exact.
            clamped = amounts > np.maximum(0.0, capacity - starts)
            if np.count_nonzero(clamped):
                columns = np.flatnonzero(clamped.any(axis=0))
                for j in columns.tolist():
                    length, pushed = VectorEngine._replay_pushes(
                        dop,
                        j,
                        float(base_len[j]),
                        float(base_pushed[j]),
                        amounts[:, j].tolist(),
                    )
                    replayed.append((j, length, pushed))
        dop.q_len[k] = new_len
        if single:
            dop.q_pushed[k] = base_pushed + amounts[0]
        else:
            stack[0] = base_pushed
            np.cumsum(stack, axis=0, out=sums)
            dop.q_pushed[k] = sums[-1]
        for j, length, pushed in replayed:
            dop.q_len[k, j] = length
            dop.q_pushed[k, j] = pushed

    @staticmethod
    def _pop_batch(
        op: _OpState, amounts: FloatArray, totals: FloatArray
    ) -> FloatArray:
        """Remove up to ``amounts[j]`` records from instance ``j``,
        drawing from each port proportionally to its backlog — the
        vector replay of ``_Instance.pop_records`` (including the
        drain-everything shortcut and the negative-drift clamp).
        ``totals`` is :meth:`_OpState.queue_totals`, unchanged since
        the caller computed it.

        With one port the replay is ``min(amount, length)``: the
        port's share ``amount * (length / total)`` is ``amount * 1.0``
        because the port holds the whole total, a drain removes the
        whole length, and amounts are never negative; the remaining
        length ``length - min(amount, length)`` cannot go below zero.
        """
        if not op.ports:
            return np.zeros(op.parallelism, dtype=np.float64)
        if len(op.ports) == 1:
            queue = op.q_len[0]
            removed = np.minimum(amounts, queue)
            np.subtract(queue, removed, out=queue)
            op.q_popped[0] += removed
            return removed
        active = (amounts > 0) & (totals > 0)
        if not np.count_nonzero(active):
            return np.zeros(op.parallelism, dtype=np.float64)
        drain = active & (amounts >= totals)
        partial = active & ~drain
        queues = op.q_len
        removed = np.zeros_like(queues)
        if np.count_nonzero(partial):
            safe_totals = np.where(partial, totals, 1.0)
            shares = amounts * (queues / safe_totals)
            removed = np.where(
                partial, np.minimum(shares, queues), removed
            )
        removed = np.where(drain, queues, removed)
        new_len = queues - removed
        negative = new_len < 0
        if np.count_nonzero(negative):
            worst = float(new_len.min())
            if worst < -1e-6:
                raise EngineError(
                    f"queue length went negative: {worst}"
                )
            new_len = np.where(negative, 0.0, new_len)
        op.q_len[...] = new_len
        op.q_popped += removed
        popped = op.zeros
        for k in range(len(op.ports)):
            popped = popped + removed[k]
        return popped

    # ------------------------------------------------------------------
    # Tick work
    # ------------------------------------------------------------------

    def run_source(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: FloatArray,
        dt: float,
    ) -> Tuple[float, float]:
        """Generate and emit source records; returns
        ``(emitted, desired)`` — the vector replay of
        ``ObjectEngine.run_source``, as float code for a width-1 source."""
        sim = self._sim
        op = self._ops[name]
        schedule = spec.rate
        assert schedule is not None
        rate = schedule.rate_at(sim.time)
        desired = rate * dt
        available = desired + sim._source_backlog[name]
        cap = desired * sim.config.source_catchup_factor
        want = min(available, max(cap, desired))
        if sim.runtime.sources_blocked_by_backpressure:
            space = self._downstream_limit(op)
        else:
            space = math.inf
        cost = sim._source_cost(name)
        share = want / op.parallelism
        counters = op.counters
        if op.scalar:
            desire = share if cost <= 0 else min(share, budgets.item(0) / cost)
            emitted = fair_allocate(space, (desire,))[0]
            self._emit_one(op, emitted)
            counters[0, 0] = emitted
            counters[1, 0] = emitted
            counters[2, 0] = emitted * cost
            emitted_total = 0.0 + emitted
        else:
            if cost <= 0:
                desires = np.full(
                    op.parallelism, share, dtype=np.float64
                )
            else:
                desires = np.minimum(share, budgets / cost)
            allocations = fair_allocate_batch(space, desires)
            self._emit(op, allocations)
            counters[0] = allocations
            counters[1] = allocations
            np.multiply(allocations, cost, out=counters[2])
            emitted_total = 0.0
            for value in allocations.tolist():
                emitted_total += value
        sim._source_backlog[name] = max(
            0.0, available - emitted_total
        )
        return emitted_total, desired

    def run_operator(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: FloatArray,
        end_time: float,
    ) -> float:
        """Run one non-source operator for a tick — the vector replay
        of ``ObjectEngine.run_operator``. Returns the records a sink
        consumed; the tick reads nothing else, so other operators
        return 0."""
        sim = self._sim
        op = self._ops[name]
        if spec.is_sink:
            space = math.inf
        else:
            space = self._downstream_limit(op)
        if op.scalar:
            return self._run_scalar(op, spec, budgets.item(0), space)
        # Nothing refills this operator's queues before it runs: its
        # upstream operators come later in the (reverse topological)
        # tick order.
        totals = op.queue_totals()
        if op.win_buffered is not None:
            profiler = sim._profiler
            if profiler.enabled:
                with profiler.span("engine.window_fire"):
                    return self._run_window(
                        op, spec, budgets, end_time, space, totals
                    )
            return self._run_window(
                op, spec, budgets, end_time, space, totals
            )
        unit_cost = sim._unit_cost(name)
        selectivity = spec.selectivity.ratio
        if unit_cost <= 0:
            desires = totals
        else:
            desires = np.minimum(totals, budgets / unit_cost)
        pull_cap = (
            math.inf if selectivity <= 0 else space / selectivity
        )
        allocations = fair_allocate_batch(pull_cap, desires)
        processed = self._pop_batch(op, allocations, totals)
        counters = op.counters
        counters[0] = processed
        if spec.is_sink:
            counters[1] = op.zeros
        else:
            np.multiply(processed, selectivity, out=counters[1])
            self._emit(op, counters[1])
        np.multiply(processed, unit_cost, out=counters[2])
        processed_list = processed.tolist()
        sim.state_model.record_processed_block(name, processed_list)
        return self._consumed(spec, processed_list)

    def _run_scalar(
        self,
        op: _OpState,
        spec: OperatorSpec,
        budget: float,
        space: float,
    ) -> float:
        """A width-1 single-port operator without a window, as float
        code: ``ObjectEngine.run_operator`` for its one instance, read
        from and written to the arena cells.

        Its one port holds the whole queued total, so the object
        backend's ``pop_records`` removes ``min(allowed, length)`` (see
        the single-port case of :meth:`_pop_batch`)."""
        sim = self._sim
        unit_cost = sim._unit_cost(op.name)
        selectivity = spec.selectivity.ratio
        length = op.q_len.item(0, 0)
        total = 0.0 + length
        desire = (
            total if unit_cost <= 0 else min(total, budget / unit_cost)
        )
        pull_cap = (
            math.inf if selectivity <= 0 else space / selectivity
        )
        allowed = fair_allocate(pull_cap, (desire,))[0]
        processed = min(allowed, length)
        op.q_len[0, 0] = length - processed
        op.q_popped[0, 0] = op.q_popped.item(0, 0) + processed
        emit = processed * selectivity
        pushed = 0.0
        if not spec.is_sink and emit > 0:
            self._emit_one(op, emit)
            pushed = emit
        counters = op.counters
        counters[0, 0] = processed
        counters[1, 0] = pushed
        counters[2, 0] = processed * unit_cost
        sim.state_model.record_processed(op.name, processed)
        return 0.0 + processed if spec.is_sink else 0.0

    @staticmethod
    def _consumed(spec: OperatorSpec, processed: List[float]) -> float:
        """Records a sink consumed: the object backend's sequential
        sum over its instances (0 for any other operator)."""
        consumed_total = 0.0
        if spec.is_sink:
            for value in processed:
                consumed_total += value
        return consumed_total

    def _run_window(
        self,
        op: _OpState,
        spec: OperatorSpec,
        budgets: FloatArray,
        end_time: float,
        space: float,
        totals: FloatArray,
    ) -> float:
        sim = self._sim
        window_spec = spec.window
        assert window_spec is not None and op.win_buffered is not None
        assign_cost, fire_cost = sim._window_costs(op.name)
        fire_sel = window_spec.fire_selectivity
        budgets_left = budgets.copy()
        backlog = op.fire_backlog
        # Fire work and assignment work share each instance's budget
        # proportionally to their demands (see the object backend for
        # why a fire-first priority would collapse throughput).
        fire_demand = backlog * fire_cost
        assign_demand = totals * assign_cost
        total_demand = fire_demand + assign_demand
        has_demand = total_demand > 0
        share = np.where(
            has_demand,
            np.minimum(
                1.0,
                fire_demand / np.where(has_demand, total_demand, 1.0),
            ),
            0.0,
        )
        fire_budget = budgets_left * share
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        if fire_cost <= 0:
            fire_desires = backlog
        else:
            fire_desires = np.minimum(
                backlog, fire_budget / fire_cost
            )
        fire_cap = math.inf if fire_sel <= 0 else space / fire_sel
        fired = fair_allocate_batch(fire_cap, fire_desires)
        np.subtract(backlog, fired, out=backlog)
        emit = fired * fire_sel
        self._emit(op, emit)
        useful_acc = fired * fire_cost
        budgets_left = np.maximum(
            0.0, budgets_left - fired * fire_cost
        )
        # Stage 2: assign newly arrived records to windows (no
        # emission, so no space constraint). Firing popped nothing, so
        # the queue totals are unchanged.
        if assign_cost <= 0:
            amounts = totals
        else:
            amounts = np.minimum(
                totals, budgets_left / assign_cost
            )
        assigned = self._pop_batch(op, amounts, totals)
        # WindowState.assign, element-wise: each instance buffers its
        # replicated share of the assigned records.
        buffered = op.win_buffered + assigned * window_spec.replication
        # Stage 3: check window boundaries — WindowState.maybe_fire
        # with the shared lockstep fire clock (see _OpState). With no
        # fire nothing is released, and adding zeros would leave the
        # backlog as it is.
        if window_spec.staggered:
            elapsed = max(0.0, end_time - op.win_last_check)
            op.win_last_check = end_time
            fraction = min(1.0, elapsed / window_spec.fire_interval)
            released = buffered * fraction
            np.subtract(buffered, released, out=op.win_buffered)
            np.add(backlog, released, out=backlog)
        else:
            fires = 0
            next_fire = op.win_next_fire
            while next_fire <= end_time:
                fires += 1
                next_fire += window_spec.fire_interval
            op.win_next_fire = next_fire
            if fires:
                np.add(backlog, buffered, out=backlog)
                op.win_buffered[...] = 0.0
            else:
                op.win_buffered[...] = buffered
        counters = op.counters
        counters[0] = assigned
        counters[1] = emit
        # Raw useful = fired * fire_cost + assigned * assign_cost;
        # record_metrics applies the min/max against the tick.
        useful = counters[2]
        np.multiply(assigned, assign_cost, out=useful)
        np.add(useful_acc, useful, out=useful)
        assigned_list = assigned.tolist()
        sim.state_model.record_processed_block(op.name, assigned_list)
        return self._consumed(spec, assigned_list)

    # ------------------------------------------------------------------
    # Compatibility
    # ------------------------------------------------------------------

    def materialize_instances(self) -> Dict[str, List["_Instance"]]:
        """Object-engine-shaped snapshots of the array state, for
        callers (tests, debuggers) that poke ``Simulator._instances``.

        Queues are rebuilt with the exact length / pushed / popped
        trajectory of the arrays, so conservation checks and fill
        fractions read identically; window state machines are rebuilt
        from the buffered array and the shared fire clock. Treat the
        result as read-only: mutations do not flow back into the
        arrays.
        """
        from repro.engine.buffers import Queue
        from repro.engine.objects import _Instance

        result: Dict[str, List["_Instance"]] = {}
        for name, op in self._ops.items():
            instances: List["_Instance"] = []
            for j in range(op.parallelism):
                ports: Dict[str, Queue] = {}
                for k, port in enumerate(op.ports):
                    queue = Queue(capacity=op.capacity)
                    queue._length = float(op.q_len[k, j])
                    queue._pushed = float(op.q_pushed[k, j])
                    queue._popped = float(op.q_popped[k, j])
                    ports[port] = queue
                instance = _Instance(
                    iid=InstanceId(name, j),
                    spec=op.spec,
                    ports=ports,
                )
                if op.win_buffered is not None:
                    assert op.spec.window is not None
                    window = WindowState(spec=op.spec.window)
                    window.buffered = float(op.win_buffered[j])
                    window.next_fire = op.win_next_fire
                    window._last_check = op.win_last_check
                    instance.window = window
                instance.fire_backlog = float(op.fire_backlog[j])
                instances.append(instance)
            result[name] = instances
        return result


__all__ = [
    "BACKENDS",
    "Carry",
    "ENGINE_ENV",
    "VECTOR_MIN_WIDTH",
    "VectorEngine",
    "resolve_backend",
    "width_backend",
]
