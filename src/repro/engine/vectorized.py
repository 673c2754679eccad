"""Struct-of-arrays engine backend (the ``vector`` engine).

The ``object`` backend of :class:`~repro.engine.simulator.Simulator`
steps one Python object per operator instance: a dict of
:class:`~repro.engine.buffers.Queue` per port, a scalar fire backlog,
and per-instance loops for routing, budget allocation, and metrics. That
is O(upstream x downstream) Queue pushes per edge per tick — the binding
constraint on wide deployments (the Nexmark queries run up to 36 slots).

This module holds the same simulation as flat float64 numpy arrays, one
block per operator:

* ``q_len``, ``q_pushed``, ``q_popped`` — shape ``(K, p)`` for an
  operator with ``K`` input ports (one per upstream edge) and ``p``
  instances. Column ``j`` of row ``k`` is instance ``j``'s port queue
  for upstream ``k``: its current length and the cumulative pushed /
  popped conservation counters of :class:`~repro.engine.buffers.Queue`.
* ``fire_backlog`` — shape ``(p,)``, windowed operators' released but
  unprocessed records.
* ``weights`` — shape ``(p,)``, the plan's input-partitioning weights
  for the operator (how upstream output is split across its instances).

Window state (:class:`~repro.dataflow.windowing.WindowState`) is held
as ``win_buffered`` — shape ``(p,)``, per-instance buffered records —
plus one shared fire clock (``win_next_fire`` / ``win_last_check``)
per operator: every instance of a window operator is created, reset,
and fired with the same spec and the same virtual times, so the scalar
clocks advance in bit-identical lockstep and only ``buffered`` varies
per instance. :meth:`VectorEngine.materialize_instances` rebuilds real
``WindowState`` objects from these arrays on demand.

The cost of a tick here is a fixed number of small numpy calls per
operator, nearly independent of the parallelism, so the backend wins on
wide plans and loses on narrow ones; :func:`width_backend` picks one
per deployment from the plan's widest operator, and a redeploy may
switch backends by handing the old one's :data:`Carry` to the new one.

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
  replay.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import fair_allocate_batch
from repro.engine.npcompat import HAVE_NUMPY, FloatArray, np
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator, _Instance

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
    plan, see :func:`select_backend`)."""
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


def select_backend(backend: Optional[str], plan: PhysicalPlan) -> str:
    """The backend a deployment of ``plan`` runs on: the pinned one
    (:func:`resolve_backend`) if any, else :func:`width_backend`."""
    pinned = resolve_backend(backend)
    if pinned is not None:
        return pinned
    return width_backend(plan)


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


class _OpState:
    """Struct-of-arrays state of one operator's instances."""

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
        "drift",
        "bound",
        "bad",
    )

    def __init__(
        self,
        name: str,
        spec: OperatorSpec,
        parallelism: int,
        ports: Tuple[str, ...],
        capacity: Optional[float],
        weights: Tuple[float, ...],
        row_start: int,
    ) -> None:
        self.name = name
        self.spec = spec
        self.parallelism = parallelism
        self.ports = ports
        self.port_index: Dict[str, int] = {
            port: k for k, port in enumerate(ports)
        }
        self.capacity = capacity
        shape = (len(ports), parallelism)
        self.q_len: FloatArray = np.zeros(shape, dtype=np.float64)
        self.q_pushed: FloatArray = np.zeros(shape, dtype=np.float64)
        self.q_popped: FloatArray = np.zeros(shape, dtype=np.float64)
        self.fire_backlog: FloatArray = np.zeros(
            parallelism, dtype=np.float64
        )
        # Window state, struct-of-arrays: the per-instance ``buffered``
        # amounts plus the shared fire clock. All instances of a window
        # operator are created, reset, and fired together with the same
        # spec and the same virtual times, so their ``next_fire`` /
        # ``_last_check`` scalars advance in bit-identical lockstep —
        # one copy is enough.
        self.win_buffered: Optional[FloatArray] = None
        self.win_next_fire = 0.0
        self.win_last_check = 0.0
        self.weights: FloatArray = np.array(weights, dtype=np.float64)
        # Instances that receive input; None when all of them do.
        positive = self.weights > 0
        self.positive: Optional[FloatArray] = (
            None if bool(positive.all()) else positive
        )
        self.row_start = row_start
        self.row_stop = row_start + parallelism
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
        # Scratch, rewritten every tick: the [pulled, pushed, useful,
        # waiting] counters handed to MetricsManager.record_block, and
        # the conservation check's work arrays.
        self.counters: FloatArray = np.zeros(
            (4, parallelism), dtype=np.float64
        )
        self.drift: FloatArray = np.empty(shape, dtype=np.float64)
        self.bound: FloatArray = np.empty(shape, dtype=np.float64)
        self.bad: FloatArray = np.empty(shape, dtype=np.bool_)

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

    def max_fill(self) -> float:
        """Worst port occupancy across instances (0 when unbounded or
        portless). ``min(1, max(len) / capacity)`` is the maximum of
        the per-queue fills ``min(1, len / capacity)``: correctly
        rounded division by a positive constant and ``min(1, .)`` are
        both monotone."""
        if not self.ports or self.capacity is None:
            return 0.0
        return min(1.0, float(self.q_len.max()) / self.capacity)


class VectorEngine:
    """The struct-of-arrays tick loop behind ``backend="vector"``.

    A friend object of :class:`~repro.engine.simulator.Simulator`: the
    simulator keeps the orchestration (tick order, outages, telemetry,
    TickStats, per-deployment costs and budgets) and delegates every
    per-instance loop here. All methods mutate the per-operator arrays
    in place.
    """

    def __init__(self, sim: "Simulator") -> None:
        if not HAVE_NUMPY:
            raise EngineError(
                "the vector engine backend requires numpy"
            )
        self._sim = sim
        self._graph = sim.graph
        self._ops: Dict[str, _OpState] = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def carry(self) -> Carry:
        """The live array state reduced to carried totals (see
        :data:`Carry`), summed instance by instance as the object
        backend's ``Simulator._carry_objects`` does."""
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
        """Build array state for ``plan`` from the ``carried`` totals of
        the previous deployment (empty on the first) — the vector
        replay of ``Simulator._deploy_objects``."""
        sim = self._sim
        self._ops = {}
        next_row = 0
        for name in self._graph.topological_order():
            spec = self._graph.operator(name)
            parallelism = plan.parallelism_of(name)
            capacity = sim.runtime.queue_capacity(spec, parallelism)
            weights = plan.input_weights(name)
            ports = tuple(self._graph.upstream(name))
            op = _OpState(
                name=name,
                spec=spec,
                parallelism=parallelism,
                ports=ports,
                capacity=capacity,
                weights=weights,
                row_start=next_row,
            )
            next_row = op.row_stop
            queued_by_port, buffered, backlog = carried.get(
                name, ({}, 0.0, 0.0)
            )
            for k, port in enumerate(ports):
                queued = queued_by_port.get(port, 0.0)
                # force_push of queued * weight per instance: length
                # and the cumulative pushed counter both start there.
                row = queued * op.weights
                op.q_len[k] = row
                op.q_pushed[k] = row
            op.fire_backlog = backlog * op.weights
            if spec.window is not None:
                # One WindowState carries the fire-clock reset semantics
                # for the whole instance block (lockstep, see _OpState).
                clock = WindowState(spec=spec.window)
                clock.reset(sim.time)
                op.win_buffered = buffered * op.weights
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

    def max_fill(self, name: str) -> float:
        return self._ops[name].max_fill()

    def backpressured(self) -> Tuple[str, ...]:
        """Operators with a bounded port at or above the runtime's
        backpressure threshold, in topological order.

        One ``max`` per operator: ``min(1, len / capacity) >= t`` holds
        for some queue exactly when ``max(len) / capacity >= t``,
        because division by a positive capacity is monotone and, for a
        threshold ``t <= 1``, ``min(1, x) >= t`` is ``x >= t``. A
        threshold above 1 is never reached."""
        threshold = self._sim.runtime.backpressure_threshold
        if threshold > 1.0:
            return ()
        return tuple(
            name
            for name, op in self._ops.items()
            if op.capacity is not None
            and op.ports
            and float(op.q_len.max()) / op.capacity >= threshold
        )

    def check_invariants(self) -> None:
        """Queue conservation and non-negative fire backlogs (the
        vector replay of ``Queue.check_conservation``), computed in
        each operator's scratch arrays."""
        for name, op in self._ops.items():
            if op.ports:
                drift, bound, bad = op.drift, op.bound, op.bad
                np.subtract(op.q_pushed, op.q_popped, out=drift)
                np.subtract(drift, op.q_len, out=drift)
                np.abs(drift, out=drift)
                np.maximum(1.0, op.q_pushed, out=bound)
                np.multiply(1e-6, bound, out=bound)
                np.greater(drift, bound, out=bad)
                if bool(bad.any()):
                    k, j = (int(i[0]) for i in np.nonzero(bad))
                    raise EngineError(
                        "queue conservation violated: "
                        f"pushed={float(op.q_pushed[k, j])} "
                        f"popped={float(op.q_popped[k, j])} "
                        f"length={float(op.q_len[k, j])}"
                    )
            # Only window operators ever hold a fire backlog.
            if (
                op.win_buffered is not None
                and float(op.fire_backlog.min()) < -1e-6
            ):
                j = int(np.flatnonzero(op.fire_backlog < -1e-6)[0])
                raise EngineError(
                    f"negative fire backlog at {InstanceId(name, j)}"
                )

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def estimate_demands(self, dt: float) -> Dict[str, FloatArray]:
        """Seconds of pending work per instance, one array per operator
        in topological order (consumed by ``Runtime.budgets_batch``)."""
        sim = self._sim
        demands: Dict[str, FloatArray] = {}
        for name, op in self._ops.items():
            spec = op.spec
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                per_instance = (
                    rate * dt + sim.source_backlog(name)
                ) / op.parallelism
                cost = sim._source_cost(name)
                demands[name] = np.full(
                    op.parallelism,
                    per_instance * max(cost, 1e-9),
                    dtype=np.float64,
                )
                continue
            if spec.window is not None:
                assign_cost, fire_cost = sim._window_costs(name)
                demands[name] = (
                    op.queue_totals() * assign_cost
                    + op.fire_backlog * fire_cost
                )
                continue
            cost = sim._unit_cost(name)
            demands[name] = op.queue_totals() * cost
        return demands

    def operator_delays(self) -> Dict[str, float]:
        """Per-operator drain delays for the record-latency tracker
        (the vector replay of ``Simulator._object_delays``)."""
        sim = self._sim
        delays: Dict[str, float] = {}
        for name, op in self._ops.items():
            spec = op.spec
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                backlog = sim.source_backlog(name)
                delays[name] = backlog / rate if rate > 0 else 0.0
                continue
            if spec.window is not None:
                assign_cost, fire_cost = sim._window_costs(name)
                per_instance = (
                    op.queue_totals() * assign_cost
                    + op.fire_backlog * fire_cost
                )
            else:
                cost = sim._unit_cost(name)
                per_instance = op.queue_totals() * cost
            delays[name] = float(per_instance.max())
        return delays

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _downstream_limit(op: _OpState) -> float:
        """Maximum records ``op`` may emit right now without
        overflowing any downstream instance queue (inf if unbounded)."""
        limit = math.inf
        for dop, k, _, _ in op.targets:
            if dop.capacity is None:
                continue
            free = np.maximum(0.0, dop.capacity - dop.q_len[k])
            if dop.positive is None:
                ratios = free / dop.weights
            elif bool(dop.positive.any()):
                ratios = free[dop.positive] / dop.weights[dop.positive]
            else:
                continue
            limit = min(limit, float(ratios.min()))
        return limit

    @staticmethod
    def _emit(op: _OpState, emits: FloatArray) -> None:
        """Distribute per-upstream-instance emissions across every
        downstream instance queue.

        For downstream instance ``j`` the object backend pushes the
        amounts ``emits[i] * weight[j]`` sequentially over upstream
        instances ``i``; ``np.cumsum`` down the edge's ``stack`` (the
        base row over the amounts) replays that base-dependent sequence
        exactly, and with one upstream instance it is the single sum
        ``base + amount``. Columns where a bounded queue would clamp an
        individual push (backpressure epsilon cases) are replayed
        scalar-exactly instead. The object backend pushes nothing for a
        zero emission, and adding zeros would leave every queue
        unchanged, so an all-zero ``emits`` returns at once.
        """
        if not bool(emits.any()):
            return
        single = len(emits) == 1
        for dop, k, stack, sums in op.targets:
            amounts = stack[1:]
            np.multiply.outer(emits, dop.weights, out=amounts)
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
                free = np.maximum(0.0, capacity - starts)
                clamped = (amounts > free).any(axis=0)
                if bool(clamped.any()):
                    for j in np.flatnonzero(clamped).tolist():
                        length = float(base_len[j])
                        pushed = float(base_pushed[j])
                        for amount in amounts[:, j].tolist():
                            space = max(0.0, capacity - length)
                            accepted = min(amount, space)
                            length += accepted
                            pushed += accepted
                            if accepted < amount - 1e-6:
                                raise EngineError(
                                    "emission overflow into "
                                    f"{InstanceId(dop.name, j)}: the "
                                    "downstream limit computation is "
                                    "inconsistent"
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
        if not bool(active.any()):
            return np.zeros(op.parallelism, dtype=np.float64)
        drain = active & (amounts >= totals)
        partial = active & ~drain
        queues = op.q_len
        removed = np.zeros_like(queues)
        if bool(partial.any()):
            safe_totals = np.where(partial, totals, 1.0)
            shares = amounts * (queues / safe_totals)
            removed = np.where(
                partial, np.minimum(shares, queues), removed
            )
        removed = np.where(drain, queues, removed)
        new_len = queues - removed
        negative = new_len < 0
        if bool(negative.any()):
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
        ``Simulator._run_source``."""
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
        if cost <= 0:
            desires = np.full(
                op.parallelism, share, dtype=np.float64
            )
        else:
            desires = np.minimum(share, budgets / cost)
        allocations = fair_allocate_batch(space, desires)
        self._emit(op, allocations)
        counters = op.counters
        counters[0] = allocations
        counters[1] = allocations
        self._record(op, allocations, cost, dt)
        emitted_total = 0.0
        for value in allocations.tolist():
            emitted_total += value
        sim._source_backlog[name] = max(
            0.0, available - emitted_total
        )
        return emitted_total, desired

    def _record(
        self, op: _OpState, done: FloatArray, cost: float, dt: float
    ) -> None:
        """Fill the useful and waiting rows of ``op.counters`` for
        ``done`` records at ``cost`` each and hand all four rows to the
        metrics manager (pulled and pushed are already in place):
        ``useful = min(done * cost, dt)``, ``waiting = max(0, dt -
        useful)``, computed in place."""
        counters = op.counters
        useful, waiting = counters[2], counters[3]
        np.multiply(done, cost, out=useful)
        np.minimum(useful, dt, out=useful)
        np.subtract(dt, useful, out=waiting)
        np.maximum(0.0, waiting, out=waiting)
        self._sim.metrics_manager.record_block(
            op.row_start, op.row_stop, counters
        )

    def run_operator(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: FloatArray,
        dt: float,
        end_time: float,
    ) -> float:
        """Run one non-source operator for a tick; returns records
        consumed — the vector replay of ``Simulator._run_operator``."""
        sim = self._sim
        op = self._ops[name]
        if spec.is_sink:
            space = math.inf
        else:
            space = self._downstream_limit(op)
        # Nothing refills this operator's queues before it runs: its
        # upstream operators come later in the (reverse topological)
        # tick order.
        totals = op.queue_totals()
        if op.win_buffered is not None:
            profiler = sim._profiler
            if profiler.enabled:
                with profiler.span("engine.window_fire"):
                    return self._run_window(
                        op, spec, budgets, dt, end_time, space, totals
                    )
            return self._run_window(
                op, spec, budgets, dt, end_time, space, totals
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
        self._record(op, processed, unit_cost, dt)
        processed_list = processed.tolist()
        sim.state_model.record_processed_block(name, processed_list)
        consumed_total = 0.0
        for value in processed_list:
            consumed_total += value
        return consumed_total

    def _run_window(
        self,
        op: _OpState,
        spec: OperatorSpec,
        budgets: FloatArray,
        dt: float,
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
        op.fire_backlog = backlog - fired
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
            op.win_buffered = buffered - released
            op.fire_backlog = op.fire_backlog + released
        else:
            fires = 0
            next_fire = op.win_next_fire
            while next_fire <= end_time:
                fires += 1
                next_fire += window_spec.fire_interval
            op.win_next_fire = next_fire
            if fires:
                op.fire_backlog = op.fire_backlog + buffered
                op.win_buffered = np.zeros(op.parallelism, dtype=np.float64)
            else:
                op.win_buffered = buffered
        counters = op.counters
        counters[0] = assigned
        counters[1] = emit
        # useful = fired * fire_cost + assigned * assign_cost, then the
        # usual min/max against the tick.
        useful, waiting = counters[2], counters[3]
        np.multiply(assigned, assign_cost, out=useful)
        np.add(useful_acc, useful, out=useful)
        np.minimum(useful, dt, out=useful)
        np.subtract(dt, useful, out=waiting)
        np.maximum(0.0, waiting, out=waiting)
        sim.metrics_manager.record_block(
            op.row_start, op.row_stop, counters
        )
        assigned_list = assigned.tolist()
        sim.state_model.record_processed_block(op.name, assigned_list)
        consumed_total = 0.0
        for value in assigned_list:
            consumed_total += value
        return consumed_total

    # ------------------------------------------------------------------
    # Compatibility
    # ------------------------------------------------------------------

    def materialize_instances(self) -> Dict[str, List["_Instance"]]:
        """Object-backend-shaped snapshots of the array state, for
        callers (tests, debuggers) that poke ``Simulator._instances``.

        Queues are rebuilt with the exact length / pushed / popped
        trajectory of the arrays, so conservation checks and fill
        fractions read identically; window state machines are rebuilt
        from the buffered array and the shared fire clock. Treat the
        result as read-only: mutations do not flow back into the
        arrays.
        """
        from repro.engine.buffers import Queue
        from repro.engine.simulator import _Instance

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
    "select_backend",
    "width_backend",
]
