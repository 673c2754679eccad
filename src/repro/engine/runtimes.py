"""Execution models: Flink-like, Timely-like, and Heron-like runtimes.

A :class:`Runtime` tells the simulator how a stream processor schedules
operator instances and moves data:

* :class:`FlinkRuntime` — each instance runs on its own task slot with
  small bounded buffers; a full output buffer blocks the producer, which
  is how backpressure propagates upstream to the sources.
* :class:`HeronRuntime` — like Flink but with very large per-operator
  queues (Heron's default 100 MiB) and an explicit backpressure signal
  raised when a queue crosses a high-water mark. The large queues are
  why Dhalion reacts slowly (section 5.2 of the paper).
* :class:`TimelyRuntime` — a fixed pool of workers each running *every*
  operator round-robin; queues are unbounded, sources are never delayed,
  and idle instances spin (section 4.3). Parallelism is global: DS2
  picks the worker count by summing per-operator optima.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.recovery import (
    ContainerRestartRecovery,
    PeerSyncRecovery,
    RecoveryModel,
    SavepointRecovery,
)
from repro.errors import EngineError


class Runtime(abc.ABC):
    """Strategy object describing one execution model."""

    #: Human-readable runtime name (used in reports).
    name: str = "abstract"

    #: Whether a full downstream queue delays the sources (backpressure).
    sources_blocked_by_backpressure: bool = True

    #: Whether :meth:`budgets` depends on the instances' pending work.
    #: When False the simulator computes budgets once per deployment
    #: and skips the per-tick demand estimate, which nothing would read.
    demand_driven: bool = True

    #: Whether idle instances burn their time budget spinning. Spinning
    #: time is still *waiting* time in DS2 terms — it is not useful work —
    #: but it makes CPU-utilization metrics useless (section 2).
    spin_when_idle: bool = False

    #: Queue fill fraction at which the runtime raises an explicit
    #: backpressure signal (consumed by Dhalion-style baselines).
    backpressure_threshold: float = 0.8

    #: Fractional per-record cost increase when DS2 instrumentation is
    #: enabled (calibrated per system in section 5.6: <=13% Flink,
    #: <=20% Timely, 0 Heron which gathers metrics by default).
    instrumentation_overhead: float = 0.0

    @abc.abstractmethod
    def queue_capacity(
        self, spec: OperatorSpec, parallelism: int
    ) -> Optional[float]:
        """Input queue capacity in records per instance; None = unbounded."""

    @abc.abstractmethod
    def budgets(
        self,
        plan: PhysicalPlan,
        lanes: Mapping[str, Sequence[int]],
        demands: Mapping[str, Sequence[float]],
        dt: float,
    ) -> Dict[str, List[float]]:
        """Seconds of execution granted to each instance of each lane
        this tick, one list per operator of ``plan`` (index = lane
        index): every instance of a lane gets the lane's budget.

        ``lanes`` holds, per operator in topological order, the
        instance count of each of its lanes in instance order (the
        runs of consecutive instances the engine steps as one; one
        instance each when every instance is its own lane). ``demands``
        holds, per operator, the seconds of work each instance of a
        lane has available (queued records times per-record cost), one
        value per lane; it is empty for a runtime that is not
        :attr:`demand_driven`. For a demand-driven runtime the engine
        cuts every operator at the same instances, so lane ``j`` of
        every operator covers the same instance indexes; runtimes with
        shared workers use that to divide worker time.
        """

    def validate_plan(self, plan: PhysicalPlan) -> None:
        """Raise :class:`EngineError` if this runtime cannot run
        ``plan``. Checked once per deployment, and by a rescale before
        it charges its outage. Every plan is valid by default."""

    @abc.abstractmethod
    def savepoint_model(self) -> SavepointModel:
        """The outage cost model for rescaling on this runtime."""

    def recovery_model(self) -> RecoveryModel:
        """The outage cost model for *crash* recovery on this runtime.

        Defaults to restoring the whole job from the last savepoint
        (the Flink behaviour); runtimes without savepoints override
        this with their own mechanism (peer re-sync on Timely,
        container restart on Heron).
        """
        return SavepointRecovery(self.savepoint_model())


class FlinkRuntime(Runtime):
    """Flink-style execution: one slot per instance, bounded buffers.

    ``buffer_seconds`` sizes each instance's input queue as that many
    seconds of work at the instance's own processing speed — small
    buffers mean backpressure builds and releases quickly, as with
    Flink's credit-based flow control. ``cores`` optionally caps total
    compute: when the job has more instances than cores, every budget is
    scaled down proportionally (coarse CPU contention).
    """

    name = "flink"
    sources_blocked_by_backpressure = True
    demand_driven = False
    spin_when_idle = False
    backpressure_threshold = 0.8
    instrumentation_overhead = 0.08

    def __init__(
        self,
        buffer_seconds: float = 1.0,
        max_queue_records: float = 1e12,
        cores: Optional[int] = None,
        savepoint: Optional[SavepointModel] = None,
        recovery: Optional[RecoveryModel] = None,
    ) -> None:
        # Queues are sized in seconds of the *owning* instance's work
        # (buffer_seconds / per-record cost); max_queue_records is only
        # a numeric guard. Capping it tighter than the per-tick flow of
        # a cheap operator (e.g. a null sink) would turn the cap itself
        # into the pipeline bottleneck.
        # Written so that NaN fails every check.
        if not buffer_seconds > 0:
            raise EngineError("buffer_seconds must be > 0")
        if not max_queue_records > 0:
            raise EngineError("max_queue_records must be > 0")
        if cores is not None and not cores >= 1:
            raise EngineError("cores must be >= 1 when given")
        self.buffer_seconds = buffer_seconds
        self.max_queue_records = max_queue_records
        self.cores = cores
        self._savepoint = savepoint or SavepointModel()
        self._recovery = recovery

    def queue_capacity(
        self, spec: OperatorSpec, parallelism: int
    ) -> Optional[float]:
        cost = spec.per_record_cost()
        if cost <= 0:
            return self.max_queue_records
        return min(self.buffer_seconds / cost, self.max_queue_records)

    def budgets(
        self,
        plan: PhysicalPlan,
        lanes: Mapping[str, Sequence[int]],
        demands: Mapping[str, Sequence[float]],
        dt: float,
    ) -> Dict[str, List[float]]:
        total = plan.total_instances
        share = 1.0
        if self.cores is not None and total > self.cores:
            share = self.cores / total
        value = dt * share
        return {name: [value] * len(counts) for name, counts in lanes.items()}

    def savepoint_model(self) -> SavepointModel:
        return self._savepoint

    def recovery_model(self) -> RecoveryModel:
        # Flink restores the whole job from the last savepoint, so a
        # crash costs the same savepoint-restore outage as a rescale.
        return self._recovery or SavepointRecovery(self._savepoint)


class HeronRuntime(FlinkRuntime):
    """Heron-style execution: dedicated instances, huge bounded queues,
    explicit backpressure signal.

    Queue capacity is ``queue_bytes`` (default Heron's 100 MiB) divided
    by the operator's record size. The backpressure signal only fires
    once a queue passes the high-water mark, so a controller driven by
    that signal (Dhalion) reacts only after a long fill delay —
    reproduced here and discussed at the end of section 5.2.
    """

    name = "heron"
    backpressure_threshold = 0.9
    instrumentation_overhead = 0.0

    def __init__(
        self,
        queue_bytes: float = 100 * 1024 * 1024,
        cores: Optional[int] = None,
        savepoint: Optional[SavepointModel] = None,
        recovery: Optional[RecoveryModel] = None,
    ) -> None:
        if not queue_bytes > 0:
            raise EngineError("queue_bytes must be > 0")
        super().__init__(
            buffer_seconds=1.0,
            max_queue_records=1e12,
            cores=cores,
            savepoint=savepoint
            or SavepointModel(
                base_seconds=20.0,
                snapshot_bandwidth=100e6,
                redeploy_seconds=40.0,
            ),
            # A crash only restarts the failed container; rescaling
            # still redeploys the whole topology (savepoint model).
            recovery=recovery or ContainerRestartRecovery(),
        )
        self.queue_bytes = queue_bytes

    def queue_capacity(
        self, spec: OperatorSpec, parallelism: int
    ) -> Optional[float]:
        return max(1.0, self.queue_bytes / spec.record_bytes)


class TimelyRuntime(Runtime):
    """Timely-style execution: ``workers`` threads, each running every
    operator of the dataflow round-robin over unbounded queues.

    The physical plan for a Timely job must give every operator the same
    parallelism equal to the worker count (instance ``k`` of every
    operator lives on worker ``k``). Worker time is divided among the
    co-located instances by water-filling: instances with little pending
    work leave their share to the busy ones, which models Timely's
    work-conserving round-robin scheduler.
    """

    name = "timely"
    sources_blocked_by_backpressure = False
    spin_when_idle = True
    backpressure_threshold = 1.0  # never signalled: queues are unbounded
    instrumentation_overhead = 0.15

    def __init__(
        self,
        savepoint: Optional[SavepointModel] = None,
        recovery: Optional[RecoveryModel] = None,
    ) -> None:
        self._savepoint = savepoint or SavepointModel(
            base_seconds=5.0,
            snapshot_bandwidth=400e6,
            redeploy_seconds=10.0,
        )
        # No savepoints: a crashed worker re-syncs its shard from the
        # surviving peers instead of rewinding the whole job.
        self._recovery = recovery or PeerSyncRecovery()

    def queue_capacity(
        self, spec: OperatorSpec, parallelism: int
    ) -> Optional[float]:
        return None

    def validate_plan(self, plan: PhysicalPlan) -> None:
        """Check that all operators share one parallelism (the worker
        count)."""
        values = set(plan.parallelism.values())
        if len(values) != 1:
            raise EngineError(
                "Timely plans must use the same (global) parallelism for "
                f"every operator, got {sorted(values)}"
            )

    def budgets(
        self,
        plan: PhysicalPlan,
        lanes: Mapping[str, Sequence[int]],
        demands: Mapping[str, Sequence[float]],
        dt: float,
    ) -> Dict[str, List[float]]:
        # Worker k runs instance k of every operator; it divides its
        # tick among them in topological operator order. Lane j of
        # every operator covers the same workers, whose demand columns
        # are therefore equal, so one water-fill per lane gives each of
        # them its allocation bit for bit.
        order = plan.graph.topological_order()
        per_lane = [
            _waterfill_values(column, dt)
            for column in zip(*[demands[name] for name in order])
        ]
        return {
            name: list(values) for name, values in zip(order, zip(*per_lane))
        }

    def savepoint_model(self) -> SavepointModel:
        return self._savepoint

    def recovery_model(self) -> RecoveryModel:
        return self._recovery


def _waterfill_values(
    demands: Sequence[float], budget: float
) -> List[float]:
    """Positional water-filling core of :meth:`TimelyRuntime.budgets`.

    Divides ``budget`` seconds among positions proportionally to need:
    everyone gets at most an equal share per round, and unused share is
    redistributed to positions that still have pending work. Leftover
    budget once every demand is satisfied is spread evenly (spinning
    shows up as waiting time on every instance).

    Degenerate inputs are explicit no-ops rather than accidents: with no
    positions the result is empty (no division by a zero-length instance
    list), and with an empty *active* set — every demand zero or
    negative — the whole budget goes out as the even spin bonus.
    """
    if not demands:
        return []
    remaining = budget
    allocation = [0.0] * len(demands)
    # max(0.0, demand), NaN included.
    unsatisfied = [demand if demand > 0.0 else 0.0 for demand in demands]
    active = [
        index for index, want in enumerate(unsatisfied) if want > 0
    ]
    # Iterative water-filling; terminates because every round either
    # satisfies at least one position or exhausts the budget.
    while active and remaining > 1e-12:
        share = remaining / len(active)
        next_active = []
        for index in active:
            # min(share, want), ties included.
            want = unsatisfied[index]
            grant = want if want < share else share
            allocation[index] += grant
            unsatisfied[index] -= grant
            remaining -= grant
            if unsatisfied[index] > 1e-12:
                next_active.append(index)
        if len(next_active) == len(active):
            # Everyone took a full share and still wants more: the
            # budget is exhausted evenly; avoid infinite loops due to
            # floating point residue.
            share = remaining / len(active)
            for index in active:
                allocation[index] += share
            remaining = 0.0
            break
        active = next_active
    if remaining > 1e-12:
        # Leftover time is spent spinning; spread it evenly so that
        # spinning shows up as waiting time on every instance.
        bonus = remaining / len(demands)
        for index in range(len(demands)):
            allocation[index] += bonus
    return allocation


__all__ = ["FlinkRuntime", "HeronRuntime", "Runtime", "TimelyRuntime"]
