"""Controller interface and the closed control loop.

The paper's architecture (Figure 5) separates the *scaling policy* (the
model), the *scaling manager* (operational logic: intervals, warm-up,
activation), and the stream processor. Here:

* :class:`Controller` is the interface every scaling controller
  implements — DS2 and the baselines (Dhalion-style, threshold-style)
  alike. It consumes an :class:`Observation` per policy interval and
  optionally returns a desired parallelism.
* :class:`ControlLoop` wires a controller to a simulated job: it steps
  the engine, collects metrics windows at the policy interval, invokes
  the controller, and applies scaling commands through the engine's
  rescaling mechanism. It also records the decision/observation
  timeline that the experiment harness turns into the paper's figures.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.backoff import capped_backoff, invalid_backoff_reason
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalPlan
from repro.engine.simulator import Simulator, TickStats
from repro.errors import PolicyError, ReconfigurationError
from repro.metrics import MetricsWindow
from repro.telemetry.audit import (
    DecisionAudit,
    audit_to_dict,
    build_decision_audit,
    finalize_audit,
)
from repro.telemetry.spans import SpanProfiler, active_profiler
from repro.telemetry.tracer import Tracer, active_tracer


@dataclass(frozen=True)
class Observation:
    """Everything a controller sees at one policy interval.

    ``graph`` is the static logical topology — known to every real
    controller at deployment time (DS2 instantiates its model with it;
    Dhalion's diagnosers walk it to find the backpressure initiator).
    """

    time: float
    window: MetricsWindow
    source_target_rates: Mapping[str, float]
    current_parallelism: Mapping[str, int]
    backpressured: Tuple[str, ...]
    in_outage: bool
    graph: Optional["LogicalGraph"] = None


class Controller(abc.ABC):
    """A scaling controller: observes metrics, proposes parallelism."""

    name: str = "abstract"

    @abc.abstractmethod
    def on_metrics(
        self, observation: Observation
    ) -> Optional[Dict[str, int]]:
        """Process one observation; return the desired parallelism per
        operator if a scaling action should be taken, else None."""

    def notify_rescaled(
        self,
        time: float,
        outage_seconds: float,
        new_parallelism: Mapping[str, int],
    ) -> None:
        """Called by the loop after a scaling command was applied."""

    def reset(self) -> None:
        """Clear controller state (fresh deployment)."""


@dataclass(frozen=True)
class ScalingEvent:
    """One applied scaling action."""

    time: float
    requested: Dict[str, int]
    applied: Dict[str, int]
    outage_seconds: float


@dataclass(frozen=True)
class FailedRescale:
    """One reconfiguration attempt the runtime rejected."""

    time: float
    requested: Dict[str, int]
    attempt: int
    reason: str


@dataclass(frozen=True)
class RetryConfig:
    """Capped exponential backoff for failed reconfigurations.

    The first retry waits ``initial_backoff_intervals`` policy
    intervals; each further retry multiplies the wait by
    ``backoff_base``, capped at ``max_backoff_intervals``. After
    ``max_attempts`` total attempts the action is abandoned (the
    controller will re-derive it from fresh metrics if still needed).
    """

    max_attempts: int = 4
    backoff_base: float = 2.0
    initial_backoff_intervals: float = 1.0
    max_backoff_intervals: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PolicyError("max_attempts must be >= 1")
        reason = invalid_backoff_reason(
            base=self.backoff_base,
            initial=self.initial_backoff_intervals,
            cap=self.max_backoff_intervals,
            base_name="backoff_base",
            initial_name="initial_backoff_intervals",
            cap_name="max_backoff_intervals",
        )
        if reason is not None:
            raise PolicyError(reason)

    def backoff_intervals(self, attempt: int) -> float:
        """Policy intervals to wait after failed attempt ``attempt``."""
        if attempt < 1:
            raise PolicyError("attempt must be >= 1")
        return capped_backoff(
            attempt,
            base=self.backoff_base,
            initial=self.initial_backoff_intervals,
            cap=self.max_backoff_intervals,
        )


@dataclass
class LoopResult:
    """Timeline produced by one control-loop run."""

    events: List[ScalingEvent] = field(default_factory=list)
    windows: List[MetricsWindow] = field(default_factory=list)
    decisions: List[Tuple[float, Optional[Dict[str, int]]]] = field(
        default_factory=list
    )
    failed_rescales: List[FailedRescale] = field(default_factory=list)
    #: One decision audit per policy invocation (inputs, Eq. 7/8
    #: traversal, and outcome) — what `repro explain` renders.
    audits: List[DecisionAudit] = field(default_factory=list)

    @property
    def scaling_steps(self) -> int:
        """Number of reconfigurations applied."""
        return len(self.events)


class ControlLoop:
    """Closed loop between a simulated job and a scaling controller."""

    def __init__(
        self,
        simulator: Simulator,
        controller: Controller,
        policy_interval: float,
        scalable_operators: Optional[Tuple[str, ...]] = None,
        tick_observer: Optional[Callable[[TickStats], None]] = None,
        retry: Optional[RetryConfig] = RetryConfig(),
        tracer: Optional[Tracer] = None,
        audit: bool = True,
    ) -> None:
        """Args:
            simulator: The job under control.
            controller: The scaling controller.
            policy_interval: Seconds of virtual time between metric
                collections / policy invocations.
            scalable_operators: Operators the loop may rescale; defaults
                to the graph's data-parallel non-source, non-sink
                operators. Requests for other operators are dropped
                (the paper's "users tag non-parallel operators for DS2
                to ignore").
            tick_observer: Optional callback invoked with every
                :class:`TickStats` (used to build time series).
            retry: Backoff schedule for reconfigurations the runtime
                rejects (:class:`~repro.errors.ReconfigurationError`);
                None propagates the first failure's record and never
                retries. Either way a rejected rescale leaves the
                running configuration untouched — the job is never left
                partially reconfigured.
            tracer: Trace sink for ``controller.invoke`` /
                ``controller.audit`` events; defaults to the ambient
                tracer (a no-op unless telemetry is active).
            audit: Record a :class:`~repro.telemetry.DecisionAudit`
                per policy invocation into ``result.audits``.
        """
        if not 0.0 < policy_interval < math.inf:
            raise PolicyError(
                f"policy_interval must be finite and > 0, "
                f"got {policy_interval!r}"
            )
        self._sim = simulator
        self._controller = controller
        self._interval = policy_interval
        self._scalable = (
            scalable_operators
            if scalable_operators is not None
            else simulator.graph.scalable_operators()
        )
        unknown = set(self._scalable) - set(simulator.graph.names)
        if unknown:
            raise PolicyError(f"unknown scalable operators {sorted(unknown)}")
        self._tick_observer = tick_observer
        self._retry = retry
        self._tracer = tracer if tracer is not None else active_tracer()
        self._profiler: SpanProfiler = active_profiler()
        self._audit_enabled = audit
        # (requested, next attempt number, earliest retry time)
        self._pending_retry: Optional[
            Tuple[Dict[str, int], int, float]
        ] = None
        self.result = LoopResult()

    @property
    def simulator(self) -> Simulator:
        return self._sim

    @property
    def controller(self) -> Controller:
        return self._controller

    @property
    def scalable_operators(self) -> Tuple[str, ...]:
        return self._scalable

    def run(self, duration: float) -> LoopResult:
        """Run the loop for ``duration`` seconds of virtual time."""
        if not 0.0 <= duration < math.inf:
            raise PolicyError(
                f"duration must be finite and >= 0, got {duration!r}"
            )
        end = self._sim.time + duration
        while self._sim.time < end - 1e-9:
            next_decision = min(end, self._sim.time + self._interval)
            while self._sim.time < next_decision - 1e-9:
                stats = self._sim.step()
                if self._tick_observer is not None:
                    self._tick_observer(stats)
            self._invoke_policy()
        return self.result

    def _invoke_policy(self) -> None:
        profiled = self._profiler.enabled
        if profiled:
            self._profiler.enter("controller.decide")
        try:
            window = self._sim.collect_metrics()
            self.result.windows.append(window)
            observation = Observation(
                time=self._sim.time,
                window=window,
                source_target_rates=self._sim.source_target_rates(),
                current_parallelism=self._sim.plan.parallelism,
                backpressured=self._sim.backpressured_operators(),
                in_outage=self._sim.in_outage,
                graph=self._sim.graph,
            )
            desired = self._controller.on_metrics(observation)
            self.result.decisions.append((self._sim.time, desired))
            audit: Optional[DecisionAudit] = None
            if self._audit_enabled:
                audit = build_decision_audit(
                    observation, desired, self._controller
                )
            if self._sim.in_outage:
                self._finish_decision(audit, "skipped", reason="outage")
                return
            requested, attempt = self._select_request(desired)
            if requested is None:
                if audit is not None and audit.skip_reason is not None:
                    self._finish_decision(audit, "skipped")
                elif self._pending_retry is not None:
                    self._finish_decision(audit, "backoff-wait")
                else:
                    self._finish_decision(audit, "hold")
                return
            self._attempt_rescale(requested, attempt, audit)
        finally:
            if profiled:
                self._profiler.exit("controller.decide")

    def _finish_decision(
        self,
        audit: Optional[DecisionAudit],
        outcome: str,
        reason: Optional[str] = None,
        applied: Optional[Dict[str, int]] = None,
        outage_seconds: float = 0.0,
        attempt: int = 0,
        failure_reason: Optional[str] = None,
    ) -> None:
        """Close out one policy invocation: finalize its audit record
        and emit the trace events."""
        if audit is not None:
            if reason is not None and audit.skip_reason is None:
                audit = replace(audit, skip_reason=reason)
            audit = finalize_audit(
                audit,
                outcome,
                applied=applied,
                outage_seconds=outage_seconds,
                attempt=attempt,
                failure_reason=failure_reason,
            )
            self.result.audits.append(audit)
        tracer = self._tracer
        if tracer.enabled:
            data: Dict[str, object] = {
                "controller": self._controller.name,
                "outcome": outcome,
            }
            if audit is not None and audit.skip_reason is not None:
                data["skip_reason"] = audit.skip_reason
            if applied is not None:
                data["applied"] = dict(applied)
            if attempt:
                data["attempt"] = attempt
            tracer.emit("controller.invoke", self._sim.time, **data)
            if audit is not None:
                tracer.emit(
                    "controller.audit",
                    self._sim.time,
                    audit=audit_to_dict(audit),
                )

    def _select_request(
        self, desired: Optional[Dict[str, int]]
    ) -> Tuple[Optional[Dict[str, int]], int]:
        """Resolve this interval's rescale request against any pending
        retry: a fresh identical decision does not reset the backoff,
        a different decision supersedes the pending one, and with no
        fresh decision the pending action is retried once its backoff
        elapses."""
        current = self._sim.plan.parallelism
        requested: Optional[Dict[str, int]] = None
        if desired is not None:
            filtered = {
                name: p
                for name, p in desired.items()
                if name in self._scalable
            }
            if filtered and any(
                current[name] != p for name, p in filtered.items()
            ):
                requested = filtered
        if requested is not None:
            pending = self._pending_retry
            if pending is not None and pending[0] == requested:
                _, attempt, not_before = pending
                if self._sim.time < not_before - 1e-9:
                    return None, 0
                return requested, attempt
            self._pending_retry = None
            return requested, 1
        pending = self._pending_retry
        if pending is None:
            return None, 0
        pending_requested, attempt, not_before = pending
        if self._sim.time < not_before - 1e-9:
            return None, 0
        if all(
            current[name] == p for name, p in pending_requested.items()
        ):
            self._pending_retry = None
            return None, 0
        return pending_requested, attempt

    def _attempt_rescale(
        self,
        requested: Dict[str, int],
        attempt: int,
        audit: Optional[DecisionAudit] = None,
    ) -> None:
        try:
            outage = self._sim.rescale(requested)
        except ReconfigurationError as exc:
            self._record_failed_rescale(requested, attempt, exc)
            self._finish_decision(
                audit,
                "rescale-failed",
                attempt=attempt,
                failure_reason=str(exc),
            )
            return
        self._pending_retry = None
        applied = self._sim.plan.parallelism if outage == 0 else (
            self._pending_parallelism(requested)
        )
        event = ScalingEvent(
            time=self._sim.time,
            requested=dict(requested),
            applied=applied,
            outage_seconds=outage,
        )
        self.result.events.append(event)
        self._controller.notify_rescaled(
            time=self._sim.time,
            outage_seconds=outage,
            new_parallelism=applied,
        )
        self._finish_decision(
            audit,
            "rescaled",
            applied=applied,
            outage_seconds=outage,
            attempt=attempt,
        )

    def _record_failed_rescale(
        self,
        requested: Dict[str, int],
        attempt: int,
        exc: ReconfigurationError,
    ) -> None:
        self.result.failed_rescales.append(
            FailedRescale(
                time=self._sim.time,
                requested=dict(requested),
                attempt=attempt,
                reason=str(exc),
            )
        )
        if self._retry is None or attempt >= self._retry.max_attempts:
            self._pending_retry = None
            return
        delay = self._retry.backoff_intervals(attempt) * self._interval
        self._pending_retry = (
            dict(requested),
            attempt + 1,
            self._sim.time + delay,
        )

    def _pending_parallelism(
        self, requested: Mapping[str, int]
    ) -> Dict[str, int]:
        """Parallelism that will be live once the in-flight redeploy
        completes (the simulator still reports the old plan during the
        outage)."""
        pending = self._sim.plan.clamped(requested)
        return pending.parallelism


__all__ = [
    "ControlLoop",
    "Controller",
    "FailedRescale",
    "LoopResult",
    "Observation",
    "RetryConfig",
    "ScalingEvent",
]
