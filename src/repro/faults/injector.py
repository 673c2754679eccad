"""The fault-injection shim.

:class:`FaultInjector` wraps a :class:`~repro.engine.simulator.Simulator`
and injects the faults of a :class:`~repro.faults.schedule.FaultSchedule`
by intercepting exactly four calls — ``step``, ``collect_metrics``,
``source_target_rates`` and ``rescale`` — and delegating everything else
untouched (``run_for`` and ``run_until`` step through the intercepted
``step``). The simulator is never forked or subclassed: a control loop
(or experiment harness) that receives an injector instead of a bare
simulator runs unchanged, which is what keeps the fault-free and
fault-injected code paths provably identical.

Injection points:

* ``step`` — fires due one-shot events (instance crashes, arming
  rescale failures) and keeps the metric-dropout suppression set in
  sync with the active events. A crash's outage is charged by the
  *runtime's* :class:`~repro.engine.recovery.RecoveryModel` (via
  :meth:`~repro.engine.simulator.Simulator.fail_instance`) — savepoint
  restore on Flink, peer re-sync on Timely, container restart on
  Heron — never hardcoded here.
* ``collect_metrics`` — depresses source telemetry under source
  dropout, miscounts records under corruption, distorts queue-fill /
  backpressure signals under health corruption, and re-delivers /
  merges windows under metrics lag.
* ``source_target_rates`` — the externally monitored λ_src is sampled
  from the same reporters as the metrics pipeline, so it too drops
  when source reporters go silent. This is the legacy failure mode the
  hardened manager compensates for.
* ``rescale`` — armed :class:`~repro.faults.events.RescaleFailure`
  events reject the request (``abort``) or charge a full
  savepoint-and-restart outage first (``timeout``); either way the old
  configuration keeps running and the request raises
  :class:`~repro.errors.ReconfigurationError`. The *timeout* cost is
  deliberately the savepoint model, not the recovery model: a timed-out
  rescale is a failed reconfiguration, not a crash.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.dataflow.physical import InstanceId
from repro.engine.simulator import Simulator, TickStats
from repro.errors import EngineError, ReconfigurationError
from repro.faults.events import (
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
)
from repro.faults.schedule import FaultSchedule
from repro.metrics import InstanceCounters, MetricsWindow, merge_windows
from repro.telemetry.spans import SpanProfiler, active_profiler
from repro.telemetry.tracer import active_tracer


class FaultInjector:
    """Transparent fault-injecting proxy around a simulator."""

    def __init__(self, simulator: Simulator, schedule: FaultSchedule) -> None:
        self._sim = simulator
        self._schedule = schedule
        # Injections are emitted as trace events whose kinds reuse the
        # repro.faults.events vocabulary ("fault.<EventClassName>").
        self._tracer = active_tracer()
        self._profiler: SpanProfiler = active_profiler()
        # One-shot events in firing order (the schedule is time-sorted)
        # and a cursor at the first one not yet fired.
        self._one_shots = tuple(
            event
            for event in schedule.events
            if isinstance(event, (InstanceCrash, RescaleFailure))
        )
        self._next_one_shot = 0
        # Armed rescale failures: [event, remaining count].
        self._armed: List[List] = []
        # Metrics-lag state: buffered fresh windows and the last window
        # actually delivered before the lag started.
        self._lag_buffer: List[MetricsWindow] = []
        self._last_delivered: Optional[MetricsWindow] = None
        # Human-readable record of every injection, for reports/tests.
        self._log: List[Tuple[float, str]] = []
        # (virtual time, outage seconds) per fired instance crash —
        # the structured view campaign scorers aggregate into
        # per-runtime recovery-time distributions.
        self._crash_outages: List[Tuple[float, float]] = []
        # Metric dropout: the active dropouts change only where sim
        # time reaches a dropout's start or end, and a registration
        # (every redeploy) clears the suppressed set. So the silenced
        # set is recomputed only when time leaves the span between two
        # boundaries, [lo, hi), or the registration count moves.
        self._dropout_bounds = tuple(
            sorted(
                {
                    bound
                    for event in schedule.events
                    if isinstance(event, MetricDropout)
                    for bound in (event.time, event.end)
                }
            )
        )
        self._dropout_span = (math.inf, -math.inf)  # empty: sync first
        self._dropout_registration = -1
        # A tick has injector work only once sim time reaches the next
        # one-shot or leaves the dropout span, or a redeploy moved the
        # registration count; ``step`` skips both checks before that.
        self._metrics = simulator.metrics_manager
        self._next_due = -math.inf

    def __getattr__(self, name: str):
        # Everything not intercepted goes straight to the simulator
        # (only consulted when normal attribute lookup fails).
        return getattr(self._sim, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        return self._sim

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    @property
    def injection_log(self) -> List[Tuple[float, str]]:
        """(virtual time, description) per injected fault action."""
        return list(self._log)

    @property
    def crash_outages(self) -> List[Tuple[float, float]]:
        """(virtual time, recovery outage seconds) per fired crash."""
        return list(self._crash_outages)

    @property
    def one_shots_pending(self) -> int:
        """One-shot events (crashes, rescale-failure arming) not yet
        fired. Once it is 0, no later tick can add a crash outage."""
        return len(self._one_shots) - self._next_one_shot

    @property
    def armed_rescale_failures(self) -> int:
        """Rescale failures still waiting to reject a request."""
        return sum(remaining for _, remaining in self._armed)

    # ------------------------------------------------------------------
    # Intercepted simulator surface
    # ------------------------------------------------------------------

    def step(self) -> TickStats:
        sim = self._sim
        if (
            sim.time >= self._next_due
            or self._metrics.registrations != self._dropout_registration
        ):
            self._fire_one_shots()
            self._sync_suppression()
            # Sim time only moves forward, and the cursor and the span
            # move only here and in a later sync, so this is never
            # later than the first tick with work.
            events, cursor = self._one_shots, self._next_one_shot
            self._next_due = min(
                events[cursor].time if cursor < len(events) else math.inf,
                self._dropout_span[1],
            )
        return sim.step()

    def run_for(self, seconds: float) -> None:
        """:meth:`Simulator.run_for` through :meth:`step`, so that every
        tick fires its due faults and syncs the dropouts."""
        if not 0.0 <= seconds < math.inf:
            raise EngineError(
                f"seconds must be finite and >= 0, got {seconds!r}"
            )
        sim = self._sim
        target = sim.time + seconds
        while sim.time < target - 1e-9:
            self.step()

    def run_until(self, time: float) -> None:
        """:meth:`Simulator.run_until` through :meth:`step`."""
        if not math.isfinite(time):
            raise EngineError(f"time must be finite, got {time!r}")
        if time < self._sim.time:
            raise EngineError("cannot run backwards in time")
        self.run_for(time - self._sim.time)

    def collect_metrics(self) -> MetricsWindow:
        self._sync_suppression()
        window = self._sim.collect_metrics()
        window = self._depress_source_telemetry(window)
        window = self._corrupt(window)
        window = self._corrupt_health(window)
        return self._apply_lag(window)

    def source_target_rates(self) -> Dict[str, float]:
        """λ_src as the (possibly degraded) rate monitor reports it."""
        rates = self._sim.source_target_rates()
        for name in rates:
            rates[name] *= self._telemetry_completeness(name)
        return rates

    def rescale(self, updates: Mapping[str, int]) -> float:
        for entry in self._armed:
            event, remaining = entry
            if remaining <= 0:
                continue
            entry[1] -= 1
            if event.mode == "timeout":
                outage = self._sim.runtime.savepoint_model().outage_seconds(
                    self._sim.state_model.total_bytes
                )
                self._sim.force_outage(outage)
                self._note(
                    f"rescale to {dict(updates)} timed out after "
                    f"{outage:.1f}s outage; old configuration restored"
                )
                self._trace(
                    event,
                    action="rejected",
                    mode=event.mode,
                    requested=dict(updates),
                    outage=outage,
                )
                raise ReconfigurationError(
                    f"reconfiguration timed out after {outage:.1f}s; "
                    f"job restored to the previous configuration"
                )
            self._note(
                f"rescale to {dict(updates)} aborted (savepoint refused)"
            )
            self._trace(
                event,
                action="rejected",
                mode=event.mode,
                requested=dict(updates),
            )
            raise ReconfigurationError(
                "reconfiguration aborted: savepoint refused"
            )
        return self._sim.rescale(updates)

    # ------------------------------------------------------------------
    # One-shot events
    # ------------------------------------------------------------------

    def _fire_one_shots(self) -> None:
        now = self._sim.time
        events = self._one_shots
        while (
            self._next_one_shot < len(events)
            and events[self._next_one_shot].time <= now
        ):
            event = events[self._next_one_shot]
            self._next_one_shot += 1
            if isinstance(event, InstanceCrash):
                profiled = self._profiler.enabled
                if profiled:
                    self._profiler.enter("fault.fire")
                try:
                    parallelism = self._sim.plan.parallelism.get(
                        event.operator
                    )
                    if parallelism is None:
                        self._note(
                            f"crash of unknown operator "
                            f"{event.operator!r} skipped"
                        )
                        continue
                    # Clamp: the schedule may predate a scale-down.
                    idx = min(event.index, parallelism - 1)
                    outage = self._sim.fail_instance(event.operator, idx)
                    self._crash_outages.append((now, outage))
                    self._note(
                        f"crashed {event.operator}[{idx}]; recovery "
                        f"outage {outage:.1f}s"
                    )
                    self._trace(
                        event,
                        operator=event.operator,
                        index=idx,
                        outage=outage,
                    )
                finally:
                    if profiled:
                        self._profiler.exit("fault.fire")
            elif isinstance(event, RescaleFailure):
                profiled = self._profiler.enabled
                if profiled:
                    self._profiler.enter("fault.fire")
                try:
                    self._armed.append([event, event.count])
                    self._note(
                        f"armed {event.count} rescale failure(s) "
                        f"(mode={event.mode})"
                    )
                    self._trace(
                        event,
                        action="armed",
                        mode=event.mode,
                        count=event.count,
                    )
                finally:
                    if profiled:
                        self._profiler.exit("fault.fire")

    # ------------------------------------------------------------------
    # Metric dropout
    # ------------------------------------------------------------------

    def _dropped_instances(self, now: float) -> Set[InstanceId]:
        """Instances silenced by the dropouts active at ``now``, against
        the currently deployed parallelism (lowest indices first, so
        the choice is stable across windows and replays)."""
        dropped: Set[InstanceId] = set()
        parallelism = self._sim.plan.parallelism
        for event in self._schedule.active(now, MetricDropout):
            count = parallelism.get(event.operator, 0)
            if count <= 0:
                continue
            silenced = min(count, int(round(event.fraction * count)))
            for idx in range(silenced):
                dropped.add(InstanceId(event.operator, idx))
        return dropped

    def _sync_suppression(self) -> None:
        manager = self._metrics
        now = self._sim.time
        lo, hi = self._dropout_span
        registration = manager.registrations
        if lo <= now < hi and registration == self._dropout_registration:
            return
        bounds = self._dropout_bounds
        index = bisect_right(bounds, now)
        self._dropout_span = (
            bounds[index - 1] if index else -math.inf,
            bounds[index] if index < len(bounds) else math.inf,
        )
        self._dropout_registration = registration
        dropped = self._dropped_instances(now)
        if manager.set_suppressed(dropped):
            if self._tracer.enabled:
                self._tracer.emit(
                    "fault.MetricDropout",
                    self._sim.time,
                    suppressed=sorted(
                        f"{iid.operator}[{iid.index}]"
                        for iid in dropped
                    ),
                )

    def _telemetry_completeness(self, operator: str) -> float:
        """Fraction of an operator's reporters still audible to the
        external telemetry at the current time."""
        count = self._sim.plan.parallelism.get(operator, 0)
        if count <= 0:
            return 1.0
        silenced = len(
            {
                iid
                for iid in self._dropped_instances(self._sim.time)
                if iid.operator == operator
            }
        )
        return (count - silenced) / count

    def _depress_source_telemetry(
        self, window: MetricsWindow
    ) -> MetricsWindow:
        """The observed source rates come from the same per-instance
        reporters the metrics pipeline uses, so a half-silenced source
        shows half its true rate — the signal that tricks a
        non-hardened controller into scaling the whole job down."""
        observed = dict(window.source_observed_rates)
        changed = False
        for name in observed:
            fraction = window.completeness_of(name)
            if fraction < 1.0:
                observed[name] *= fraction
                changed = True
        if not changed:
            return window
        return replace(window, source_observed_rates=observed)

    # ------------------------------------------------------------------
    # Metric corruption
    # ------------------------------------------------------------------

    def _corrupt(self, window: MetricsWindow) -> MetricsWindow:
        events = self._schedule.active(self._sim.time, MetricCorruption)
        if not events:
            return window
        instances = dict(window.instances)
        changed = False
        for event in events:
            rng = self._schedule.rng_for(event, salt=window.start)
            for iid in sorted(
                instances, key=lambda i: (i.operator, i.index)
            ):
                if iid.operator != event.operator:
                    continue
                factor = 1.0 + rng.uniform(
                    -event.amplitude, event.amplitude
                )
                counters = instances[iid]
                instances[iid] = InstanceCounters(
                    records_pulled=counters.records_pulled * factor,
                    records_pushed=counters.records_pushed * factor,
                    useful_time=counters.useful_time,
                    waiting_time=counters.waiting_time,
                    observed_time=counters.observed_time,
                )
                changed = True
        if not changed:
            return window
        self._note(
            f"corrupted record counters of "
            f"{sorted({e.operator for e in events})}"
        )
        return replace(window, instances=instances)

    # ------------------------------------------------------------------
    # Health-signal corruption
    # ------------------------------------------------------------------

    def _corrupt_health(self, window: MetricsWindow) -> MetricsWindow:
        """Corrupt the coarse health signals the baselines consume.

        Queue fill and pending records are scaled by independent
        factors from ``[1 - amplitude, 1 + amplitude]``; the
        backpressure flag is then *recomputed* against the runtime's
        high-water mark, so an inflated queue raises phantom
        backpressure and a deflated one hides the real thing. The
        record counters DS2 reads are untouched.
        """
        events = self._schedule.active(self._sim.time, HealthCorruption)
        if not events:
            return window
        health = dict(window.health)
        threshold = self._sim.runtime.backpressure_threshold
        changed = False
        for event in events:
            entry = health.get(event.operator)
            if entry is None:
                continue
            rng = self._schedule.rng_for(event, salt=window.start)
            queue_factor = 1.0 + rng.uniform(
                -event.amplitude, event.amplitude
            )
            pending_factor = 1.0 + rng.uniform(
                -event.amplitude, event.amplitude
            )
            fraction_factor = 1.0 + rng.uniform(
                -event.amplitude, event.amplitude
            )
            queue_fill = max(0.0, entry.queue_fill * queue_factor)
            backpressure = queue_fill >= threshold
            fraction = min(
                1.0, entry.backpressure_fraction * fraction_factor
            )
            if backpressure and fraction <= 0.0:
                # A raised flag with zero duration would be ignored by
                # duration-based resolvers; a corrupted reporter that
                # claims a hot queue claims it was hot for a while.
                fraction = min(1.0, queue_fill)
            health[event.operator] = replace(
                entry,
                queue_fill=queue_fill,
                backpressure=backpressure,
                backpressure_fraction=fraction,
                pending_records=max(
                    0.0, entry.pending_records * pending_factor
                ),
            )
            changed = True
            self._trace(
                event,
                operator=event.operator,
                queue_fill=round(queue_fill, 6),
                backpressure=backpressure,
                was_backpressure=entry.backpressure,
            )
        if not changed:
            return window
        self._note(
            f"corrupted health signals of "
            f"{sorted({e.operator for e in events})}"
        )
        return replace(window, health=health)

    # ------------------------------------------------------------------
    # Metrics lag
    # ------------------------------------------------------------------

    def _apply_lag(self, window: MetricsWindow) -> MetricsWindow:
        if self._schedule.active(self._sim.time, MetricLag):
            self._lag_buffer.append(window)
            if self._last_delivered is not None:
                self._note(
                    "metrics lag: re-delivered window "
                    f"[{self._last_delivered.start:.0f}, "
                    f"{self._last_delivered.end:.0f}]"
                )
                return self._last_delivered
            # Nothing delivered yet to repeat: the first window leaks
            # through (a lagging pipeline still has a newest window).
            self._lag_buffer.pop()
            self._last_delivered = window
            return window
        if self._lag_buffer:
            backlog = self._lag_buffer + [window]
            self._lag_buffer = []
            merged = merge_windows(backlog)
            self._note(
                f"metrics lag ended: delivered {len(backlog)} "
                f"buffered window(s) merged"
            )
            self._last_delivered = merged
            return merged
        self._last_delivered = window
        return window

    # ------------------------------------------------------------------

    def _note(self, message: str) -> None:
        self._log.append((self._sim.time, message))

    def _trace(self, event: object, **data: object) -> None:
        """Emit one injection as a trace event. The kind is derived
        from the fault event's class (``fault.InstanceCrash``, ...)
        so the trace vocabulary *is* the repro.faults.events one."""
        if self._tracer.enabled:
            self._tracer.emit(
                f"fault.{type(event).__name__}", self._sim.time, **data
            )


__all__ = ["FaultInjector"]
