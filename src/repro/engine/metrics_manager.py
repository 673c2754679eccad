"""The MetricsManager: instrumentation aggregation (paper section 4.1).

Each operator instance maintains local counters for records read,
records produced, useful (deserialization + processing + serialization)
time, and waiting time. The :class:`MetricsManager` aggregates them and
reports a :class:`~repro.metrics.MetricsWindow` on demand — the analogue
of the per-thread MetricsManager module the authors added to Flink and
Timely.

Real metric pipelines fail partially: a reporter stalls in a GC pause,
an instance restarts mid-window, a redeploy discards in-flight counters.
The manager therefore tracks *which* instances reported and surfaces two
robustness signals in every window:

* per-operator **completeness** — the fraction of registered instances
  whose counters made it into the window (suppressed instances hold
  their counters locally and deliver them once reporting resumes, as a
  recovered reporter would);
* a **truncated** flag — set when the registered instance set was
  replaced mid-window (redeploy, crash recovery), which silently
  discards the in-flight counters of the old instances and makes the
  window under-count activity.

Storage is one accumulator with a row per registered instance and
columns ``[pulled, pushed, useful, waiting, observed]``. The row order
is the registration order —
:meth:`~repro.dataflow.physical.PhysicalPlan.all_instances`, i.e.
topological operator order with instance indexes ascending — so each
operator owns one contiguous row block, a list of per-row float lists
that the engine's :meth:`record_rows` calls (one per lane of identical
instances) update.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.dataflow.physical import InstanceId
from repro.errors import MetricsError
from repro.metrics import InstanceCounters, MetricsWindow, OperatorHealth
from repro.telemetry.spans import SpanProfiler, active_profiler
from repro.telemetry.tracer import Tracer, active_tracer

# Accumulator columns.
_PULLED, _PUSHED, _USEFUL, _WAITING, _OBSERVED = range(5)


class MetricsManager:
    """Accumulates per-instance counters between collections."""

    def __init__(
        self,
        start_time: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else active_tracer()
        self._profiler: SpanProfiler = active_profiler()
        self._window_start = start_time
        self._now = start_time
        self._outage_time = 0.0
        # Accumulator: row per instance, columns [pulled, pushed,
        # useful, waiting, observed].
        self._ids: Tuple[InstanceId, ...] = ()
        self._index: Dict[InstanceId, int] = {}
        self._acc: List[List[float]] = []
        # Instances whose reports are currently withheld (dropout).
        self._suppressed: Set[InstanceId] = set()
        # Whether in-flight counters were discarded this window.
        self._truncated = False

    @property
    def window_start(self) -> float:
        return self._window_start

    @property
    def now(self) -> float:
        return self._now

    @property
    def suppressed(self) -> Set[InstanceId]:
        """Instances currently withholding their reports."""
        return set(self._suppressed)

    @property
    def registered(self) -> Tuple[InstanceId, ...]:
        """Registered instances in row (registration) order."""
        return self._ids

    def row_of(self, instance: InstanceId) -> int:
        """Accumulator row index of a registered instance."""
        try:
            return self._index[instance]
        except KeyError:
            raise MetricsError(
                f"unregistered instance {instance}"
            ) from None

    def register_instances(self, instances: Iterable[InstanceId]) -> None:
        """Replace the reporting instance set (called on deploy and on
        every redeploy — counters restart for the new instances).

        Replacing a non-empty instance set mid-window discards the old
        instances' in-flight counters, so the window collected next is
        flagged as truncated — warm-up logic must not mistake it for a
        full observation.
        """
        if any(row[_OBSERVED] > 0 for row in self._acc):
            self._truncated = True
        self._ids = tuple(instances)
        self._index = {iid: row for row, iid in enumerate(self._ids)}
        if len(self._index) != len(self._ids):
            raise MetricsError("duplicate instances in registration")
        self._acc = [[0.0, 0.0, 0.0, 0.0, 0.0] for _ in self._ids]
        # Suppressions name instances of the previous deployment; the
        # injector (or caller) re-applies them against the new set.
        self._suppressed.clear()

    def set_suppressed(self, instances: Iterable[InstanceId]) -> bool:
        """Mark instances whose reports are withheld from collections
        (metric dropout). Their counters keep accumulating locally and
        are delivered in the first window after suppression lifts.
        Returns whether the suppressed set changed."""
        suppressed = set(instances)
        unknown = [iid for iid in suppressed if iid not in self._index]
        if unknown:
            raise MetricsError(
                f"cannot suppress unregistered instances {sorted(unknown)}"
            )
        if suppressed == self._suppressed:
            return False
        self._suppressed = suppressed
        return True

    def record(
        self,
        instance: InstanceId,
        pulled: float,
        pushed: float,
        useful: float,
        waiting: float,
    ) -> None:
        """Accumulate one tick's activity for an instance."""
        if instance not in self._index:
            raise MetricsError(f"unregistered instance {instance}")
        if min(pulled, pushed, useful, waiting) < 0:
            raise MetricsError("counters must be >= 0")
        self.record_row(
            self._index[instance], pulled, pushed, useful, waiting
        )

    def record_row(
        self,
        row: int,
        pulled: float,
        pushed: float,
        useful: float,
        waiting: float,
    ) -> None:
        """:meth:`record` by accumulator row (see :meth:`row_of`), for
        the engine's own counters, which are non-negative by
        construction: no instance lookup, no validation."""
        acc = self._acc[row]
        acc[_PULLED] += pulled
        acc[_PUSHED] += pushed
        acc[_USEFUL] += useful
        acc[_WAITING] += waiting

    def record_rows(
        self,
        start: int,
        stop: int,
        pulled: float,
        pushed: float,
        useful: float,
        waiting: float,
    ) -> None:
        """:meth:`record_row` with the same values for every row of
        ``[start, stop)``: the engine's lane of identical instances."""
        for acc in self._acc[start:stop]:
            acc[_PULLED] += pulled
            acc[_PUSHED] += pushed
            acc[_USEFUL] += useful
            acc[_WAITING] += waiting

    def advance(self, dt: float, outage: bool = False) -> None:
        """Advance observed time by one tick for every instance."""
        if dt < 0:
            raise MetricsError("dt must be >= 0")
        self._now += dt
        if outage:
            self._outage_time += dt
        for row in self._acc:
            row[_OBSERVED] += dt

    def completeness(self) -> Dict[str, float]:
        """Fraction of registered instances currently reporting, per
        operator (1.0 everywhere while nothing is suppressed)."""
        registered: Dict[str, int] = {}
        reporting: Dict[str, int] = {}
        for iid in self._ids:
            registered[iid.operator] = registered.get(iid.operator, 0) + 1
            if iid not in self._suppressed:
                reporting[iid.operator] = reporting.get(iid.operator, 0) + 1
        return {
            name: reporting.get(name, 0) / count
            for name, count in registered.items()
        }

    def utilization(self, operator: str) -> float:
        """Useful-time fraction of ``operator`` over the counters
        accumulated since the last collection: the summed useful time of
        its reporting instances divided by their summed observed time
        (0.0 before any time has been observed).

        This is the live view of the quantity DS2's model consumes per
        window — surfaced mid-window so chaos campaigns and dashboards
        can watch saturation build without forcing a collection.
        """
        useful = 0.0
        observed = 0.0
        known = False
        for row_index, iid in enumerate(self._ids):
            if iid.operator != operator:
                continue
            known = True
            if iid in self._suppressed:
                continue
            row = self._acc[row_index]
            useful += row[_USEFUL]
            observed += row[_OBSERVED]
        if not known:
            raise MetricsError(f"unregistered operator {operator!r}")
        if observed <= 0:
            return 0.0
        return min(1.0, useful / observed)

    def collect(
        self,
        health: Optional[Mapping[str, OperatorHealth]] = None,
        source_observed_rates: Optional[Mapping[str, float]] = None,
    ) -> MetricsWindow:
        """Build a window from the accumulated counters and reset them.

        ``health`` and ``source_observed_rates`` are snapshots provided
        by the simulator at collection time. Suppressed instances are
        omitted from the window (they did not report); their counters
        are held, not reset, so they deliver a catch-up report spanning
        several windows once suppression lifts.
        """
        profiled = self._profiler.enabled
        if profiled:
            self._profiler.enter("metrics.collect")
        try:
            duration = self._now - self._window_start
            instances: Dict[InstanceId, InstanceCounters] = {}
            for row_index, iid in enumerate(self._ids):
                if iid in self._suppressed:
                    continue
                pulled, pushed, useful, waiting, observed = self._acc[
                    row_index
                ]
                # Clamp float accumulation drift so that Wu <= W holds.
                useful = min(useful, observed)
                instances[iid] = InstanceCounters(
                    records_pulled=pulled,
                    records_pushed=pushed,
                    useful_time=useful,
                    waiting_time=waiting,
                    observed_time=observed,
                )
            completeness = self.completeness()
            registered_parallelism: Dict[str, int] = {}
            for iid in self._ids:
                registered_parallelism[iid.operator] = (
                    registered_parallelism.get(iid.operator, 0) + 1
                )
            merged_health: Dict[str, OperatorHealth] = {}
            for name, entry in (health or {}).items():
                merged_health[name] = replace(
                    entry, completeness=completeness.get(name, 1.0)
                )
            window = MetricsWindow(
                start=self._window_start,
                end=self._now,
                instances=instances,
                health=merged_health,
                source_observed_rates=dict(source_observed_rates or {}),
                outage_fraction=(
                    min(1.0, self._outage_time / duration)
                    if duration > 0
                    else 0.0
                ),
                completeness=completeness,
                registered_parallelism=registered_parallelism,
                truncated=self._truncated,
            )
            if self._tracer.enabled:
                self._tracer.emit(
                    "metrics.collect",
                    self._now,
                    start=self._window_start,
                    duration=duration,
                    instances=len(instances),
                    suppressed=len(self._suppressed),
                    truncated=self._truncated,
                    outage_fraction=window.outage_fraction,
                    min_completeness=(
                        min(completeness.values()) if completeness else 1.0
                    ),
                )
            self._window_start = self._now
            self._outage_time = 0.0
            self._truncated = False
            for row_index, iid in enumerate(self._ids):
                if iid in self._suppressed:
                    continue
                row = self._acc[row_index]
                row[_PULLED] = row[_PUSHED] = 0.0
                row[_USEFUL] = row[_WAITING] = row[_OBSERVED] = 0.0
            return window
        finally:
            if profiled:
                self._profiler.exit("metrics.collect")


__all__ = ["MetricsManager"]
