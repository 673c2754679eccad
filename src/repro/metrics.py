"""Instrumentation metrics shared between the engine and controllers.

These structures are the contract of the paper's metrics repository
(Figure 5): the stream processor periodically reports, per operator
instance, the number of records pulled from the input, the number of
records pushed to the output, and the useful time spent in
deserialization, processing, and serialization (section 4.1). Everything
a controller knows about the job flows through a :class:`MetricsWindow`.

The window also carries the coarse externally-observable signals that
*baseline* controllers use (queue fill, backpressure flags, CPU
utilization) so that Dhalion-style policies can be driven from the same
repository — DS2 itself ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dataflow.physical import InstanceId
from repro.errors import MetricsError

#: Useful-time fractions below this (relative to the observed window) are
#: considered too noisy to derive true rates from.
MIN_USEFUL_FRACTION = 1e-6


@dataclass(frozen=True)
class InstanceCounters:
    """Raw counters for one operator instance over one observed window.

    Attributes:
        records_pulled: Records pulled from the input (``Rprc``).
        records_pushed: Records pushed to the output (``Rpsd``).
        useful_time: Seconds spent deserializing, processing, and
            serializing (``Wu``).
        waiting_time: Seconds spent waiting on input or output.
        observed_time: The observed window ``W`` in seconds.
    """

    records_pulled: float
    records_pushed: float
    useful_time: float
    waiting_time: float
    observed_time: float

    def __post_init__(self) -> None:
        if self.observed_time < 0:
            raise MetricsError("observed_time must be >= 0")
        if self.records_pulled < 0 or self.records_pushed < 0:
            raise MetricsError("record counters must be >= 0")
        if self.useful_time < 0 or self.waiting_time < 0:
            raise MetricsError("time counters must be >= 0")
        # Allow a small tolerance for floating-point accumulation.
        if self.useful_time > self.observed_time * (1 + 1e-6) + 1e-9:
            raise MetricsError(
                f"useful_time {self.useful_time} exceeds observed window "
                f"{self.observed_time}"
            )

    @property
    def true_processing_rate(self) -> Optional[float]:
        """``λp = Rprc / Wu`` (Eq. 1); None when Wu is ~0 (undefined)."""
        if self.useful_time <= self.observed_time * MIN_USEFUL_FRACTION:
            return None
        return self.records_pulled / self.useful_time

    @property
    def true_output_rate(self) -> Optional[float]:
        """``λo = Rpsd / Wu`` (Eq. 2); None when Wu is ~0 (undefined)."""
        if self.useful_time <= self.observed_time * MIN_USEFUL_FRACTION:
            return None
        return self.records_pushed / self.useful_time

    @property
    def observed_processing_rate(self) -> Optional[float]:
        """``λ̂p = Rprc / W`` (Eq. 3); None when W is 0 (undefined)."""
        if self.observed_time <= 0:
            return None
        return self.records_pulled / self.observed_time

    @property
    def observed_output_rate(self) -> Optional[float]:
        """``λ̂o = Rpsd / W`` (Eq. 4); None when W is 0 (undefined)."""
        if self.observed_time <= 0:
            return None
        return self.records_pushed / self.observed_time

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the window spent doing useful work — the kind of
        coarse metric threshold-based baselines rely on."""
        if self.observed_time <= 0:
            return 0.0
        return min(1.0, self.useful_time / self.observed_time)

    def merged(self, other: "InstanceCounters") -> "InstanceCounters":
        """Counters accumulated over two adjacent windows."""
        return InstanceCounters(
            records_pulled=self.records_pulled + other.records_pulled,
            records_pushed=self.records_pushed + other.records_pushed,
            useful_time=self.useful_time + other.useful_time,
            waiting_time=self.waiting_time + other.waiting_time,
            observed_time=self.observed_time + other.observed_time,
        )


@dataclass(frozen=True)
class OperatorHealth:
    """Coarse per-operator signals used by baseline controllers.

    Attributes:
        queue_fill: Worst input-queue occupancy across instances at
            collection time, in [0, 1] for bounded queues.
        backpressure: Whether the runtime's backpressure signal was
            raised at collection time.
        backpressure_fraction: Fraction of the window during which the
            backpressure signal was raised (what Dhalion's resolver
            bases its scale factor on).
        pending_records: Total records queued at the operator.
        completeness: Fraction of the operator's registered instances
            that actually reported counters for the window (1.0 in a
            healthy deployment; below 1 under metric dropout).
    """

    queue_fill: float
    backpressure: bool
    pending_records: float
    backpressure_fraction: float = 0.0
    completeness: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.queue_fill:
            raise MetricsError("queue_fill must be >= 0")
        if self.pending_records < 0:
            raise MetricsError("pending_records must be >= 0")
        if not 0.0 <= self.backpressure_fraction <= 1.0:
            raise MetricsError(
                "backpressure_fraction must be in [0, 1]"
            )
        if not 0.0 <= self.completeness <= 1.0:
            raise MetricsError("completeness must be in [0, 1]")


@dataclass(frozen=True)
class MetricsWindow:
    """Everything reported to the metrics repository for one window.

    Attributes:
        start: Virtual time at the window's start.
        end: Virtual time at the window's end.
        instances: Counters per operator instance.
        health: Coarse signals per operator (for baselines).
        source_observed_rates: Externally observed output rate of each
            source over the window (records/s) — these are depressed by
            backpressure, which is exactly what misleads observed-rate
            policies.
        outage_fraction: Fraction of the window during which the job was
            down for reconfiguration (useful for warm-up heuristics).
        completeness: Per-operator fraction of registered instances that
            reported counters for this window. Absent operators are
            assumed complete (1.0) so hand-built windows keep working.
        registered_parallelism: Per-operator number of instances that
            were *deployed* during the window — as opposed to
            ``parallelism_of``, which only counts instances that
            reported. The two differ under metric dropout.
        truncated: True when the reporting instance set was replaced
            mid-window (redeploy or crash recovery), discarding
            in-flight counters; such windows under-count activity and
            warm-up logic should skip them.
    """

    start: float
    end: float
    instances: Mapping[InstanceId, InstanceCounters]
    health: Mapping[str, OperatorHealth] = field(default_factory=dict)
    source_observed_rates: Mapping[str, float] = field(default_factory=dict)
    outage_fraction: float = 0.0
    completeness: Mapping[str, float] = field(default_factory=dict)
    registered_parallelism: Mapping[str, int] = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise MetricsError("window end precedes start")
        if not 0.0 <= self.outage_fraction <= 1.0:
            raise MetricsError("outage_fraction must be in [0, 1]")
        for name, value in self.completeness.items():
            if not 0.0 <= value <= 1.0:
                raise MetricsError(
                    f"completeness of {name!r} must be in [0, 1]"
                )
        for name, value in self.registered_parallelism.items():
            if value < 0:
                raise MetricsError(
                    f"registered parallelism of {name!r} must be >= 0"
                )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def operators(self) -> Tuple[str, ...]:
        """Operator names present in the window, sorted."""
        return tuple(sorted({iid.operator for iid in self.instances}))

    def instances_of(self, operator: str) -> List[InstanceId]:
        """Instance ids of one operator, sorted by index."""
        return sorted(
            (iid for iid in self.instances if iid.operator == operator),
            key=lambda iid: iid.index,
        )

    def parallelism_of(self, operator: str) -> int:
        """Number of reporting instances of an operator."""
        count = len(self.instances_of(operator))
        if count == 0:
            raise MetricsError(f"no instances reported for {operator!r}")
        return count

    def completeness_of(self, operator: str) -> float:
        """Fraction of the operator's registered instances that
        reported for this window (1.0 when not tracked)."""
        return self.completeness.get(operator, 1.0)

    def registered_parallelism_of(self, operator: str) -> int:
        """Number of instances *deployed* for an operator during the
        window; falls back to the reporting count when the deployed
        set was not tracked (hand-built windows)."""
        registered = self.registered_parallelism.get(operator)
        if registered is not None and registered > 0:
            return registered
        return self.parallelism_of(operator)

    def aggregated_true_processing_rate(self, operator: str) -> Optional[float]:
        """``o_i[λp]`` (Eq. 5): sum of per-instance true processing rates.

        Returns None if no instance of the operator has a defined true
        rate (e.g. the operator never ran during the window). Instances
        with undefined rates are treated as contributing their siblings'
        average, which avoids underestimating capacity when some
        instances were starved.
        """
        return self._aggregate(operator, "true_processing_rate")

    def aggregated_true_output_rate(self, operator: str) -> Optional[float]:
        """``o_i[λo]`` (Eq. 6): sum of per-instance true output rates."""
        return self._aggregate(operator, "true_output_rate")

    def _aggregate(self, operator: str, attribute: str) -> Optional[float]:
        instance_ids = self.instances_of(operator)
        if not instance_ids:
            raise MetricsError(f"no instances reported for {operator!r}")
        defined = [
            getattr(self.instances[iid], attribute) for iid in instance_ids
        ]
        known = [value for value in defined if value is not None]
        if not known:
            return None
        mean = sum(known) / len(known)
        # Starved instances contribute the mean of their siblings: the
        # paper aggregates over all p_i instances and an idle instance
        # has the same capacity as a busy one.
        return sum(value if value is not None else mean for value in defined)

    def observed_processing_rate(self, operator: str) -> float:
        """Summed observed processing rate across instances (records/s)."""
        total = 0.0
        for iid in self.instances_of(operator):
            rate = self.instances[iid].observed_processing_rate
            total += rate or 0.0
        return total

    def observed_output_rate(self, operator: str) -> float:
        """Summed observed output rate across instances (records/s)."""
        total = 0.0
        for iid in self.instances_of(operator):
            rate = self.instances[iid].observed_output_rate
            total += rate or 0.0
        return total

    def cpu_utilization(self, operator: str) -> float:
        """Mean CPU utilization across an operator's instances."""
        instance_ids = self.instances_of(operator)
        if not instance_ids:
            return 0.0
        return sum(
            self.instances[iid].cpu_utilization for iid in instance_ids
        ) / len(instance_ids)

    def utilization_imbalance(self, operator: str) -> Tuple[float, float]:
        """(max_utilization, max/mean utilization ratio) across an
        operator's instances.

        A skewed operator shows a *saturated* hot instance while its
        siblings idle (high max, ratio above 1); a merely
        under-provisioned but balanced operator saturates every
        instance (high max, ratio near 1). The pair separates the two
        cases, which a single aggregate utilization cannot.
        """
        utils = [
            self.instances[iid].cpu_utilization
            for iid in self.instances_of(operator)
        ]
        if not utils:
            raise MetricsError(f"no instances reported for {operator!r}")
        peak = max(utils)
        mean = sum(utils) / len(utils)
        if mean <= 0:
            return peak, 1.0
        return peak, peak / mean

    def selectivity(self, operator: str) -> Optional[float]:
        """Measured selectivity ``o[λo]/o[λp]`` over the window, i.e.
        records pushed per record pulled; None when nothing was pulled."""
        pulled = sum(
            self.instances[iid].records_pulled
            for iid in self.instances_of(operator)
        )
        pushed = sum(
            self.instances[iid].records_pushed
            for iid in self.instances_of(operator)
        )
        if pulled <= 0:
            return None
        return pushed / pulled


def downtime_seconds(windows: Iterable[MetricsWindow]) -> float:
    """Total seconds the job was down across a sequence of windows.

    Each window reports the fraction of its span spent in an outage
    (reconfiguration or crash recovery); summing ``fraction × duration``
    recovers absolute downtime — the availability denominator of the
    chaos scorecards.
    """
    return sum(w.outage_fraction * w.duration for w in windows)


def merge_windows(windows: Iterable[MetricsWindow]) -> MetricsWindow:
    """Merge adjacent metric windows into one (counters summed, health
    taken from the latest window)."""
    ordered = sorted(windows, key=lambda w: w.start)
    if not ordered:
        raise MetricsError("cannot merge zero windows")
    merged: Dict[InstanceId, InstanceCounters] = {}
    total = ordered[-1].end - ordered[0].start
    outage = 0.0
    completeness: Dict[str, float] = {}
    for window in ordered:
        outage += window.outage_fraction * window.duration
        for iid, counters in window.instances.items():
            if iid in merged:
                merged[iid] = merged[iid].merged(counters)
            else:
                merged[iid] = counters
        # Completeness merges conservatively: an operator is only as
        # complete as its worst constituent window.
        for name, value in window.completeness.items():
            completeness[name] = min(completeness.get(name, 1.0), value)
    return MetricsWindow(
        start=ordered[0].start,
        end=ordered[-1].end,
        instances=merged,
        health=ordered[-1].health,
        source_observed_rates=ordered[-1].source_observed_rates,
        outage_fraction=outage / total if total > 0 else 0.0,
        completeness=completeness,
        registered_parallelism=ordered[-1].registered_parallelism,
        truncated=any(window.truncated for window in ordered),
    )


__all__ = [
    "InstanceCounters",
    "MetricsWindow",
    "OperatorHealth",
    "downtime_seconds",
    "merge_windows",
    "MIN_USEFUL_FRACTION",
]
