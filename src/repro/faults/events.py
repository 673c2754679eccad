"""Declarative fault events.

Each event is an immutable record of *what* goes wrong and *when* (in
virtual seconds from job start). One-shot events (:class:`InstanceCrash`,
:class:`RescaleFailure`) fire once; interval events
(:class:`MetricDropout`, :class:`MetricLag`, :class:`MetricCorruption`,
:class:`HealthCorruption`) are active for a ``duration`` starting at
``time``.

The events map to the failures a long-running streaming deployment
actually sees — see DESIGN.md for the correspondence (TaskManager loss,
metrics-reporter GC pauses, lagging collection pipelines, savepoints
that fail or time out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FaultInjectionError


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something goes wrong at ``time`` (virtual seconds)."""

    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise FaultInjectionError(
                f"event time must be finite and >= 0, got {self.time!r}"
            )


@dataclass(frozen=True)
class _IntervalEvent(FaultEvent):
    """A fault that stays active for ``duration`` seconds."""

    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise FaultInjectionError(
                f"duration must be finite and > 0, got {self.duration!r}"
            )

    @property
    def end(self) -> float:
        return self.time + self.duration

    def active_at(self, now: float) -> bool:
        return self.time <= now < self.end


@dataclass(frozen=True)
class InstanceCrash(FaultEvent):
    """One operator instance crashes (a TaskManager/worker loss).

    Recovery halts the whole job for an outage proportional to total
    state size (the runtime's savepoint model) and discards the
    in-flight instrumentation counters of the current window.
    """

    operator: str = ""
    index: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.operator:
            raise FaultInjectionError("InstanceCrash needs an operator")
        # NaN passes ``< 0``; a float or a bool names no instance.
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise FaultInjectionError(
                f"instance index must be an int, got {self.index!r}"
            )
        if self.index < 0:
            raise FaultInjectionError("instance index must be >= 0")


@dataclass(frozen=True)
class MetricDropout(_IntervalEvent):
    """A fraction of an operator's metric reporters stop reporting.

    The affected instances keep running (and keep counting locally, as
    a reporter stuck in a GC pause would); their counters are delivered
    in one catch-up report when the dropout ends. ``fraction`` resolves
    to whole instances: ``round(fraction * parallelism)`` reporters are
    silenced, lowest indices first.
    """

    operator: str = ""
    fraction: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.operator:
            raise FaultInjectionError("MetricDropout needs an operator")
        if not 0.0 < self.fraction <= 1.0:
            raise FaultInjectionError(
                f"fraction must be in (0, 1], got {self.fraction!r}"
            )


@dataclass(frozen=True)
class MetricLag(_IntervalEvent):
    """The metrics pipeline lags: collections re-deliver the last
    pre-lag window (stale timestamps and all) while fresh windows are
    buffered; when the lag ends the backlog arrives merged into one
    catch-up window."""


@dataclass(frozen=True)
class MetricCorruption(_IntervalEvent):
    """An operator's record counters are miscounted.

    Each reporting instance's pulled/pushed counts are scaled by an
    independent factor drawn uniformly from
    ``[1 - amplitude, 1 + amplitude]`` (deterministically from the
    schedule seed). Timing counters are untouched — a double-counting
    reporter corrupts throughput numbers, not clocks.
    """

    operator: str = ""
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.operator:
            raise FaultInjectionError("MetricCorruption needs an operator")
        if not 0.0 < self.amplitude < 1.0:
            raise FaultInjectionError(
                f"amplitude must be in (0, 1), got {self.amplitude!r}"
            )


@dataclass(frozen=True)
class HealthCorruption(_IntervalEvent):
    """An operator's coarse health signals are corrupted.

    While active, every collection scales the operator's queue fill and
    pending records by independent factors drawn uniformly from
    ``[1 - amplitude, 1 + amplitude]`` (deterministically from the
    schedule seed) and recomputes the backpressure flag against the
    runtime's high-water mark — so a healthy operator can show phantom
    backpressure and a saturated one can look fine. This is the channel
    that misleads the signal-driven baselines (Dhalion, queue-threshold
    policies) the way :class:`MetricCorruption` misleads rate-based
    ones; DS2 reads record counters, not health, and sails through.
    """

    operator: str = ""
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.operator:
            raise FaultInjectionError("HealthCorruption needs an operator")
        if not 0.0 < self.amplitude < 1.0:
            raise FaultInjectionError(
                f"amplitude must be in (0, 1), got {self.amplitude!r}"
            )


@dataclass(frozen=True)
class RescaleFailure(FaultEvent):
    """The next ``count`` reconfigurations after ``time`` fail.

    ``abort`` rejects the request up front (savepoint refused): no
    outage, the old configuration keeps running. ``timeout`` charges a
    full savepoint-and-restart outage and *then* fails, restoring the
    old configuration — the expensive way a real rescale fails.
    """

    mode: str = "abort"
    count: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("abort", "timeout"):
            raise FaultInjectionError(
                f"mode must be 'abort' or 'timeout', got {self.mode!r}"
            )
        if self.count < 1:
            raise FaultInjectionError("count must be >= 1")


__all__ = [
    "FaultEvent",
    "HealthCorruption",
    "InstanceCrash",
    "MetricCorruption",
    "MetricDropout",
    "MetricLag",
    "RescaleFailure",
]
