"""Deterministic fault schedules and the ``--faults`` spec grammar.

A :class:`FaultSchedule` is an ordered, seeded collection of
:class:`~repro.faults.events.FaultEvent` records. Determinism is the
point: two runs with the same schedule (same events, same seed) inject
byte-identical faults, so an experiment under failure is as replayable
as one without.

The compact text grammar (used by ``repro run --faults``):

    crash@T:op[#idx]          crash instance idx (default 0) of op at T
    dropout@T+D:op[*frac]     silence frac of op's reporters for D s
    lag@T+D                   metrics pipeline lags for D s
    corrupt@T+D:op[*amp]      miscount op's records (+-amp) for D s
    corrupt-health@T+D:op[*amp]  corrupt op's queue/backpressure signals
    rescale-fail@T[:mode][*n] next n rescales after T fail (abort|timeout)

Events are comma-separated: ``crash@600:flatmap,dropout@300+180:source*0.5``.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple, Type, TypeVar

from repro.errors import FaultInjectionError
from repro.faults.events import (
    FaultEvent,
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
    _IntervalEvent,
)

E = TypeVar("E", bound=FaultEvent)

#: One-shot event types (fire once, at ``time``).
ONE_SHOT_TYPES: Tuple[type, ...] = (InstanceCrash, RescaleFailure)


class FaultSchedule:
    """An immutable, seeded sequence of fault events.

    Events are kept sorted by ``(time, type name, repr)`` so iteration
    order — and therefore everything derived from the seed — is
    independent of construction order.
    """

    def __init__(
        self, events: Iterable[FaultEvent], seed: int = 1
    ) -> None:
        events = tuple(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultInjectionError(
                    f"not a fault event: {event!r}"
                )
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(
                events,
                key=lambda e: (e.time, type(e).__name__, repr(e)),
            )
        )
        self._seed = int(seed)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return self._events

    @property
    def seed(self) -> int:
        return self._seed

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return (
            self._events == other._events and self._seed == other._seed
        )

    def __repr__(self) -> str:
        return (
            f"FaultSchedule({list(self._events)!r}, seed={self._seed})"
        )

    def rng_for(self, event: FaultEvent, salt: float = 0.0) -> random.Random:
        """A PRNG derived from the schedule seed, the event's position,
        and an optional salt (e.g. a window start time) — the same
        inputs always yield the same stream, which is what makes
        injected noise replayable."""
        index = self._events.index(event)
        # Tuple-of-ints hashing is deterministic across processes (only
        # str hashing is randomized), so this replays exactly.
        return random.Random(
            hash((self._seed, index, round(salt * 1000)))
        )

    def active(
        self, now: float, kind: Optional[Type[E]] = None
    ) -> List[FaultEvent]:
        """Interval events active at ``now``, optionally filtered by
        event type."""
        result: List[FaultEvent] = []
        for event in self._events:
            if not isinstance(event, _IntervalEvent):
                continue
            if kind is not None and not isinstance(event, kind):
                continue
            if event.active_at(now):
                result.append(event)
        return result


def parse_faults(spec: str, seed: int = 1) -> FaultSchedule:
    """Parse the ``--faults`` grammar into a schedule.

    Raises :class:`FaultInjectionError` on any malformed token so the
    CLI can reject bad specs before starting a long run.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise FaultInjectionError(f"empty fault spec {spec!r}")
    return FaultSchedule(
        [_parse_event(token) for token in tokens], seed=seed
    )


def _parse_event(token: str) -> FaultEvent:
    kind, sep, rest = token.partition("@")
    if not sep or not rest:
        raise FaultInjectionError(
            f"malformed fault {token!r}: expected 'kind@time...'"
        )
    kind = kind.strip().lower()
    if kind == "crash":
        when, _, target = rest.partition(":")
        if not target:
            raise FaultInjectionError(
                f"malformed fault {token!r}: crash needs ':operator'"
            )
        operator, _, index = target.partition("#")
        return InstanceCrash(
            time=_number(token, when),
            operator=operator.strip(),
            index=_integer(token, index) if index else 0,
        )
    if kind == "dropout":
        span, _, target = rest.partition(":")
        time, duration = _span(token, span)
        if not target:
            raise FaultInjectionError(
                f"malformed fault {token!r}: dropout needs ':operator'"
            )
        operator, _, fraction = target.partition("*")
        return MetricDropout(
            time=time,
            duration=duration,
            operator=operator.strip(),
            fraction=_number(token, fraction) if fraction else 1.0,
        )
    if kind == "lag":
        time, duration = _span(token, rest)
        return MetricLag(time=time, duration=duration)
    if kind == "corrupt":
        span, _, target = rest.partition(":")
        time, duration = _span(token, span)
        if not target:
            raise FaultInjectionError(
                f"malformed fault {token!r}: corrupt needs ':operator'"
            )
        operator, _, amplitude = target.partition("*")
        return MetricCorruption(
            time=time,
            duration=duration,
            operator=operator.strip(),
            amplitude=_number(token, amplitude) if amplitude else 0.5,
        )
    if kind == "corrupt-health":
        span, _, target = rest.partition(":")
        time, duration = _span(token, span)
        if not target:
            raise FaultInjectionError(
                f"malformed fault {token!r}: corrupt-health needs "
                f"':operator'"
            )
        operator, _, amplitude = target.partition("*")
        return HealthCorruption(
            time=time,
            duration=duration,
            operator=operator.strip(),
            amplitude=_number(token, amplitude) if amplitude else 0.5,
        )
    if kind == "rescale-fail":
        head, _, count = rest.partition("*")
        when, _, mode = head.partition(":")
        return RescaleFailure(
            time=_number(token, when),
            mode=mode.strip() if mode else "abort",
            count=_integer(token, count) if count else 1,
        )
    raise FaultInjectionError(
        f"unknown fault kind {kind!r} in {token!r} (expected crash, "
        f"dropout, lag, corrupt, corrupt-health, or rescale-fail)"
    )


def _span(token: str, text: str) -> Tuple[float, float]:
    """Parse 'T+D' into (time, duration)."""
    when, sep, duration = text.partition("+")
    if not sep:
        raise FaultInjectionError(
            f"malformed fault {token!r}: expected 'time+duration'"
        )
    return _number(token, when), _number(token, duration)


def _number(token: str, text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise FaultInjectionError(
            f"malformed fault {token!r}: {text.strip()!r} is not a number"
        ) from None


def _integer(token: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise FaultInjectionError(
            f"malformed fault {token!r}: {text.strip()!r} is not an integer"
        ) from None


__all__ = ["FaultSchedule", "ONE_SHOT_TYPES", "parse_faults"]
