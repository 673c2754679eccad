"""Bounded and unbounded record queues.

Queues are *fluid*: they hold fractional record counts, because the
engine simulates flows rather than individual records. A bounded queue
refusing records is what creates backpressure in the Flink- and
Heron-style runtimes; the Timely-style runtime uses unbounded queues and
therefore never pushes back (section 5.5 of the paper: "Timely does not
have a backpressure mechanism ... queues grow when the system cannot
keep up").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import EngineError

_INF = math.inf


def _check_pushable(records: float) -> None:
    """Reject a push that is negative, NaN or infinite: an infinite
    push drains to a NaN length (``inf - inf``)."""
    if not 0.0 <= records < math.inf:
        raise EngineError(
            f"cannot push {records!r} records: the count must be "
            "finite and >= 0"
        )


class Queue:
    """A fluid FIFO queue with optional capacity.

    Tracks cumulative pushed/popped totals so that conservation
    invariants can be checked: ``pushed - popped == length`` at all
    times.
    """

    __slots__ = ("_capacity", "_length", "_pushed", "_popped")

    def __init__(self, capacity: Optional[float] = None) -> None:
        if capacity is not None and not capacity > 0:
            raise EngineError("queue capacity must be > 0 when bounded")
        self._capacity = capacity
        self._length = 0.0
        self._pushed = 0.0
        self._popped = 0.0

    @property
    def capacity(self) -> Optional[float]:
        """Maximum records held, or None when unbounded."""
        return self._capacity

    @property
    def bounded(self) -> bool:
        return self._capacity is not None

    @property
    def length(self) -> float:
        """Records currently queued."""
        return self._length

    @property
    def total_pushed(self) -> float:
        """Cumulative records ever pushed."""
        return self._pushed

    @property
    def total_popped(self) -> float:
        """Cumulative records ever popped."""
        return self._popped

    @property
    def free_space(self) -> float:
        """Records that can still be pushed (inf when unbounded)."""
        if self._capacity is None:
            return math.inf
        return max(0.0, self._capacity - self._length)

    @property
    def fill_fraction(self) -> float:
        """Occupancy in [0, 1]; always 0 for unbounded queues."""
        if self._capacity is None:
            return 0.0
        return min(1.0, self._length / self._capacity)

    def push(self, records: float, count: int = 1) -> float:
        """Push ``records`` ``count`` times in a row (the pushes of an
        engine lane's ``count`` instances); returns the smallest amount
        one push accepted (less than ``records`` only for bounded
        queues).

        Bit for bit ``count`` single pushes: every push clips to
        ``max(0.0, capacity - length)`` and adds what it accepted, in
        order, with the running totals held in locals. When the first
        and the last push fit whole, every push did (the free space only
        shrinks as pushes land), so the pushes are plain adds.
        """
        if not 0.0 <= records < _INF:
            _check_pushable(records)
        if count < 1:
            raise EngineError(f"push count must be >= 1, got {count!r}")
        length = self._length
        pushed = self._pushed
        capacity = self._capacity
        if capacity is None:
            for _ in range(count):
                length += records
                pushed += records
            smallest = records
        else:
            if count > 1 and records <= capacity - length:
                # The first push fits whole: add them all, and keep the
                # result if the last one fit whole too.
                fit_length = length
                fit_pushed = pushed
                for _ in range(count - 1):
                    fit_length += records
                    fit_pushed += records
                if records <= capacity - fit_length:
                    self._length = fit_length + records
                    self._pushed = fit_pushed + records
                    return records
            smallest = records
            for _ in range(count):
                # max(0.0, free) and min(records, free), ties included.
                free = capacity - length
                if not free > 0.0:
                    free = 0.0
                accepted = free if free < records else records
                length += accepted
                pushed += accepted
                if accepted < smallest:
                    smallest = accepted
        self._length = length
        self._pushed = pushed
        return smallest

    def force_push(self, records: float) -> None:
        """Push ignoring capacity (used when redistributing queue
        contents during a redeploy — state is never dropped)."""
        _check_pushable(records)
        self._length += records
        self._pushed += records

    def pop(self, records: float) -> float:
        """Pop up to ``records``; returns the amount actually removed."""
        if not records >= 0:
            raise EngineError("cannot pop a negative record count")
        length = self._length
        # min(records, length), ties included.
        removed = length if length < records else records
        length -= removed
        self._popped += removed
        # Guard against floating-point drift below zero.
        if length < 0:
            if length < -1e-6:
                self._length = length
                raise EngineError(f"queue length went negative: {length}")
            length = 0.0
        self._length = length
        return removed

    def drain(self) -> float:
        """Remove and return everything queued."""
        return self.pop(self._length)

    def check_conservation(self, tolerance: float = 1e-6) -> None:
        """Raise :class:`EngineError` if pushed - popped != length."""
        drift = abs((self._pushed - self._popped) - self._length)
        scale = max(1.0, self._pushed)
        # Written so that a NaN drift (a NaN length or total) fails.
        if not drift <= tolerance * scale:
            raise EngineError(
                f"queue conservation violated: pushed={self._pushed} "
                f"popped={self._popped} length={self._length}"
            )

    def __repr__(self) -> str:
        cap = "inf" if self._capacity is None else f"{self._capacity:g}"
        return f"Queue(length={self._length:g}, capacity={cap})"


__all__ = ["Queue"]
