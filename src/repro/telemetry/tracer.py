"""Structured tracing: an in-memory flight recorder with JSONL export.

The tracer is the "why did that happen" layer of the reproduction: the
engine, the control loop, and the fault injector emit small structured
events (a tick sample, a rescale, a fired fault, a scaling decision)
into an in-memory list. Nothing is written anywhere until the caller
asks for the events — either as :class:`TraceEvent` objects or
serialized to JSON Lines, one event per line:

``{"data": {...}, "kind": "engine.rescale", "seq": 17, "t": 94.0}``

Design constraints, in order:

* **Zero cost when disabled.** The module-level :data:`NULL_TRACER`
  has ``enabled = False`` and a no-op :meth:`~Tracer.emit`;
  instrumented hot paths guard on ``tracer.enabled`` before building
  event payloads, so a run without tracing does no extra work beyond
  one attribute read per instrumentation point.
* **Determinism.** Events carry *virtual* time only; serialization
  sorts keys and uses ``repr``-exact floats, so a fixed seed produces
  a byte-identical trace. Wall-clock never enters the trace (it lives
  only in the span profiler's timings).
* **Complete history.** A tracer keeps every event it is given, so
  an export is gap-free from ``seq`` 0. A run is finite, and its
  events are small.

Instrumented components default to the *ambient* tracer (see
:func:`tracing` / :func:`active_tracer`) so the CLI can trace a whole
experiment — simulators, loops, injectors built many layers down —
without threading a tracer argument through every constructor.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Union

from repro.errors import TelemetryError


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        seq: Monotonically increasing sequence number, gap-free
            from 0 per tracer (a trace file whose first seq is
            nonzero visibly lost its head).
        time: Virtual time in seconds when the event was emitted.
        kind: Dotted event type, e.g. ``engine.tick``,
            ``controller.audit``, ``fault.InstanceCrash``.
        data: JSON-serializable payload.
    """

    seq: int
    time: float
    kind: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One deterministic JSON line (sorted keys, no whitespace)."""
        payload = {
            "seq": self.seq,
            "t": self.time,
            "kind": self.kind,
            "data": dict(self.data),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Tracer:
    """Flight recorder: an append-only list of trace events."""

    #: Hot paths guard payload construction on this flag.
    enabled: bool = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, time: float, **data: object) -> None:
        """Record one event at virtual ``time``."""
        if not kind:
            raise TelemetryError("trace event kind must be non-empty")
        self._events.append(
            TraceEvent(seq=self._seq, time=time, kind=kind, data=data)
        )
        self._seq += 1

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Recorded events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        """Drop all recorded events and restart ``seq`` at 0."""
        self._events.clear()
        self._seq = 0

    def to_jsonl(self) -> str:
        """The events serialized as JSON Lines (trailing newline)."""
        return "".join(
            event.to_json() + "\n" for event in self._events
        )

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write the events to ``path`` as JSONL; returns their count."""
        text = self.to_jsonl()
        Path(path).write_text(text, encoding="utf-8")
        return len(self._events)


class NullTracer(Tracer):
    """The disabled tracer: records nothing, costs nothing."""

    enabled = False

    def emit(self, kind: str, time: float, **data: object) -> None:
        return None


#: Shared disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()

# Ambient tracer stack. Instrumented components resolve their tracer at
# construction time via active_tracer() unless one is passed explicitly.
_ACTIVE: List[Tracer] = [NULL_TRACER]


def active_tracer() -> Tracer:
    """The innermost tracer activated via :func:`tracing` (the
    :data:`NULL_TRACER` when none is active)."""
    return _ACTIVE[-1]


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` ambient for the duration of the block.

    Components constructed inside the block (simulators, control
    loops, injectors) pick it up as their default tracer. Nests:
    the innermost activation wins.
    """
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()


__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "tracing",
]
