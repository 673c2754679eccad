"""Live campaign progress: heartbeats, renderers, stall detection.

Chaos campaigns run for minutes and, with a process pool, in silence.
This module gives the campaign executor a narrow seam to report liveness
without touching any golden output:

* :class:`CellEvent` — one heartbeat: a cell started, finished, was
  restored from the checkpoint journal on resume, or was quarantined.
  Events flow through the executor's existing result channel (worker
  pid and wall duration ride on the per-cell result objects), so there
  is no side channel to keep deterministic.
* :class:`ProgressListener` — the sink protocol. The shared
  :data:`NULL_PROGRESS` instance is inert (``enabled`` is ``False``),
  so un-instrumented runs pay one attribute read per cell.
* :class:`TTYProgressRenderer` / :class:`PlainProgressRenderer` — a
  ``\\r``-refreshed status line (cells done/total, ETA, in-flight
  cells, per-worker last activity, stall warnings when no heartbeat
  arrives for ``stall_after`` seconds) and a line-per-event
  fallback for non-TTY streams. Both write to *stderr-like* streams
  only; stdout stays byte-identical with or without ``--progress``.

Heartbeats are additionally journaled by the campaign executor (see
:mod:`repro.faults.executor`) so a resumed run can report what the
dead run was doing when it was killed; the journal reads each one back
as a :class:`CellEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.telemetry.spans import wall_clock

# A stalled worker is reported when no heartbeat has arrived for this
# long, unless the renderer is given its own ``stall_after``.
STALL_DEFAULT_SECONDS = 60.0

CellKey = Tuple[int, int, str]


@dataclass(frozen=True)
class CellEvent:
    """One heartbeat from a campaign executor.

    ``kind`` is one of ``start`` (cell submitted/being executed),
    ``done`` (scorecard produced), ``resume`` (restored from the
    checkpoint journal), ``retry`` (failed attempt, will re-run) or
    ``quarantine`` (gave up on the cell). ``completed``/``total``
    count scored cells, resumed ones included.
    """

    kind: str
    index: int
    key: CellKey
    completed: int
    total: int
    worker: Optional[int] = None
    duration: Optional[float] = None

    @property
    def label(self) -> str:
        seed, campaign, controller = self.key
        return f"seed={seed} {campaign}/{controller}"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form (the journal heartbeat record body)."""
        payload: Dict[str, Any] = {
            "event": self.kind,
            "index": self.index,
            "key": list(self.key),
            "completed": self.completed,
            "total": self.total,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.duration is not None:
            payload["duration"] = round(self.duration, 6)
        return payload


class ProgressListener:
    """Sink for :class:`CellEvent` heartbeats."""

    enabled = True

    def on_event(self, event: CellEvent) -> None:
        raise NotImplementedError

    def tick(self) -> None:
        """Periodic poke from the executor's wait loop (renderers use
        it to refresh ETAs and detect stalls); optional."""

    def close(self) -> None:
        """Flush any terminal state; optional."""


class NullProgressListener(ProgressListener):
    """Inert sink used when progress reporting is off."""

    enabled = False

    def on_event(self, event: CellEvent) -> None:
        pass


NULL_PROGRESS = NullProgressListener()


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class _ProgressState:
    """Shared bookkeeping for both renderers."""

    def __init__(
        self,
        stall_after: Optional[float],
        clock: Callable[[], float],
    ) -> None:
        self.clock = clock
        self.completed = 0
        self.total = 0
        self.durations: List[float] = []
        # index -> (label, started-at wall time)
        self.in_flight: Dict[int, Tuple[str, float]] = {}
        # worker pid -> last completed label + duration
        self.workers: Dict[int, str] = {}
        self.last_heartbeat = clock()
        self.stall_after = (
            STALL_DEFAULT_SECONDS if stall_after is None else stall_after
        )

    def absorb(self, event: CellEvent) -> None:
        self.completed = event.completed
        self.total = event.total
        self.last_heartbeat = self.clock()
        if event.kind == "start":
            self.in_flight[event.index] = (event.label, self.clock())
        else:
            self.in_flight.pop(event.index, None)
        if event.kind == "done" and event.duration is not None:
            self.durations.append(event.duration)
        if event.worker is not None and event.kind != "start":
            note = f"{event.kind} {event.label}"
            if event.duration is not None:
                note += f" ({event.duration:.1f}s)"
            self.workers[event.worker] = note

    def quiet_for(self) -> float:
        return self.clock() - self.last_heartbeat

    def stalled(self) -> bool:
        return bool(self.in_flight) and self.quiet_for() > self.stall_after

    def eta_seconds(self) -> Optional[float]:
        if not self.durations or self.total <= self.completed:
            return None
        mean = sum(self.durations) / len(self.durations)
        lanes = max(1, len(self.workers) or len(self.in_flight) or 1)
        return mean * (self.total - self.completed) / lanes

    def status_line(self) -> str:
        parts = [f"cells {self.completed}/{self.total}"]
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {_format_eta(eta)}")
        if self.in_flight:
            labels = [
                label
                for _, (label, _started) in sorted(
                    self.in_flight.items()
                )
            ]
            shown = ", ".join(labels[:2])
            if len(labels) > 2:
                shown += f", +{len(labels) - 2} more"
            parts.append(f"running: {shown}")
        if self.stalled():
            parts.append(
                f"STALL? quiet {self.quiet_for():.0f}s "
                f"(> {self.stall_after:.0f}s)"
            )
        return " | ".join(parts)


class TTYProgressRenderer(ProgressListener):
    """Single ``\\r``-refreshed status line for interactive terminals."""

    def __init__(
        self,
        stream: IO[str],
        stall_after: Optional[float] = None,
        clock: Callable[[], float] = wall_clock,
        width: int = 79,
    ) -> None:
        self._stream = stream
        self._state = _ProgressState(stall_after, clock)
        self._width = width
        self._stall_reported = False
        self._dirty = False

    def on_event(self, event: CellEvent) -> None:
        self._state.absorb(event)
        self._stall_reported = False
        self._render()

    def tick(self) -> None:
        if self._state.stalled() and not self._stall_reported:
            # Promote the stall to its own durable line so it is not
            # overwritten by the next refresh.
            self._stream.write(
                "\r"
                + " " * self._width
                + "\rwarning: no heartbeat for "
                f"{self._state.quiet_for():.0f}s "
                f"(threshold {self._state.stall_after:.0f}s); "
                "still waiting on: "
                + ", ".join(
                    label
                    for _, (label, _s) in sorted(
                        self._state.in_flight.items()
                    )
                )
                + "\n"
            )
            self._stall_reported = True
        self._render()

    def _render(self) -> None:
        line = self._state.status_line()[: self._width]
        self._stream.write("\r" + line.ljust(self._width))
        self._stream.flush()
        self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False


class PlainProgressRenderer(ProgressListener):
    """Line-per-event renderer for logs and non-TTY streams."""

    def __init__(
        self,
        stream: IO[str],
        stall_after: Optional[float] = None,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self._stream = stream
        self._state = _ProgressState(stall_after, clock)
        self._stall_reported = False

    def on_event(self, event: CellEvent) -> None:
        self._state.absorb(event)
        self._stall_reported = False
        note = (
            f"[{event.completed}/{event.total}] "
            f"{event.kind} {event.label}"
        )
        if event.duration is not None:
            note += f" ({event.duration:.1f}s)"
        if event.worker is not None:
            note += f" [worker {event.worker}]"
        eta = self._state.eta_seconds()
        if eta is not None and event.kind == "done":
            note += f" eta {_format_eta(eta)}"
        self._stream.write(note + "\n")
        self._stream.flush()

    def tick(self) -> None:
        if self._state.stalled() and not self._stall_reported:
            self._stream.write(
                "warning: no heartbeat for "
                f"{self._state.quiet_for():.0f}s "
                f"(threshold {self._state.stall_after:.0f}s)\n"
            )
            self._stream.flush()
            self._stall_reported = True

    def close(self) -> None:
        self._stream.flush()


def interrupted_cells(heartbeats: Sequence[CellEvent]) -> List[str]:
    """Labels of the cells an interrupted run was executing when it
    died: every journaled ``start`` heartbeat without a later
    ``done``/``retry``/``resume``/``quarantine`` for the same cell."""
    in_flight: Dict[int, str] = {}
    for event in heartbeats:
        if event.kind == "start":
            in_flight[event.index] = event.label
        else:
            in_flight.pop(event.index, None)
    return [in_flight[index] for index in sorted(in_flight)]


def make_progress_renderer(
    stream: IO[str],
    stall_after: Optional[float] = None,
) -> ProgressListener:
    """Pick the renderer for ``stream``: the refreshing TTY renderer
    for interactive terminals, the line-per-event one otherwise."""
    isatty = getattr(stream, "isatty", None)
    if callable(isatty) and isatty():
        return TTYProgressRenderer(stream, stall_after)
    return PlainProgressRenderer(stream, stall_after)


__all__ = [
    "CellEvent",
    "NULL_PROGRESS",
    "NullProgressListener",
    "PlainProgressRenderer",
    "ProgressListener",
    "STALL_DEFAULT_SECONDS",
    "TTYProgressRenderer",
    "interrupted_cells",
    "make_progress_renderer",
]
