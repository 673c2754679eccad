"""Reading, validating, and summarizing JSONL traces.

The exported trace format is one JSON object per line with exactly the
keys ``seq`` (gap-free non-negative int, strictly increasing), ``t``
(virtual seconds, non-decreasing), ``kind`` (non-empty dotted string),
and ``data`` (object). A record of kind ``engine.start`` marks a new
simulator coming up and is the one place ``t`` may jump backwards: an
experiment that runs several simulators back to back (e.g. the faults
experiment's three controllers) records several virtual-clock epochs
in one file. :func:`read_trace` parses and validates;
:func:`summarize_trace` folds a trace into the per-kind counts and
headline numbers that ``repro trace summarize`` prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import TelemetryError

_REQUIRED_KEYS = ("data", "kind", "seq", "t")

#: The one record kind allowed to move ``t`` backwards: a new
#: simulator (and therefore a fresh virtual clock) coming up.
EPOCH_KIND = "engine.start"


def validate_trace_record(
    record: object,
    lineno: int,
    previous_seq: Optional[int] = None,
    previous_time: Optional[float] = None,
) -> Dict[str, object]:
    """Check one parsed trace line against the schema.

    Returns the record as a dict; raises :class:`TelemetryError`
    naming the line and the violated constraint otherwise.
    """

    def fail(message: str) -> "TelemetryError":
        return TelemetryError(f"trace line {lineno}: {message}")

    if not isinstance(record, dict):
        raise fail("not a JSON object")
    if sorted(record) != sorted(_REQUIRED_KEYS):
        raise fail(
            f"keys {sorted(record)} != expected "
            f"{sorted(_REQUIRED_KEYS)}"
        )
    seq = record["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise fail(f"seq must be a non-negative integer, got {seq!r}")
    if previous_seq is not None and seq != previous_seq + 1:
        raise fail(
            f"seq {seq} does not follow {previous_seq} "
            "(traces are gap-free)"
        )
    kind = record["kind"]
    if not isinstance(kind, str) or not kind:
        raise fail(f"kind must be a non-empty string, got {kind!r}")
    time = record["t"]
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise fail(f"t must be a number, got {time!r}")
    if (
        previous_time is not None
        and float(time) < previous_time - 1e-9
        and kind != EPOCH_KIND
    ):
        raise fail(
            f"t {time} precedes previous event time {previous_time} "
            f"(only {EPOCH_KIND} may reset the virtual clock)"
        )
    if not isinstance(record["data"], dict):
        raise fail("data must be a JSON object")
    return record


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse and validate a JSONL trace file.

    Raises :class:`TelemetryError` (with the offending line number)
    for unreadable files, malformed JSON, schema violations, seq gaps,
    or time going backwards.
    """
    trace_path = Path(path)
    try:
        text = trace_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TelemetryError(
            f"cannot read trace {trace_path}: {exc}"
        ) from exc
    records: List[Dict[str, object]] = []
    previous_seq: Optional[int] = None
    previous_time: Optional[float] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(
                f"trace line {lineno}: invalid JSON ({exc.msg})"
            ) from exc
        record = validate_trace_record(
            parsed, lineno, previous_seq, previous_time
        )
        seq = record["seq"]
        assert isinstance(seq, int)
        previous_seq = seq
        time = record["t"]
        assert isinstance(time, (int, float))
        previous_time = float(time)
        records.append(record)
    return records


@dataclass(frozen=True)
class TraceSummary:
    """Headline numbers of one trace."""

    events: int
    start: float
    end: float
    kinds: Tuple[Tuple[str, int], ...]
    faults: int
    rescales: int
    decisions: int
    first_seq: int = 0

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def dropped(self) -> int:
        """Events missing from the trace's head. ``seq`` is gap-free
        from 0, so a trace starting at seq N lacks exactly the N
        earlier events: it was cut, or written by an older build whose
        tracer was a bounded ring buffer."""
        return self.first_seq


def summarize_trace(
    records: List[Mapping[str, object]],
) -> TraceSummary:
    """Fold validated trace records into a :class:`TraceSummary`."""
    if not records:
        return TraceSummary(
            events=0,
            start=0.0,
            end=0.0,
            kinds=(),
            faults=0,
            rescales=0,
            decisions=0,
        )
    counts: Dict[str, int] = {}
    faults = 0
    rescales = 0
    decisions = 0
    for record in records:
        kind = record["kind"]
        assert isinstance(kind, str)
        counts[kind] = counts.get(kind, 0) + 1
        if kind.startswith("fault."):
            faults += 1
        elif kind == "engine.rescale":
            rescales += 1
        elif kind == "controller.invoke":
            decisions += 1
    first_time = records[0]["t"]
    last_time = records[-1]["t"]
    first_seq = records[0]["seq"]
    assert isinstance(first_time, (int, float))
    assert isinstance(last_time, (int, float))
    assert isinstance(first_seq, int)
    return TraceSummary(
        events=len(records),
        start=float(first_time),
        end=float(last_time),
        kinds=tuple(sorted(counts.items())),
        faults=faults,
        rescales=rescales,
        decisions=decisions,
        first_seq=first_seq,
    )


def render_trace_summary(summary: TraceSummary) -> str:
    """Text rendering used by ``repro trace summarize``."""
    lines = [
        f"{summary.events} events over "
        f"[{summary.start:.1f}, {summary.end:.1f}]s "
        f"({summary.span:.1f}s of virtual time)",
    ]
    if summary.dropped > 0:
        lines.append(
            f"warning: truncated trace — the first {summary.dropped} "
            f"event(s) are missing (trace starts at seq "
            f"{summary.first_seq}); it was cut, or recorded by an "
            "older build's bounded tracer — record it again with "
            "`repro run --trace` for full coverage"
        )
    lines.append(
        f"decisions: {summary.decisions}  "
        f"rescales: {summary.rescales}  faults: {summary.faults}"
    )
    if summary.kinds:
        lines.append("")
        width = max(len(kind) for kind, _ in summary.kinds)
        for kind, count in summary.kinds:
            lines.append(f"  {kind.ljust(width)}  {count}")
    return "\n".join(lines) + "\n"


__all__ = [
    "EPOCH_KIND",
    "TraceSummary",
    "read_trace",
    "render_trace_summary",
    "summarize_trace",
    "validate_trace_record",
]
