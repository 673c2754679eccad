"""Crash-safe robustness batches: the durable cell journal.

A chaos campaign is hours of seeded simulation reduced to one result
per cell. :class:`CheckpointJournal` keeps the finished ones across a
SIGKILL, a worker OOM, or a poison cell: a durable, append-only JSONL
journal with one fsynced record per completed cell (canonical cell
key, the encoded result, and a content hash of the cell's
configuration). Recovery tolerates a torn final record — the classic
crash-mid-append artifact — by dropping it with a warning and
truncating the file back to its valid prefix; anything else (mid-file
corruption, a schema-version mismatch, a header or cell-hash mismatch)
is rejected hard with :class:`~repro.errors.CheckpointError`, because
silently resuming the wrong campaign is worse than not resuming at all.

The journal knows a cell only through its spec's cell contract (see
:class:`~repro.faults.executor.CellSpec`): ``key``, ``fingerprint()``,
and a result codec (``result_field``, ``encode_result``,
``decode_result``). A cell record stores the encoded result under its
kind's ``result_field`` — ``"scorecard"`` for campaign cells,
``"outages"`` for the chaos experiment's crash-recovery replay — so
several kinds of batch can share one journal, and :meth:`match` pairs
each batch with its own kind's records only. Scorecard records are
also decoded on load, so a corrupt one is reported with its line
number.

The journal is handed to :class:`~repro.faults.executor.CampaignExecutor`,
which records cells as they finish, skips the ones already recorded,
and adds retry, quarantine and graceful interrupts.

Determinism contract: a run that is hard-killed and resumed from its
journal produces scorecards and traces byte-identical to an
uninterrupted run — cells are keyed canonically, journal payloads
round-trip losslessly through JSON, and results are reassembled in
canonical cell order regardless of which cells were resumed and which
ran live.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.errors import CheckpointError
from repro.faults.campaigns import (
    CampaignCellSpec,
    CellKey,
    SasoScorecard,
    _cell_label,
)
from repro.faults.executor import CellSpec
from repro.telemetry.audit import AuditSummary
from repro.telemetry.spans import active_profiler

# perfbench/layers.py wraps SupervisedExecutor.execute by this name.
from repro.faults.executor import (  # noqa: F401
    CampaignExecutor as SupervisedExecutor,
)

#: Journal schema version; resume rejects journals written by a
#: different version. Bump it only when an existing record's layout
#: changes: a new cell kind, with its own result field, is not one.
CHECKPOINT_VERSION = 1

# ----------------------------------------------------------------------
# Scorecard (de)serialization — lossless JSON round-trip
# ----------------------------------------------------------------------

def scorecard_to_payload(card: SasoScorecard) -> Dict[str, object]:
    """A :class:`SasoScorecard` as a JSON-ready dict.

    Floats survive a JSON round-trip exactly (shortest-repr encoding),
    so ``scorecard_from_payload(scorecard_to_payload(c)) == c`` holds
    byte for byte — the property the resume-equivalence gate rests on.
    """
    audit: Optional[Dict[str, object]] = None
    if card.audit is not None:
        audit = {
            "invocations": card.audit.invocations,
            "proposals": card.audit.proposals,
            "rescales": card.audit.rescales,
            "failed_rescales": card.audit.failed_rescales,
            "holds": card.audit.holds,
            "skips": [list(pair) for pair in card.audit.skips],
            "degraded_intervals": card.audit.degraded_intervals,
            "max_rate_compensation": card.audit.max_rate_compensation,
        }
    return {
        "controller": card.controller,
        "campaign": card.campaign,
        "schedule_seed": card.schedule_seed,
        "oscillations": card.oscillations,
        "steady_state_error": card.steady_state_error,
        "settling_epochs": card.settling_epochs,
        "overshoot_ratio": card.overshoot_ratio,
        "downtime_fraction": card.downtime_fraction,
        "recovery_seconds": card.recovery_seconds,
        "scaling_actions": card.scaling_actions,
        "failed_rescales": card.failed_rescales,
        "audit": audit,
    }


def scorecard_from_payload(payload: object) -> SasoScorecard:
    """Rebuild a :class:`SasoScorecard` from its journal payload."""
    if not isinstance(payload, Mapping):
        raise CheckpointError(
            "malformed scorecard payload: not an object"
        )
    try:
        raw_audit = payload.get("audit")
        audit: Optional[AuditSummary] = None
        if raw_audit is not None:
            if not isinstance(raw_audit, Mapping):
                raise TypeError("audit is not a mapping")
            audit = AuditSummary(
                invocations=int(raw_audit["invocations"]),  # type: ignore[call-overload]
                proposals=int(raw_audit["proposals"]),  # type: ignore[call-overload]
                rescales=int(raw_audit["rescales"]),  # type: ignore[call-overload]
                failed_rescales=int(raw_audit["failed_rescales"]),  # type: ignore[call-overload]
                holds=int(raw_audit["holds"]),  # type: ignore[call-overload]
                skips=tuple(
                    (str(reason), int(count))
                    for reason, count in raw_audit["skips"]  # type: ignore[union-attr]
                ),
                degraded_intervals=int(raw_audit["degraded_intervals"]),  # type: ignore[call-overload]
                max_rate_compensation=float(
                    raw_audit["max_rate_compensation"]  # type: ignore[arg-type]
                ),
            )
        return SasoScorecard(
            controller=str(payload["controller"]),
            campaign=int(payload["campaign"]),  # type: ignore[call-overload]
            schedule_seed=int(payload["schedule_seed"]),  # type: ignore[call-overload]
            oscillations=int(payload["oscillations"]),  # type: ignore[call-overload]
            steady_state_error=float(payload["steady_state_error"]),  # type: ignore[arg-type]
            settling_epochs=int(payload["settling_epochs"]),  # type: ignore[call-overload]
            overshoot_ratio=float(payload["overshoot_ratio"]),  # type: ignore[arg-type]
            downtime_fraction=float(payload["downtime_fraction"]),  # type: ignore[arg-type]
            recovery_seconds=float(payload["recovery_seconds"]),  # type: ignore[arg-type]
            scaling_actions=int(payload["scaling_actions"]),  # type: ignore[call-overload]
            failed_rescales=int(payload["failed_rescales"]),  # type: ignore[call-overload]
            audit=audit,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"malformed scorecard payload: {error}"
        ) from None


# ----------------------------------------------------------------------
# Fingerprints — what makes a journal record trustworthy
# ----------------------------------------------------------------------

def content_hash(doc: Mapping[str, object]) -> str:
    """A cell fingerprint: the first 16 hex digits of the SHA-256 of
    ``doc`` as key-sorted JSON. ``doc`` names everything that
    determines the cell's result, floats as ``repr`` strings."""
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def cell_fingerprint(spec: CampaignCellSpec) -> str:
    """Content hash of everything that determines a cell's scorecard.

    Two specs with the same fingerprint run the same simulation: same
    fault schedule (event for event), graph shape, runtime, starting
    configuration, policy cadence, and engine config. Resume compares
    the journal's recorded hash against the regenerated spec's, so a
    checkpoint can never silently graft results from a different
    campaign configuration (e.g. a different ``--scale`` tick) onto
    this run.
    """
    graph = spec.graph
    doc: Dict[str, object] = {
        "seed": spec.seed,
        "campaign": spec.campaign,
        "controller": spec.controller,
        "profile": spec.profile,
        "policy_interval": repr(spec.policy_interval),
        "duration": repr(spec.duration),
        "tail_seconds": repr(spec.tail_seconds),
        "initial_parallelism": sorted(
            spec.initial_parallelism.items()
        ),
        "scored_parallelism": sorted(spec.scored_parallelism.items()),
        "target_rates": sorted(
            (name, repr(rate))
            for name, rate in spec.target_rates.items()
        ),
        "schedule_seed": spec.schedule.seed,
        "events": [repr(event) for event in spec.schedule.events],
        "graph_names": list(graph.names),
        "graph_edges": [repr(edge) for edge in graph.edges],
        "runtime": type(spec.runtime).__name__,
        "engine_config": repr(spec.engine_config),
        "scalable_operators": (
            list(spec.scalable_operators)
            if spec.scalable_operators is not None
            else None
        ),
    }
    return content_hash(doc)


def _is_int(value: object) -> bool:
    """Whether ``value`` is a JSON integer. ``int()`` would also take a
    float, a bool or a numeric string and silently coerce it."""
    return isinstance(value, int) and not isinstance(value, bool)


def _header_int(payload: Mapping[str, object], name: str) -> int:
    value = payload[name]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{name} is not an integer: {value!r}")


@dataclass(frozen=True)
class JournalHeader:
    """First record of a journal: which run this checkpoint belongs to.

    Resume requires an exact match on every field — a checkpoint from
    a different profile, workload, master seed, campaign count, or
    controller roster cannot complete this run.

    ``sweep`` and ``cells`` are set for parameter-sweep runs (see
    :mod:`repro.sweeps`): ``sweep`` names the grid spec
    (``name@fingerprint``) and ``cells`` is the grid's total executor
    cell count (a sweep's cells don't factor as ``campaigns ×
    controllers``). Both are emitted only when set, so journals written
    for plain chaos runs — including every pre-sweep journal — keep
    their exact bytes, and old journals (without the keys) still parse.
    """

    profile: str
    workload: str
    seed: int
    campaigns: int
    controllers: Tuple[str, ...]
    version: int = CHECKPOINT_VERSION
    sweep: Optional[str] = None
    cells: Optional[int] = None

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "record": "header",
            "version": self.version,
            "profile": self.profile,
            "workload": self.workload,
            "seed": self.seed,
            "campaigns": self.campaigns,
            "controllers": list(self.controllers),
        }
        if self.sweep is not None:
            payload["sweep"] = self.sweep
        if self.cells is not None:
            payload["cells"] = self.cells
        return payload

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, object]
    ) -> "JournalHeader":
        try:
            controllers = payload["controllers"]
            if not isinstance(controllers, list):
                raise TypeError("controllers is not a list")
            sweep = payload.get("sweep")
            if sweep is not None and not isinstance(sweep, str):
                raise TypeError("sweep is not a string")
            return cls(
                profile=str(payload["profile"]),
                workload=str(payload["workload"]),
                seed=_header_int(payload, "seed"),
                campaigns=_header_int(payload, "campaigns"),
                controllers=tuple(str(c) for c in controllers),
                version=_header_int(payload, "version"),
                sweep=sweep,
                cells=(
                    None
                    if payload.get("cells") is None
                    else _header_int(payload, "cells")
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"malformed checkpoint header: {error}"
            ) from None


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

#: Keys of a cell record that are not its result: the record kind,
#: the cell key and fingerprint, the observability extras, and the
#: metrics snapshot journals from older builds carry.
_CELL_RECORD_KEYS = frozenset((
    "record", "key", "spec_hash", "duration", "worker", "spans",
    "telemetry",
))


@dataclass(frozen=True)
class JournalCell:
    """One completed cell as recovered from a journal.

    ``field`` is the cell kind's ``result_field`` and ``payload`` the
    result as journaled under it (plain JSON); the kind's
    ``decode_result`` rebuilds the result.
    """

    key: CellKey
    spec_hash: str
    field: str
    payload: object
    #: Optional observability extras (absent in journals written by
    #: older builds): the cell's span-tree payload, wall-clock
    #: duration, and executing worker pid. None of them participate
    #: in the fingerprint or in resume matching.
    spans: Optional[Dict[str, object]] = None
    duration: Optional[float] = None
    worker: Optional[int] = None

    @property
    def scorecard(self) -> SasoScorecard:
        """The decoded result of a campaign-cell (``"scorecard"``)
        record."""
        return CampaignCellSpec.decode_result(self.payload)


def _parse_cell_key(raw: object) -> CellKey:
    if isinstance(raw, list) and len(raw) == 3:
        seed, campaign, name = raw
        if _is_int(seed) and _is_int(campaign) and isinstance(name, str):
            return (seed, campaign, name)
    raise CheckpointError(f"malformed cell key {raw!r}")


def _parse_cell_record(payload: Mapping[str, object]) -> JournalCell:
    key = _parse_cell_key(payload.get("key"))
    spec_hash = payload.get("spec_hash")
    if not isinstance(spec_hash, str) or not spec_hash:
        raise CheckpointError(
            f"cell {_cell_label(key)} has no spec hash"
        )
    fields = [name for name in payload if name not in _CELL_RECORD_KEYS]
    if len(fields) != 1:
        raise CheckpointError(
            f"cell {_cell_label(key)} has "
            + (
                f"{len(fields)} result payloads {fields}"
                if fields
                else "no result payload"
            )
        )
    (field,) = fields
    if field == CampaignCellSpec.result_field:
        # Decoded here only to validate: corruption is then reported
        # with its line number, not at resume.
        CampaignCellSpec.decode_result(payload[field])
    spans = payload.get("spans")
    if not isinstance(spans, dict):
        spans = None
    # A NaN or infinite duration (Python's json reads both) counts as
    # absent: it would make the JSON run report invalid.
    duration = payload.get("duration")
    if (
        not isinstance(duration, (int, float))
        or isinstance(duration, bool)
        or not math.isfinite(duration)
    ):
        duration = None
    worker = payload.get("worker")
    if not _is_int(worker):
        worker = None
    return JournalCell(
        key=key,
        spec_hash=spec_hash,
        field=field,
        payload=payload[field],
        spans=spans,
        duration=None if duration is None else float(duration),
        worker=worker,
    )


@dataclass(frozen=True)
class LoadedJournal:
    """A parsed journal file: everything ``repro report`` and resume
    need, read-only."""

    header: JournalHeader
    cells: Dict[CellKey, JournalCell]
    heartbeats: List[Dict[str, object]]
    quarantines: List[Dict[str, object]]
    valid_lines: List[str]
    warnings: List[str]


def load_journal(path: str) -> LoadedJournal:
    """Read a checkpoint journal without opening it for appends —
    the read-only entry point the run-report builder uses. Applies
    the same validation as resume (torn tails tolerated with a
    warning, everything else rejected hard)."""
    return CheckpointJournal._load(path)


class CheckpointJournal:
    """Durable append-only JSONL journal of completed campaign cells.

    Line 1 is the header record; every further line is one completed
    (``record: cell``) or quarantined (``record: quarantine``) cell.
    Each append is flushed and fsynced before :meth:`record_cell`
    returns, so a record is either durably on disk or (torn by a
    crash mid-write) recoverably absent — never half-trusted.

    Use :meth:`open` — it routes between *fresh* (path must not hold an
    existing journal) and *resume* (path must; header must match).
    """

    def __init__(
        self,
        path: str,
        header: JournalHeader,
        *,
        cells: Optional[Dict[CellKey, JournalCell]] = None,
        heartbeats: Optional[List[Dict[str, object]]] = None,
        warnings: Optional[List[str]] = None,
        _header_on_disk: bool = False,
    ) -> None:
        self._path = path
        self._header = header
        self._cells: Dict[CellKey, JournalCell] = dict(cells or {})
        self._heartbeats: List[Dict[str, object]] = list(
            heartbeats or []
        )
        self._warnings: List[str] = list(warnings or [])
        self._header_on_disk = _header_on_disk
        self._file: Optional[TextIO] = None
        self._profiler = active_profiler()

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls, path: str, header: JournalHeader, *, resume: bool = False
    ) -> "CheckpointJournal":
        """Open a journal for this run.

        Fresh (``resume=False``): ``path`` must not already hold a
        journal (an existing non-empty file is refused — delete it or
        pass ``resume``). Resume (``resume=True``): ``path`` must hold
        a journal whose header matches ``header`` exactly; completed
        cells are recovered into :attr:`completed`. A torn final
        record is dropped with a warning and the file truncated back
        to its valid prefix.
        """
        exists = os.path.exists(path)
        non_empty = exists and os.path.getsize(path) > 0
        if not resume:
            if non_empty:
                raise CheckpointError(
                    f"checkpoint {path!r} already exists; resume it "
                    f"with --resume or delete it to start fresh"
                )
            journal = cls(path, header)
            # Write the header eagerly: a run killed before its first
            # cell completes still leaves a resumable journal.
            journal._ensure_open()
            return journal
        if not exists:
            raise CheckpointError(
                f"cannot resume: no checkpoint at {path!r}"
            )
        if not non_empty:
            # A fresh open writes the header at once, so only a run
            # killed mid-way through that first write (or a file
            # created by hand) is empty: nothing to recover, but
            # resume should succeed.
            return cls(
                path,
                header,
                warnings=[
                    f"checkpoint {path!r} is empty; starting fresh"
                ],
            )
        loaded = cls._load(path)
        cls._check_header(loaded.header, header, path)
        if loaded.warnings:
            # The torn tail has no trailing newline; appending to it
            # would concatenate records. Rewrite the valid prefix.
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(
                    "".join(
                        line + "\n" for line in loaded.valid_lines
                    )
                )
                handle.flush()
                os.fsync(handle.fileno())
        return cls(
            path,
            header,
            cells=loaded.cells,
            heartbeats=loaded.heartbeats,
            warnings=loaded.warnings,
            _header_on_disk=True,
        )

    @staticmethod
    def _check_header(
        stored: JournalHeader, expected: JournalHeader, path: str
    ) -> None:
        if stored.version != expected.version:
            raise CheckpointError(
                f"checkpoint {path!r} has schema version "
                f"{stored.version}, this build writes version "
                f"{expected.version}"
            )
        for field_name in (
            "profile", "workload", "seed", "campaigns", "controllers",
            "sweep", "cells",
        ):
            recorded = getattr(stored, field_name)
            wanted = getattr(expected, field_name)
            if recorded != wanted:
                raise CheckpointError(
                    f"checkpoint {path!r} was written for "
                    f"{field_name}={recorded!r}, this run uses "
                    f"{field_name}={wanted!r}"
                )

    @staticmethod
    def _load(
        path: str,
    ) -> "LoadedJournal":
        """Parse a journal file into a :class:`LoadedJournal`.

        The final non-empty line is allowed to be torn (unparseable
        JSON): it is dropped with a warning. Any earlier unparseable
        line, and any line that parses but violates the schema, is
        mid-file corruption and raises :class:`CheckpointError`.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw_lines = handle.read().split("\n")
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {path!r}: {error}"
            ) from None
        lines = [
            (number, line)
            for number, line in enumerate(raw_lines, start=1)
            if line.strip()
        ]
        if not lines:
            raise CheckpointError(f"checkpoint {path!r} is empty")
        warnings: List[str] = []
        parsed: List[Tuple[int, str, Dict[str, object]]] = []
        last_position = len(lines) - 1
        for position, (number, line) in enumerate(lines):
            try:
                payload = json.loads(line)
            except ValueError:
                if position == last_position:
                    warnings.append(
                        f"dropped torn final record at line {number} "
                        f"of {path!r} (crash mid-append)"
                    )
                    continue
                raise CheckpointError(
                    f"checkpoint {path!r} is corrupt at line "
                    f"{number}: unparseable record"
                ) from None
            if not isinstance(payload, dict):
                raise CheckpointError(
                    f"checkpoint {path!r} is corrupt at line "
                    f"{number}: record is not an object"
                )
            parsed.append((number, line, payload))
        if not parsed:
            raise CheckpointError(
                f"checkpoint {path!r} holds no intact records"
            )
        first_number, _, first = parsed[0]
        if first.get("record") != "header":
            raise CheckpointError(
                f"checkpoint {path!r} does not start with a header "
                f"record (line {first_number})"
            )
        version = first.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has schema version {version!r}, "
                f"this build writes version {CHECKPOINT_VERSION}"
            )
        header = JournalHeader.from_payload(first)
        cells: Dict[CellKey, JournalCell] = {}
        heartbeats: List[Dict[str, object]] = []
        quarantines: List[Dict[str, object]] = []
        valid_lines = [parsed[0][1]]
        for number, line, payload in parsed[1:]:
            kind = payload.get("record")
            if kind == "cell":
                try:
                    cell = _parse_cell_record(payload)
                except CheckpointError as error:
                    raise CheckpointError(
                        f"checkpoint {path!r} is corrupt at line "
                        f"{number}: {error}"
                    ) from None
                cells[cell.key] = cell
            elif kind == "quarantine":
                # Informational: a quarantined cell gets a fresh
                # retry budget on resume rather than being skipped.
                _parse_cell_key(payload.get("key"))
                quarantines.append(dict(payload))
            elif kind == "heartbeat":
                # Informational liveness records; kept so a resumed
                # run (and ``repro report``) can say what the dead
                # run was doing when it stopped.
                heartbeats.append(dict(payload))
            else:
                raise CheckpointError(
                    f"checkpoint {path!r} is corrupt at line "
                    f"{number}: unknown record kind {kind!r}"
                )
            valid_lines.append(line)
        return LoadedJournal(
            header=header,
            cells=cells,
            heartbeats=heartbeats,
            quarantines=quarantines,
            valid_lines=valid_lines,
            warnings=warnings,
        )

    # -- properties -----------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def header(self) -> JournalHeader:
        return self._header

    @property
    def completed(self) -> Mapping[CellKey, JournalCell]:
        """Cells recovered from disk plus those recorded this run."""
        return self._cells

    @property
    def warnings(self) -> List[str]:
        """Recovery notes (torn-tail drops) from loading this journal."""
        return list(self._warnings)

    @property
    def heartbeats(self) -> List[Dict[str, object]]:
        """Heartbeat records recovered from disk plus those recorded
        this run (liveness only; never merged into results)."""
        return list(self._heartbeats)

    # -- appends --------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._file is None:
            try:
                self._file = open(self._path, "a", encoding="utf-8")
            except OSError as error:
                raise CheckpointError(
                    f"cannot write checkpoint {self._path!r}: {error}"
                ) from None
            if not self._header_on_disk:
                self._header_on_disk = True
                self._write_line(self._header.to_payload())

    def _append(self, payload: Mapping[str, object]) -> None:
        self._ensure_open()
        self._write_line(payload)

    def _write_line(self, payload: Mapping[str, object]) -> None:
        handle = self._file
        assert handle is not None
        # Payload dicts are built in deterministic order, so records
        # are byte-stable without sort_keys.
        profiled = self._profiler.enabled
        if profiled:
            self._profiler.enter("checkpoint.append")
        try:
            handle.write(json.dumps(payload) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            if profiled:
                self._profiler.exit("checkpoint.append")

    def record_cell(
        self,
        spec: CellSpec,
        result: object,
        *,
        spans: Optional[Dict[str, object]] = None,
        duration: Optional[float] = None,
        worker: Optional[int] = None,
    ) -> None:
        """Durably append one completed cell (fsynced before return):
        its key, ``spec.fingerprint()`` and ``spec.encode_result(
        result)`` under ``spec.result_field``.

        ``spans``, ``duration`` and ``worker`` are optional
        observability extras; they are journaled next to the result
        but take no part in fingerprinting or resume matching.
        """
        fingerprint = spec.fingerprint()
        encoded = spec.encode_result(result)
        payload: Dict[str, object] = {
            "record": "cell",
            "key": list(spec.key),
            "spec_hash": fingerprint,
            spec.result_field: encoded,
        }
        if duration is not None:
            payload["duration"] = round(duration, 6)
        if worker is not None:
            payload["worker"] = worker
        if spans is not None:
            payload["spans"] = spans
        self._append(payload)
        self._cells[spec.key] = JournalCell(
            key=spec.key,
            spec_hash=fingerprint,
            field=spec.result_field,
            payload=encoded,
            spans=spans,
            duration=duration,
            worker=worker,
        )

    def record_heartbeat(self, payload: Mapping[str, object]) -> None:
        """Durably append one liveness heartbeat (see
        :meth:`repro.telemetry.progress.CellEvent.to_payload`). Purely
        informational: resume matching never reads heartbeats, but
        ``--resume`` and ``repro report`` surface them to say what an
        interrupted run was doing."""
        record: Dict[str, object] = {"record": "heartbeat"}
        record.update(payload)
        self._append(record)
        self._heartbeats.append(record)

    def record_quarantine(
        self, spec: CellSpec, attempts: int, error: str
    ) -> None:
        """Append a quarantine note (informational; not resumed past)."""
        self._append({
            "record": "quarantine",
            "key": list(spec.key),
            "spec_hash": spec.fingerprint(),
            "attempts": attempts,
            "error": error,
        })

    def match(self, specs: Sequence[CellSpec]) -> Dict[int, JournalCell]:
        """Map spec indices to their recovered journal cells.

        Only records of the batch's own kind (its specs'
        ``result_field``) are considered, so batches of different kinds
        can share one journal. Every such record must belong to this
        batch (same key *and* same fingerprint); a journal holding
        foreign or stale cells is rejected rather than partially
        trusted.
        """
        by_key: Dict[CellKey, Tuple[int, CellSpec]] = {
            spec.key: (index, spec)
            for index, spec in enumerate(specs)
        }
        fields = {spec.result_field for spec in specs}
        matched: Dict[int, JournalCell] = {}
        for key, cell in self._cells.items():
            if cell.field not in fields:
                continue
            located = by_key.get(key)
            if located is None:
                raise CheckpointError(
                    f"checkpoint {self._path!r} holds cell "
                    f"{_cell_label(key)} which is not part of this "
                    f"run"
                )
            index, spec = located
            fingerprint = spec.fingerprint()
            if cell.spec_hash != fingerprint:
                raise CheckpointError(
                    f"checkpoint cell {_cell_label(key)} was recorded "
                    f"under a different campaign configuration (hash "
                    f"{cell.spec_hash} != {fingerprint}); rerun with "
                    f"the original settings or delete "
                    f"{self._path!r}"
                )
            matched[index] = cell
        return matched

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointJournal",
    "JournalCell",
    "JournalHeader",
    "LoadedJournal",
    "cell_fingerprint",
    "content_hash",
    "load_journal",
    "scorecard_from_payload",
    "scorecard_to_payload",
]
