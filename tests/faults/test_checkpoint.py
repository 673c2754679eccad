"""Checkpoint journal suite: durability, corruption, kill-and-resume.

The crash-safety contract has two halves, both tested here:

* The journal itself — every completed cell is durably recorded and
  round-trips losslessly; a torn final record (crash mid-append) is
  recovered with a warning; mid-file corruption, schema-version
  mismatches, header mismatches, and spec-hash mismatches are rejected
  with `CheckpointError` rather than half-trusted.
* The cell contract — campaign cells and the chaos experiment's
  crash-recovery replay cells share one journal, each kind with its
  own fingerprint and result field, and each batch trusts only
  records of its own kind. The journal decodes every line once, on
  load, into its typed record; re-encoding those records reproduces
  the committed smoke journal byte for byte.
* The resume equivalence gate — a `repro run chaos --checkpoint` run
  hard-killed (SIGKILL) mid-campaign and resumed with `--resume` must
  print stdout byte-identical to an uninterrupted run, serially and on
  a process pool, and a resume over a complete journal runs no cell
  at all. `scripts/check.sh` runs the `kill_and_resume` and
  `reruns_no_replay_cell` tests as a dedicated stage.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import CheckpointError, FaultInjectionError
from repro.experiments import chaos
from repro.experiments.chaos import RecoveryCellSpec, resolve_workload
from repro.faults import campaigns
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    RESULT_TYPES,
    CheckpointJournal,
    JournalHeader,
    cell_fingerprint,
    decode_record,
    load_journal,
)
from repro.faults.executor import CampaignExecutor
from repro.records import to_json
from repro.telemetry.spans import SpanProfiler, profiling
from repro.workloads.wordcount import heron_wordcount_graph

POOL_TIMEOUT = 180.0

#: A journal committed by an older build: every cell record also
#: carries a "telemetry" metrics snapshot that nothing reads any more.
SMOKE_JOURNAL = (
    Path(__file__).resolve().parent.parent
    / "reports" / "smoke_checkpoint.jsonl"
)

HEADER = JournalHeader(
    profile="smoke",
    workload="wordcount",
    seed=1,
    campaigns=2,
    controllers=("dhalion", "ds2", "ds2-legacy"),
)


def _generator(seed=1, profile="smoke"):
    return CampaignGenerator(
        PROFILES[profile],
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=seed,
    )


def _runner(tick=2.0):
    return resolve_workload("wordcount").runner(tick)


def _specs(campaigns=2, seed=1, tick=2.0):
    return _runner(tick).cell_specs(_generator(seed), campaigns)


def _cards_as_dicts(cards):
    return [dataclasses.asdict(card) for card in cards]


def _decode(field, payload):
    """A journaled result read back the way the journal reads it."""
    return decode_record(RESULT_TYPES[field], payload, field)


class TestScorecardRoundTrip:
    def test_real_cells_round_trip_exactly(self):
        from repro.faults.campaigns import run_campaign_cell

        for spec in _specs(campaigns=1):
            card = run_campaign_cell(spec)
            payload = json.loads(json.dumps(to_json(card)))
            assert _decode("scorecard", payload) == card

    def test_audit_free_card_round_trips(self):
        from repro.faults.campaigns import SasoScorecard

        card = SasoScorecard(
            controller="x", campaign=0, schedule_seed=1,
            oscillations=0, steady_state_error=0.1,
            settling_epochs=2, overshoot_ratio=1.0,
            downtime_fraction=0.0, recovery_seconds=0.0,
            scaling_actions=1, failed_rescales=0, audit=None,
        )
        assert _decode("scorecard", to_json(card)) == card

    def test_malformed_payload_raises(self):
        with pytest.raises(CheckpointError, match="malformed"):
            _decode("scorecard", {"controller": "x"})

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("campaign", 2.7, "scorecard.campaign: expected an integer"),
            ("oscillations", True, "scorecard.oscillations: expected an"),
            ("controller", 5, "scorecard.controller: expected a string"),
            ("steady_state_error", "nan", "scorecard.steady_state_error"),
            ("fudge", 1, "scorecard: unknown field.s. fudge"),
        ],
    )
    def test_values_are_not_coerced(self, field, value, match):
        """A journaled scorecard is read by its fields' types: the
        old reader rounded 2.7, counted true as 1, stringified 5 and
        parsed "nan"."""
        lines = SMOKE_JOURNAL.read_text().splitlines()
        card = json.loads(lines[_first_cell_line(lines)])["scorecard"]
        assert _decode("scorecard", card)
        card[field] = value
        with pytest.raises(CheckpointError, match=match):
            _decode("scorecard", card)


class TestCellFingerprint:
    def test_stable_for_identical_specs(self):
        assert [cell_fingerprint(s) for s in _specs()] == [
            cell_fingerprint(s) for s in _specs()
        ]

    def test_differs_across_cells_and_configs(self):
        specs = _specs()
        prints = {cell_fingerprint(s) for s in specs}
        assert len(prints) == len(specs)
        # A different engine tick is a different campaign config.
        other = _specs(tick=1.0)
        assert cell_fingerprint(specs[0]) != cell_fingerprint(other[0])


def _replay_specs(count=2, tick=2.0):
    return [
        RecoveryCellSpec(seed=1, campaign=campaign, runtime=runtime, tick=tick)
        for runtime in ("flink", "heron")
        for campaign in range(count)
    ]


class TestReplayCellContract:
    def test_fingerprint_stable_and_sensitive(self):
        base = RecoveryCellSpec(
            seed=1, campaign=0, runtime="flink", tick=2.0
        )
        assert base.fingerprint() == dataclasses.replace(base).fingerprint()
        variants = [
            base,
            dataclasses.replace(base, seed=2),
            dataclasses.replace(base, campaign=1),
            dataclasses.replace(base, runtime="timely"),
            dataclasses.replace(base, tick=1.0),
        ]
        prints = [spec.fingerprint() for spec in variants]
        assert len(set(prints)) == len(prints)

    @pytest.mark.parametrize(
        "outages",
        [(), (12.5,), (0.1, 3.0000000000000004, 1e-300, 71.0)],
    )
    def test_outages_codec_round_trips_exactly(self, outages):
        payload = json.loads(json.dumps(to_json(outages)))
        decoded = _decode("outages", payload)
        assert decoded == outages
        assert type(decoded) is tuple
        assert [repr(x) for x in decoded] == [repr(x) for x in outages]

    @pytest.mark.parametrize(
        "payload", [None, {"outages": []}, [True], ["1.5"], [[1.0]]]
    )
    def test_malformed_outages_rejected(self, payload):
        with pytest.raises(CheckpointError, match="malformed outages"):
            _decode("outages", payload)


class TestJournalLifecycle:
    def test_fresh_open_writes_header_eagerly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.open(path, HEADER)
        journal.close()
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["record"] == "header"

    def test_record_and_resume_round_trip(self, tmp_path):
        from repro.faults.campaigns import run_campaign_cell

        path = str(tmp_path / "j.jsonl")
        specs = _specs(campaigns=1)
        cards = [run_campaign_cell(s) for s in specs]
        with CheckpointJournal.open(path, HEADER) as journal:
            for spec, card in zip(specs, cards):
                journal.record_cell(spec, card)
        resumed = CheckpointJournal.open(path, HEADER, resume=True)
        matched = resumed.match(specs)
        assert sorted(matched) == [0, 1, 2]
        assert _cards_as_dicts(
            [matched[i].result for i in range(3)]
        ) == _cards_as_dicts(cards)
        assert resumed.warnings == []
        resumed.close()

    def test_cell_record_has_no_telemetry_key(self, tmp_path):
        from repro.faults.campaigns import run_campaign_cell

        path = str(tmp_path / "j.jsonl")
        spec = _specs(campaigns=1)[0]
        card = run_campaign_cell(spec)
        with CheckpointJournal.open(path, HEADER) as journal:
            journal.record_cell(spec, card, duration=1.5, worker=7)
        records = [
            json.loads(line)
            for line in Path(path).read_text().splitlines()
        ]
        assert [r["record"] for r in records] == ["header", "cell"]
        assert "telemetry" not in records[1]
        cell = load_journal(path).cells[spec.key]
        assert cell.result == card
        assert cell.spec_hash == cell_fingerprint(spec)
        assert (cell.duration, cell.worker) == (1.5, 7)

    def test_older_journal_with_telemetry_snapshots_resumes(
        self, tmp_path
    ):
        """Cell records from older builds carry a "telemetry" key; it is
        ignored, and every cell still resumes without re-running."""
        path = str(tmp_path / "old.jsonl")
        shutil.copyfile(SMOKE_JOURNAL, path)
        assert all(
            "telemetry" in json.loads(line)
            for line in Path(path).read_text().splitlines()
            if '"record": "cell"' in line
        )
        loaded = load_journal(path)
        specs = _specs()
        by_key = {spec.key: spec for spec in specs}
        ordered = [
            by_key[(1, campaign, controller)]
            for campaign in range(loaded.header.campaigns)
            for controller in loaded.header.controllers
        ]

        def never_run(spec):
            raise AssertionError(f"cell {spec.key} re-ran")

        with CheckpointJournal.open(
            path, loaded.header, resume=True
        ) as journal:
            outcome = CampaignExecutor(
                journal=journal, runner=never_run
            ).execute(ordered)
        assert outcome.resumed == len(ordered) == 6
        assert [outcome.by_index[i] for i in range(6)] == [
            loaded.cells[spec.key].result for spec in ordered
        ]
        assert Path(path).read_bytes() == SMOKE_JOURNAL.read_bytes()

    def test_fresh_open_refuses_existing_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.open(path, HEADER).close()
        with pytest.raises(CheckpointError, match="already exists"):
            CheckpointJournal.open(path, HEADER)

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot resume"):
            CheckpointJournal.open(
                str(tmp_path / "missing.jsonl"), HEADER, resume=True
            )


def _journal_with_cells(tmp_path, campaigns=1):
    from repro.faults.campaigns import run_campaign_cell

    path = str(tmp_path / "j.jsonl")
    specs = _specs(campaigns=campaigns)
    with CheckpointJournal.open(path, HEADER) as journal:
        for spec in specs:
            journal.record_cell(spec, run_campaign_cell(spec))
    return path, specs


def _journal_with_both_kinds(tmp_path):
    """Campaign cells and (fake-outage) replay cells in one journal."""
    path, specs = _journal_with_cells(tmp_path)
    replay = _replay_specs()
    with CheckpointJournal.open(path, HEADER, resume=True) as journal:
        for index, spec in enumerate(replay):
            journal.record_cell(spec, (float(index), 0.5))
    return path, specs, replay


class TestCellKinds:
    def test_batches_of_two_kinds_share_a_journal(self, tmp_path):
        path, specs, replay = _journal_with_both_kinds(tmp_path)
        records = [
            json.loads(line)
            for line in Path(path).read_text().splitlines()[1:]
        ]
        assert [("scorecard" in r, "outages" in r) for r in records] == (
            [(True, False)] * len(specs) + [(False, True)] * len(replay)
        )
        assert records[-1]["outages"] == [3.0, 0.5]
        assert records[-1]["key"] == [1, 1, "recovery:heron"]
        with CheckpointJournal.open(path, HEADER, resume=True) as journal:
            assert sorted(journal.match(specs)) == [0, 1, 2]
            matched = journal.match(replay)
        assert sorted(matched) == [0, 1, 2, 3]
        assert [matched[i].result for i in range(4)] == [
            (0.0, 0.5), (1.0, 0.5), (2.0, 0.5), (3.0, 0.5)
        ]

    def test_stale_replay_record_rejected(self, tmp_path):
        """Replay cells journaled under tick=2.0 must not resume a
        tick=1.0 replay."""
        path, _, _ = _journal_with_both_kinds(tmp_path)
        with CheckpointJournal.open(path, HEADER, resume=True) as journal:
            with pytest.raises(
                CheckpointError, match="different campaign configuration"
            ):
                journal.match(_replay_specs(tick=1.0))

    def test_foreign_replay_record_rejected(self, tmp_path):
        path, _, replay = _journal_with_both_kinds(tmp_path)
        with CheckpointJournal.open(path, HEADER, resume=True) as journal:
            with pytest.raises(CheckpointError, match="recovery replay"):
                journal.match(replay[:3])

    def test_malformed_replay_record_rejected_on_resume(self, tmp_path):
        """Replay outages are decoded on load, like scorecards: the
        error names the line, not just the field."""
        path, _, replay = _journal_with_both_kinds(tmp_path)
        text = Path(path).read_text().replace(
            '"outages": [3.0, 0.5]', '"outages": ["3.0", 0.5]'
        )
        Path(path).write_text(text)
        with pytest.raises(
            CheckpointError,
            match=r"corrupt at line 8: malformed outages\[0\]",
        ):
            CheckpointJournal.open(path, HEADER, resume=True)

    @pytest.mark.parametrize(
        "extra,match",
        [({}, "no result payload"), ({"b": 1, "c": 2}, "2 result payloads")],
    )
    def test_cell_record_needs_one_result_payload(
        self, tmp_path, extra, match
    ):
        path, _ = _journal_with_cells(tmp_path)
        record = {"record": "cell", "key": [1, 5, "ds2"], "spec_hash": "x"}
        record.update(extra)
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"record": "heartbeat"}) + "\n")
        with pytest.raises(CheckpointError, match="corrupt at line 5"):
            load_journal(path)
        with pytest.raises(CheckpointError, match=match):
            load_journal(path)


def _first_cell_line(lines):
    return next(
        number
        for number, line in enumerate(lines)
        if json.loads(line)["record"] == "cell"
    )


def _first_heartbeat_line(lines):
    return next(
        number
        for number, line in enumerate(lines)
        if json.loads(line)["record"] == "heartbeat"
    )


def _set_outages(record):
    del record["scorecard"]
    record["outages"] = [1.0, "x"]


def _set_result_field(record):
    record["fudge"] = record.pop("scorecard")


def _set_index(record):
    record["index"] = "x"


@pytest.mark.parametrize(
    "find,edit,match",
    [
        (
            _first_cell_line,
            _set_outages,
            r"malformed outages\[1\]: expected a number",
        ),
        (
            _first_cell_line,
            _set_result_field,
            "cell .* has an unknown result field 'fudge'",
        ),
        (
            _first_heartbeat_line,
            _set_index,
            "malformed heartbeat.index: expected an integer",
        ),
    ],
)
def test_records_are_decoded_on_load(tmp_path, find, edit, match):
    """Every line is decoded by its type on load, whatever its kind:
    a bad replay result or heartbeat is named with its line, not
    found later (or never) by whatever reads it."""
    lines = SMOKE_JOURNAL.read_text().splitlines()
    index = find(lines)
    payload = json.loads(lines[index])
    edit(payload)
    lines[index] = json.dumps(payload)
    path = tmp_path / "j.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        CheckpointError, match=f"corrupt at line {index + 1}: {match}"
    ):
        load_journal(str(path))


class _RecordedSpec:
    """The cell contract of a journaled cell, enough to record it
    again."""

    def __init__(self, cell):
        self.key = cell.key
        self.result_field = cell.field
        self._hash = cell.spec_hash

    def fingerprint(self):
        return self._hash


def test_smoke_journal_reencodes_byte_for_byte(tmp_path):
    """Decoding a journal loses nothing a fresh run writes: each line
    of the committed smoke journal, decoded and recorded again through
    the journal's own writers, gets its bytes back. Only the metrics
    snapshot that older builds put in cell records is gone: nothing
    reads it any more."""
    loaded = load_journal(str(SMOKE_JOURNAL))
    cells = iter(loaded.cells.values())
    heartbeats = iter(loaded.heartbeats)
    path = str(tmp_path / "again.jsonl")
    expected = []
    with CheckpointJournal.open(path, loaded.header) as journal:
        for line in loaded.valid_lines:
            record = json.loads(line)
            record.pop("telemetry", None)
            expected.append(json.dumps(record))
            if record["record"] == "cell":
                cell = next(cells)
                journal.record_cell(
                    _RecordedSpec(cell),
                    cell.result,
                    spans=cell.spans,
                    duration=cell.duration,
                    worker=cell.worker,
                )
            elif record["record"] == "heartbeat":
                journal.record_heartbeat(next(heartbeats))
    assert len(expected) == 19
    assert Path(path).read_text().splitlines() == expected


@pytest.mark.parametrize(
    "record,field,value",
    [
        ("cell", "key", [1.7, 0, "ds2"]),
        ("cell", "key", [True, 0, "ds2"]),
        ("cell", "key", [1, "0", "ds2"]),
        ("header", "campaigns", 2.9),
        ("header", "seed", True),
        ("header", "seed", "1"),
        ("header", "version", 1.0),
        ("header", "version", True),
    ],
)
def test_journal_integers_are_not_coerced(tmp_path, record, field, value):
    """A float, a bool or a numeric string where the journal holds an
    integer is corruption, not something to round."""
    lines = SMOKE_JOURNAL.read_text().splitlines()
    index = 0 if record == "header" else _first_cell_line(lines)
    payload = json.loads(lines[index])
    payload[field] = value
    lines[index] = json.dumps(payload)
    path = tmp_path / "j.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="integer|malformed cell key"):
        load_journal(str(path))


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("profile", 5, "header.profile: expected a string"),
        ("controllers", [1], r"header.controllers\[0\]: expected a string"),
        ("controllers", "ds2", "header.controllers: expected a list"),
    ],
)
def test_journal_header_strings_are_not_coerced(
    tmp_path, field, value, match
):
    lines = SMOKE_JOURNAL.read_text().splitlines()
    payload = json.loads(lines[0])
    payload[field] = value
    lines[0] = json.dumps(payload)
    path = tmp_path / "j.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=match):
        load_journal(str(path))


def test_malformed_span_tree_refused_on_resume(tmp_path):
    """A profiled resume merges journaled span trees; one whose
    children are not objects is corruption at its line, not a crash
    inside the merge."""
    lines = SMOKE_JOURNAL.read_text().splitlines()
    index = _first_cell_line(lines)
    payload = json.loads(lines[index])
    payload["spans"]["children"] = [5]
    lines[index] = json.dumps(payload)
    path = tmp_path / "j.jsonl"
    path.write_text("\n".join(lines) + "\n")
    header = load_journal(str(SMOKE_JOURNAL)).header
    with pytest.raises(
        CheckpointError,
        match=f"corrupt at line {index + 1}: cell .* malformed span tree",
    ):
        CheckpointJournal.open(str(path), header, resume=True)


class TestJournalCorruption:
    def test_torn_final_record_recovered_with_warning(self, tmp_path):
        path, specs = _journal_with_cells(tmp_path)
        intact = Path(path).read_text()
        # A crash mid-append leaves a half-written record with no
        # trailing newline.
        Path(path).write_text(intact + '{"record": "cell", "key"')
        journal = CheckpointJournal.open(path, HEADER, resume=True)
        assert len(journal.warnings) == 1
        assert "torn" in journal.warnings[0]
        assert len(journal.match(specs)) == len(specs)
        # Recovery truncated the file back to its valid prefix, so
        # appending cannot concatenate onto the torn garbage.
        assert Path(path).read_text() == intact
        journal.close()

    def test_midfile_corruption_rejected(self, tmp_path):
        path, _ = _journal_with_cells(tmp_path)
        lines = Path(path).read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt at line 2"):
            CheckpointJournal.open(path, HEADER, resume=True)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path, _ = _journal_with_cells(tmp_path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"record": "mystery"}) + "\n")
            handle.write(json.dumps({"record": "quarantine"}) + "\n")
        with pytest.raises(CheckpointError, match="mystery"):
            CheckpointJournal.open(path, HEADER, resume=True)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path, _ = _journal_with_cells(tmp_path)
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = CHECKPOINT_VERSION + 1
        lines[0] = json.dumps(header, sort_keys=True)
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="schema version"):
            CheckpointJournal.open(path, HEADER, resume=True)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("profile", "mixed"),
            ("workload", "nexmark-q5"),
            ("seed", 99),
            ("campaigns", 7),
            ("controllers", ("ds2",)),
        ],
    )
    def test_header_mismatch_rejected(self, tmp_path, field, value):
        path, _ = _journal_with_cells(tmp_path)
        mismatched = dataclasses.replace(HEADER, **{field: value})
        with pytest.raises(CheckpointError, match=field):
            CheckpointJournal.open(path, mismatched, resume=True)

    def test_spec_hash_mismatch_rejected(self, tmp_path):
        """Cells journaled under tick=2.0 must not resume a tick=1.0
        run: same keys, different simulation."""
        path, _ = _journal_with_cells(tmp_path)
        journal = CheckpointJournal.open(path, HEADER, resume=True)
        with pytest.raises(
            CheckpointError, match="different campaign configuration"
        ):
            journal.match(_specs(campaigns=1, tick=1.0))
        journal.close()

    def test_foreign_cell_rejected(self, tmp_path):
        """A journal holding cells outside this batch is not ours."""
        path, specs = _journal_with_cells(tmp_path, campaigns=2)
        journal = CheckpointJournal.open(path, HEADER, resume=True)
        with pytest.raises(CheckpointError, match="not part of"):
            journal.match(specs[:3])  # campaign 1's cells are foreign
        journal.close()

    def test_missing_header_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        Path(path).write_text(
            json.dumps({"record": "cell"}) + "\n"
            + json.dumps({"record": "cell"}) + "\n"
        )
        with pytest.raises(CheckpointError, match="header"):
            CheckpointJournal.open(path, HEADER, resume=True)


class TestExecutorJournaling:
    """The executor honours an attached journal, in-process and on a
    pool.

    Scorecards are deterministic across executions, so they are
    compared against a plain serial run. A *full* resume replays the
    journaled per-cell span payloads, whose canonical fold must
    reproduce the original run's span structure exactly.
    """

    def _plain_cards(self, specs):
        return CampaignExecutor().run_cells(specs)

    def _journaled_run(self, path, specs, make_backend, resume=False):
        journal = CheckpointJournal.open(path, HEADER, resume=resume)
        profiler = SpanProfiler()
        try:
            with profiling(profiler):
                cards = make_backend(journal).run_cells(specs)
        finally:
            journal.close()
        return cards, profiler.structure()

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_journaled_run_and_full_resume_equivalence(
        self, tmp_path, backend
    ):
        make_backend = (
            (lambda j: CampaignExecutor(journal=j))
            if backend == "serial"
            else (lambda j: CampaignExecutor(
                jobs=2, pool_timeout=POOL_TIMEOUT, journal=j
            ))
        )
        specs = _specs()
        plain_cards = self._plain_cards(specs)
        path = str(tmp_path / "j.jsonl")
        cards, spans = self._journaled_run(
            path, specs, make_backend
        )
        assert _cards_as_dicts(cards) == _cards_as_dicts(plain_cards)
        # Full resume: every cell comes from the journal; the merged
        # span structure must equal the original run's.
        resumed_cards, resumed_spans = self._journaled_run(
            path, specs, make_backend, resume=True
        )
        assert _cards_as_dicts(resumed_cards) == _cards_as_dicts(cards)
        assert resumed_spans == spans

    @pytest.mark.parametrize("resumed_executor", ["serial", "parallel"])
    def test_partial_journal_resumes_missing_cells_only(
        self, tmp_path, resumed_executor
    ):
        """Truncate a journal mid-batch (a simulated kill), resume on
        either backend: identical scorecards, journal completed."""
        specs = _specs()
        plain_cards = self._plain_cards(specs)
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, HEADER) as journal:
            CampaignExecutor(journal=journal).run_cells(specs)
        lines = Path(path).read_text().splitlines()
        Path(path).write_text(
            "\n".join(lines[:4]) + "\n"  # header + 3 of 6 cells
        )
        journal = CheckpointJournal.open(path, HEADER, resume=True)
        assert len(journal.completed) == 3
        backend = (
            CampaignExecutor(journal=journal)
            if resumed_executor == "serial"
            else CampaignExecutor(
                jobs=2, pool_timeout=POOL_TIMEOUT, journal=journal
            )
        )
        cards = backend.run_cells(specs)
        journal.close()
        assert _cards_as_dicts(cards) == _cards_as_dicts(plain_cards)
        # The resumed run journaled the missing cells too.
        journal = CheckpointJournal.open(path, HEADER, resume=True)
        assert len(journal.completed) == len(specs)
        journal.close()


# ----------------------------------------------------------------------
# The check.sh gate: hard-kill a CLI run, resume it, demand identity
# ----------------------------------------------------------------------

CLI_ARGS = [
    "run", "chaos", "--profile", "smoke", "--seeds", "3",
    "--scale", "0.5",
]


def _cli_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_cli(extra, timeout=POOL_TIMEOUT):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + CLI_ARGS + extra,
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=timeout,
    )


def _cell_count(path):
    if not os.path.exists(path):
        return 0
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if '"record": "cell"' in line:
                count += 1
    return count


def _children(pid):
    """Live child processes of ``pid``, from /proc (empty without it)."""
    children = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _kill_mid_campaign(checkpoint, jobs_args):
    """Start a checkpointed run, SIGKILL it once >= 2 cells landed.
    Returns the child processes (pool workers) it had at the kill."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro"]
        + CLI_ARGS
        + jobs_args
        + ["--checkpoint", checkpoint],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_cli_env(),
    )
    deadline = time.monotonic() + POOL_TIMEOUT  # repro: allow[REPRO101] — test timeout guard
    while time.monotonic() < deadline:  # repro: allow[REPRO101]
        if _cell_count(checkpoint) >= 2:
            break
        if process.poll() is not None:
            break  # finished before we could kill it; still resumable
        time.sleep(0.01)
    workers = []
    if process.poll() is None:
        workers = _children(process.pid)
        process.kill()
        process.wait(timeout=60)
    return workers


@pytest.mark.parametrize("jobs_args", [[], ["--jobs", "2"]],
                         ids=["serial", "jobs2"])
def test_kill_and_resume_byte_identical(tmp_path, jobs_args):
    """A SIGKILLed chaos run resumed from its journal prints stdout
    byte-identical to an uninterrupted run (the acceptance gate)."""
    reference = _run_cli(
        jobs_args + ["--checkpoint", str(tmp_path / "ref.jsonl")]
    )
    assert reference.returncode == 0, reference.stderr
    killed = str(tmp_path / "killed.jsonl")
    workers = _kill_mid_campaign(killed, jobs_args)
    assert os.path.exists(killed)
    # Pool workers exit with their killed parent instead of idling on
    # the call queue forever.
    deadline = time.monotonic() + 10.0  # repro: allow[REPRO101] — test timeout guard
    while any(map(_alive, workers)) and time.monotonic() < deadline:  # repro: allow[REPRO101]
        time.sleep(0.05)
    assert not [pid for pid in workers if _alive(pid)]
    resumed = _run_cli(
        jobs_args + ["--checkpoint", killed, "--resume"]
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
    assert "Coverage: 9/9 cells completed" in resumed.stdout


def test_resume_reruns_no_replay_cell(tmp_path, capsys, monkeypatch):
    """A resume over a complete chaos journal runs no cell: the
    crash-recovery replay cells come from the journal too."""
    path = str(tmp_path / "chaos.ckpt")
    args = [
        "run", "chaos", "--profile", "smoke", "--seeds", "2",
        "--scale", "0.5", "--checkpoint", path,
    ]
    assert main(args) == 0
    expected = capsys.readouterr().out
    replay = [
        key for key in load_journal(path).cells
        if key[2].startswith("recovery:")
    ]
    assert len(replay) == 15
    calls = []

    def never_run(spec):
        calls.append(spec.key)
        raise AssertionError(f"cell {spec.key} re-ran")

    monkeypatch.setattr(chaos, "run_recovery_cell", never_run)
    monkeypatch.setattr(campaigns, "run_campaign_cell", never_run)
    assert main(args + ["--resume"]) == 0
    assert capsys.readouterr().out == expected
    assert calls == []


def test_kill_and_resume_trace_identical(tmp_path):
    """The recorded trace of a resumed run matches an uninterrupted
    one: cells are re-announced in canonical order from the journal."""
    ref_trace = str(tmp_path / "ref-trace.jsonl")
    reference = _run_cli([
        "--checkpoint", str(tmp_path / "ref.jsonl"),
        "--trace", ref_trace,
    ])
    assert reference.returncode == 0, reference.stderr
    killed = str(tmp_path / "killed.jsonl")
    _kill_mid_campaign(killed, [])
    resumed_trace = str(tmp_path / "resumed-trace.jsonl")
    resumed = _run_cli([
        "--checkpoint", killed, "--resume", "--trace", resumed_trace,
    ])
    assert resumed.returncode == 0, resumed.stderr
    assert (
        Path(resumed_trace).read_bytes()
        == Path(ref_trace).read_bytes()
    )
