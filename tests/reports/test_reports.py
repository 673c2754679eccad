"""Tests for the aggregated run-report builder and its renderers.

The committed fixtures (``smoke_checkpoint.jsonl`` +
``golden_report.json``) freeze a 2-campaign smoke run recorded with
progress heartbeats and span profiling: the JSON renderer over the
committed journal must stay byte-identical to the committed golden
report (also gated as a ``scripts/check.sh`` stage).
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.errors import CheckpointError, TelemetryError
from repro.experiments.chaos import run_chaos
from repro.faults.checkpoint import (
    CheckpointJournal,
    JournalHeader,
    load_journal,
)
from repro.telemetry.progress import CellEvent
from repro.telemetry.reports import (
    REPORT_RENDERERS,
    REPORT_SCHEMA_VERSION,
    build_report,
    render_report_json,
    render_report_markdown,
    render_report_text,
)

FIXTURES = os.path.dirname(__file__)
SMOKE_JOURNAL = os.path.join(FIXTURES, "smoke_checkpoint.jsonl")
GOLDEN_REPORT = os.path.join(FIXTURES, "golden_report.json")
GOLDEN_TRACE = os.path.join(
    FIXTURES, os.pardir, "telemetry", "golden_trace.jsonl"
)


class TestGoldenReport:
    def test_json_render_matches_committed_golden(self):
        report = build_report(SMOKE_JOURNAL)
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            assert render_report_json(report) == handle.read()

    def test_payload_shape(self):
        payload = build_report(SMOKE_JOURNAL).to_payload()
        assert payload["schema"] == REPORT_SCHEMA_VERSION
        assert payload["header"]["profile"] == "smoke"
        assert payload["coverage"] == {
            "expected": 6,
            "completed": 6,
            "quarantined": 0,
            "missing": 0,
        }
        assert set(payload["aggregates"]) == {
            "ds2", "ds2-legacy", "dhalion",
        }
        assert len(payload["cells"]) == 6
        assert payload["heartbeats"] == {"done": 6, "start": 6}
        assert payload["durations"]["cells_timed"] == 6
        span_names = {
            child["name"] for child in payload["spans"]["children"]
        }
        assert "engine.tick" in span_names
        assert "controller.decide" in span_names
        assert payload["audits"]["audited_cells"] == 6

    def test_text_render_headlines(self):
        text = render_report_text(build_report(SMOKE_JOURNAL))
        assert "profile=smoke" in text
        assert "cells: 6/6 completed, 0 quarantined" in text
        assert "heartbeats:" in text
        assert "engine.tick" in text
        assert text.endswith("\n")

    def test_markdown_render_tables(self):
        text = render_report_markdown(build_report(SMOKE_JOURNAL))
        assert text.startswith("# Chaos run report")
        assert "| controller |" in text
        assert "## Heartbeats" in text
        assert "## Span rollup" in text

    def test_renderer_registry_covers_all_formats(self):
        assert set(REPORT_RENDERERS) == {"text", "json", "markdown"}


class TestTraceJoin:
    def test_trace_summary_folds_into_report(self):
        report = build_report(SMOKE_JOURNAL, trace=GOLDEN_TRACE)
        assert report.trace is not None
        payload = report.to_payload()
        assert payload["trace"]["events"] == report.trace.events
        assert "dropped" in payload["trace"]
        text = render_report_text(report)
        assert "trace:" in text

    def test_invalid_trace_raises_telemetry_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(TelemetryError):
            build_report(SMOKE_JOURNAL, trace=str(bad))


class TestInterruptedRuns:
    def _journal_with_open_cell(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.open(
            path,
            JournalHeader(
                profile="smoke",
                workload="wordcount",
                seed=1,
                campaigns=1,
                controllers=("ds2",),
            ),
        )
        journal.record_heartbeat(
            CellEvent(
                kind="start",
                index=0,
                key=(1, 0, "ds2"),
                completed=0,
                total=1,
            )
        )
        journal.close()
        return path

    def test_report_names_interrupted_cells(self, tmp_path):
        path = self._journal_with_open_cell(tmp_path)
        report = build_report(path)
        assert report.interrupted == ("seed=1 0/ds2",)
        assert report.cells_completed == 0
        text = render_report_text(report)
        assert "interrupted while executing: seed=1 0/ds2" in text
        markdown = render_report_markdown(report)
        assert "seed=1 0/ds2" in markdown


class TestChaosJournalWithReplay:
    def test_report_counts_campaign_cells_only(self, tmp_path):
        """A chaos journal also holds the crash-recovery replay cells;
        the report is about campaign cells and skips them."""
        path = str(tmp_path / "chaos.ckpt")
        run_chaos(profile="smoke", campaigns=1, tick=2.0, checkpoint=path)
        keys = load_journal(path).cells
        assert sum(key[2].startswith("recovery:") for key in keys) == 15
        report = build_report(path)
        assert report.cells_expected == report.cells_completed == 3
        assert {row.controller for row in report.cells} == {
            "ds2", "ds2-legacy", "dhalion",
        }
        assert report.duration_stats["cells_timed"] == 3
        text = render_report_text(report)
        assert "cells: 3/3 completed, 0 quarantined" in text


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


class TestNonFiniteDuration:
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_counts_as_absent(self, tmp_path, value):
        """Python's json reads NaN and Infinity; a journal holding one
        as a cell duration must still render valid JSON."""
        with open(SMOKE_JOURNAL, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        index = next(
            number
            for number, line in enumerate(lines)
            if json.loads(line)["record"] == "cell"
        )
        record = json.loads(lines[index])
        record["duration"] = float(value)
        lines[index] = json.dumps(record)
        assert value in lines[index]
        path = tmp_path / "nan.jsonl"
        path.write_text("\n".join(lines) + "\n")
        report = build_report(str(path))
        payload = json.loads(
            render_report_json(report), parse_constant=_reject_constant
        )
        assert payload["durations"]["cells_timed"] == 5
        assert (
            sum(row.duration is None for row in report.cells) == 1
        )


class TestErrors:
    def test_missing_journal_raises_checkpoint_error(self, tmp_path):
        with pytest.raises((CheckpointError, OSError)):
            build_report(str(tmp_path / "absent.jsonl"))

    def test_corrupt_journal_raises_checkpoint_error(self, tmp_path):
        with open(SMOKE_JOURNAL, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # Corrupt a mid-file record: hard rejection, not a torn tail.
        lines[2] = lines[2][:-10] + '"BROKEN"}'
        path = tmp_path / "corrupt.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            build_report(str(path))


def _edit_first_cell(path, edit):
    """The smoke journal, written to ``path`` with ``edit`` applied to
    its first cell record; returns that record's line number."""
    with open(SMOKE_JOURNAL, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    index = next(
        number
        for number, line in enumerate(lines)
        if json.loads(line)["record"] == "cell"
    )
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return index + 1


def _set_campaign(record):
    record["scorecard"]["campaign"] = 2.7


def _bad_span_child(record):
    record["spans"]["children"] = [5]


def _seconds_true(record):
    record["spans"] = {
        "name": "root", "count": 1, "seconds": True, "children": [],
    }


class TestMalformedRecordsViaCli:
    @pytest.mark.parametrize(
        "edit,match",
        [
            (_set_campaign, "scorecard.campaign: expected an integer"),
            (_bad_span_child, "malformed span tree"),
            (_seconds_true, "malformed span tree"),
        ],
    )
    def test_report_refuses_the_journal(
        self, tmp_path, capsys, edit, match
    ):
        """``repro report`` names the bad record's line and exits 2,
        and reading the journal leaves it byte for byte as it was."""
        path = tmp_path / "bad.jsonl"
        line = _edit_first_cell(path, edit)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert main(["report", "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unusable checkpoint: ")
        assert f"corrupt at line {line}: " in captured.err
        assert match in captured.err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_report_names_a_bad_quarantine_key_by_line(
        self, tmp_path, capsys
    ):
        """A quarantine note is decoded inside the journal's
        line-numbered load, like every other record."""
        path = tmp_path / "bad.jsonl"
        with open(SMOKE_JOURNAL, encoding="utf-8") as handle:
            text = handle.read()
        note = {
            "record": "quarantine",
            "key": [1.5, 0, "ds2"],
            "spec_hash": "92b8172864b33ea2",
            "attempts": 3,
            "error": "RuntimeError: boom",
        }
        path.write_text(text + json.dumps(note) + "\n")
        assert main(["report", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unusable checkpoint: ")
        assert f"checkpoint {str(path)!r} is corrupt at line 20: " in err
        assert "malformed quarantine.key[0]: expected an integer" in err


class TestDecodedOnce:
    def test_report_decodes_each_scorecard_once(self, monkeypatch):
        """The journal decodes a scorecard on load; the report reads
        the decoded record (six cells, six decodes)."""
        from repro.faults import checkpoint
        from repro.faults.campaigns import SasoScorecard

        decoded = []
        original = checkpoint.from_json

        def counting(kind, payload, name="value"):
            if kind is SasoScorecard:
                decoded.append(name)
            return original(kind, payload, name)

        monkeypatch.setattr(checkpoint, "from_json", counting)
        report = build_report(SMOKE_JOURNAL)
        assert report.cells_completed == 6
        assert decoded == ["scorecard"] * 6


class TestFixtureIntegrity:
    def test_committed_journal_has_heartbeats_and_spans(self):
        kinds = set()
        span_cells = 0
        with open(SMOKE_JOURNAL, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                kinds.add(record.get("record"))
                if record.get("record") == "cell" and record.get(
                    "spans"
                ):
                    span_cells += 1
        assert kinds == {"header", "cell", "heartbeat"}
        assert span_cells == 6
