"""Tests for campaign heartbeats, progress renderers, and stall
detection.

Renderers are driven through StringIO streams with an injectable
clock, so ETA and stall behavior are deterministic. Executor-level
emission is covered against the real CampaignExecutor, in-process and
on a pool (heartbeats must flow on the existing result channel without touching
stdout), and the journaled-heartbeat round trip against a real
checkpoint file.
"""

import io

import pytest

from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.checkpoint import (
    CheckpointJournal,
    JournalHeader,
    load_journal,
)
from repro.faults.executor import CampaignExecutor
from repro.telemetry.progress import (
    NULL_PROGRESS,
    CellEvent,
    PlainProgressRenderer,
    ProgressListener,
    TTYProgressRenderer,
    interrupted_cells,
    make_progress_renderer,
)
from repro.workloads.wordcount import heron_wordcount_graph


def _event(kind="done", index=0, completed=1, total=6, **kw):
    return CellEvent(
        kind=kind,
        index=index,
        key=(1, 0, "ds2"),
        completed=completed,
        total=total,
        **kw,
    )


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class _TTYStream(io.StringIO):
    def isatty(self):
        return True


class TestCellEvent:
    def test_label(self):
        assert _event().label == "seed=1 0/ds2"

    def test_payload_round_trip_fields(self):
        payload = _event(
            kind="done", worker=42, duration=1.23456789
        ).to_payload()
        assert payload["event"] == "done"
        assert payload["key"] == [1, 0, "ds2"]
        assert payload["worker"] == 42
        assert payload["duration"] == pytest.approx(1.234568)

    def test_payload_omits_absent_optionals(self):
        payload = _event(kind="start").to_payload()
        assert "worker" not in payload
        assert "duration" not in payload


class TestInterruptedCells:
    def test_start_without_done_is_interrupted(self):
        beats = [
            _event("start", index=0).to_payload(),
            _event("done", index=0).to_payload(),
            _event("start", index=1).to_payload(),
        ]
        assert interrupted_cells(beats) == ["seed=1 0/ds2"]

    def test_completed_and_resumed_cells_are_not(self):
        beats = [
            _event("start", index=0).to_payload(),
            _event("resume", index=0).to_payload(),
            _event("start", index=1).to_payload(),
            _event("retry", index=1).to_payload(),
        ]
        assert interrupted_cells(beats) == []

    def test_sorted_by_index_and_tolerates_junk(self):
        beats = [
            {"event": "start"},  # no index: ignored
            _event("start", index=2).to_payload(),
            _event("start", index=1).to_payload(),
            {"event": "start", "index": 3, "key": "bad"},
        ]
        assert interrupted_cells(beats) == [
            "seed=1 0/ds2",
            "seed=1 0/ds2",
            "cell #3",
        ]

    def test_empty(self):
        assert interrupted_cells([]) == []


class TestPlainRenderer:
    def test_line_per_event(self):
        stream = io.StringIO()
        renderer = PlainProgressRenderer(stream, clock=_FakeClock())
        renderer.on_event(
            _event("done", completed=3, worker=7, duration=1.5)
        )
        renderer.close()
        line = stream.getvalue()
        assert "[3/6] done seed=1 0/ds2" in line
        assert "(1.5s)" in line
        assert "[worker 7]" in line

    def test_stall_warning_once(self):
        clock = _FakeClock()
        stream = io.StringIO()
        renderer = PlainProgressRenderer(
            stream, cell_timeout=10.0, clock=clock
        )
        renderer.on_event(_event("start", completed=0))
        clock.now += 6.0  # past 10.0 * STALL_TIMEOUT_FRACTION
        renderer.tick()
        renderer.tick()
        assert stream.getvalue().count("no heartbeat") == 1

    def test_heartbeat_resets_stall(self):
        clock = _FakeClock()
        stream = io.StringIO()
        renderer = PlainProgressRenderer(
            stream, stall_after=5.0, clock=clock
        )
        renderer.on_event(_event("start", index=0, completed=0))
        clock.now += 6.0
        renderer.tick()
        renderer.on_event(_event("done", index=0, completed=1))
        renderer.on_event(_event("start", index=1, completed=1))
        clock.now += 6.0
        renderer.tick()
        assert stream.getvalue().count("no heartbeat") == 2


class TestTTYRenderer:
    def test_refreshes_one_line(self):
        stream = _TTYStream()
        renderer = TTYProgressRenderer(stream, clock=_FakeClock())
        renderer.on_event(_event("start", completed=0))
        renderer.on_event(_event("done", completed=1, duration=2.0))
        text = stream.getvalue()
        assert "\r" in text
        assert "cells 1/6" in text
        assert "\n" not in text
        renderer.close()
        assert stream.getvalue().endswith("\n")

    def test_eta_appears_after_first_duration(self):
        stream = _TTYStream()
        renderer = TTYProgressRenderer(stream, clock=_FakeClock())
        renderer.on_event(_event("done", completed=1, duration=2.0))
        assert "eta" in stream.getvalue()

    def test_stall_promoted_to_durable_line(self):
        clock = _FakeClock()
        stream = _TTYStream()
        renderer = TTYProgressRenderer(
            stream, stall_after=5.0, clock=clock
        )
        renderer.on_event(_event("start", completed=0))
        clock.now += 6.0
        renderer.tick()
        renderer.tick()
        text = stream.getvalue()
        assert text.count("no heartbeat") == 1
        assert "seed=1 0/ds2" in text


class TestMakeRenderer:
    def test_tty_stream_gets_refreshing_renderer(self):
        assert isinstance(
            make_progress_renderer(_TTYStream()), TTYProgressRenderer
        )

    def test_plain_stream_gets_line_renderer(self):
        assert isinstance(
            make_progress_renderer(io.StringIO()),
            PlainProgressRenderer,
        )

    def test_null_listener_is_disabled(self):
        assert NULL_PROGRESS.enabled is False
        NULL_PROGRESS.on_event(_event())  # no-op, no error


class _Recorder(ProgressListener):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _smoke_generator():
    return CampaignGenerator(
        PROFILES["smoke"],
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=1,
    )


def _run_smoke(executor, campaigns=1):
    from repro.experiments.chaos import resolve_workload

    runner = resolve_workload("wordcount").runner(2.0)
    return runner.run(_smoke_generator(), campaigns, executor=executor)


class TestExecutorHeartbeats:
    def test_serial_emits_start_done_pairs(self):
        recorder = _Recorder()
        cards = _run_smoke(CampaignExecutor(progress=recorder))
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["start", "done"] * len(cards)
        done = [e for e in recorder.events if e.kind == "done"]
        assert done[-1].completed == len(cards)
        assert done[-1].total == len(cards)
        assert all(e.duration is not None for e in done)

    def test_parallel_emits_heartbeats_for_every_cell(self):
        recorder = _Recorder()
        cards = _run_smoke(
            CampaignExecutor(
                jobs=2, pool_timeout=180.0, progress=recorder
            )
        )
        starts = [e for e in recorder.events if e.kind == "start"]
        done = [e for e in recorder.events if e.kind == "done"]
        assert len(starts) == len(cards)
        assert len(done) == len(cards)
        assert all(e.worker is not None for e in done)

    def test_progress_does_not_change_scorecards(self):
        silent = _run_smoke(CampaignExecutor())
        noisy = _run_smoke(CampaignExecutor(progress=_Recorder()))
        assert repr(silent) == repr(noisy)


def _header(controllers=("ds2", "ds2-legacy", "dhalion")):
    return JournalHeader(
        profile="smoke",
        workload="wordcount",
        seed=1,
        campaigns=1,
        controllers=controllers,
    )


class TestJournaledHeartbeats:
    def test_heartbeats_round_trip_through_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.open(
            path, _header(controllers=("ds2",))
        )
        journal.record_heartbeat(
            _event("start", completed=0).to_payload()
        )
        journal.record_heartbeat(_event("done").to_payload())
        journal.close()
        loaded = load_journal(path)
        assert [b["event"] for b in loaded.heartbeats] == [
            "start", "done",
        ]
        assert interrupted_cells(loaded.heartbeats) == []

    def test_serial_executor_journals_heartbeats(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.open(path, _header())
        recorder = _Recorder()
        cards = _run_smoke(
            CampaignExecutor(journal=journal, progress=recorder)
        )
        journal.close()
        loaded = load_journal(path)
        kinds = [b["event"] for b in loaded.heartbeats]
        assert kinds == ["start", "done"] * len(cards)

    def test_no_heartbeats_without_progress(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal.open(path, _header())
        _run_smoke(CampaignExecutor(journal=journal))
        journal.close()
        assert load_journal(path).heartbeats == []
