"""Checkpoint journal suite: durability, corruption, kill-and-resume.

The crash-safety contract has two halves, both tested here:

* The journal itself — every completed cell is durably recorded and
  round-trips losslessly; a torn final record (crash mid-append) is
  recovered with a warning; mid-file corruption, schema-version
  mismatches, header mismatches, and spec-hash mismatches are rejected
  with `CheckpointError` rather than half-trusted.
* The resume equivalence gate — a `repro run chaos --checkpoint` run
  hard-killed (SIGKILL) mid-campaign and resumed with `--resume` must
  print stdout byte-identical to an uninterrupted run, serially and on
  a process pool. `scripts/check.sh` runs the `kill_and_resume` tests
  as a dedicated stage.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import CheckpointError, FaultInjectionError
from repro.experiments.chaos import resolve_workload
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointJournal,
    JournalHeader,
    cell_fingerprint,
    scorecard_from_payload,
    scorecard_to_payload,
)
from repro.faults.executor import CampaignExecutor
from repro.telemetry.registry import MetricsRegistry, metering
from repro.workloads.wordcount import heron_wordcount_graph

POOL_TIMEOUT = 180.0

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


class TestScorecardRoundTrip:
    def test_real_cells_round_trip_exactly(self):
        from repro.faults.campaigns import run_campaign_cell

        for spec in _specs(campaigns=1):
            card = run_campaign_cell(spec)
            payload = json.loads(json.dumps(scorecard_to_payload(card)))
            assert scorecard_from_payload(payload) == card

    def test_audit_free_card_round_trips(self):
        from repro.faults.campaigns import SasoScorecard

        card = SasoScorecard(
            controller="x", campaign=0, schedule_seed=1,
            oscillations=0, steady_state_error=0.1,
            settling_epochs=2, overshoot_ratio=1.0,
            downtime_fraction=0.0, recovery_seconds=0.0,
            scaling_actions=1, failed_rescales=0, audit=None,
        )
        assert scorecard_from_payload(
            scorecard_to_payload(card)
        ) == card

    def test_malformed_payload_raises(self):
        with pytest.raises(CheckpointError, match="malformed"):
            scorecard_from_payload({"controller": "x"})


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
                journal.record_cell(spec, card, {"metrics": []})
        resumed = CheckpointJournal.open(path, HEADER, resume=True)
        matched = resumed.match(specs)
        assert sorted(matched) == [0, 1, 2]
        assert _cards_as_dicts(
            [matched[i].scorecard for i in range(3)]
        ) == _cards_as_dicts(cards)
        assert resumed.warnings == []
        resumed.close()

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
            journal.record_cell(
                spec, run_campaign_cell(spec), {"metrics": []}
            )
    return path, specs


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
    compared against a plain serial run. Telemetry includes wall-clock
    histograms (engine step timing), so cross-execution byte equality
    is only demanded where it must hold: a *full* resume replays the
    journaled per-cell snapshots, whose canonical fold must reproduce
    the original run's registry exactly.
    """

    def _plain_cards(self, specs):
        return CampaignExecutor().run_cells(specs)

    def _journaled_run(self, path, specs, make_backend, resume=False):
        journal = CheckpointJournal.open(path, HEADER, resume=resume)
        registry = MetricsRegistry()
        try:
            with metering(registry):
                cards = make_backend(journal).run_cells(specs)
        finally:
            journal.close()
        return cards, registry.render_text()

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
        cards, metrics = self._journaled_run(
            path, specs, make_backend
        )
        assert _cards_as_dicts(cards) == _cards_as_dicts(plain_cards)
        # Full resume: every cell comes from the journal; the merged
        # registry must be byte-identical to the original run's.
        resumed_cards, resumed_metrics = self._journaled_run(
            path, specs, make_backend, resume=True
        )
        assert _cards_as_dicts(resumed_cards) == _cards_as_dicts(cards)
        assert resumed_metrics == metrics

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


def _kill_mid_campaign(checkpoint, jobs_args):
    """Start a checkpointed run, SIGKILL it once >= 2 cells landed."""
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
    if process.poll() is None:
        process.kill()
        process.wait(timeout=60)


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
    _kill_mid_campaign(killed, jobs_args)
    assert os.path.exists(killed)
    resumed = _run_cli(
        jobs_args + ["--checkpoint", killed, "--resume"]
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
    assert "Coverage: 9/9 cells completed" in resumed.stdout


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
