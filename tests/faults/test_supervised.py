"""Supervision suite: retry, quarantine, interrupt/resume.

The journal's durability contract lives in test_checkpoint.py; this
file covers the supervising layer wrapped around it:

* bounded retry with exponential backoff on journaled runs (injected
  fake sleep asserts the exact wait sequence), and fail-fast without a
  journal,
* quarantine of cells that exhaust the budget — the batch completes
  with coverage annotated instead of aborting, on both the in-process
  and the process-pool paths,
* SIGTERM or Ctrl-C mid-campaign -> `CampaignInterrupted` naming the
  journal (or none), then a resume that completes the batch with
  identical scorecards; Ctrl-C during the chaos recovery replay
  resumes by running only the replay cells the journal lacks, to
  identical stdout,
* `CampaignRunner.execute` on a journaled executor emitting the same trace
  and scorecards as the plain `CampaignRunner.run` path,
* `run_chaos` retrying then quarantining exactly when it has a
  checkpoint journal, and failing fast without one,
* the chaos report's coverage annotation.
"""

import dataclasses
import os
import signal

import pytest

from repro.cli import main
from repro.errors import FaultInjectionError
from repro.experiments import chaos
from repro.experiments.chaos import (
    RECOVERY_CAMPAIGNS,
    RecoveryCellSpec,
    chaos_report,
    run_chaos,
    run_recovery_cell,
)
from repro.experiments.harness import RUNTIMES
from repro.faults import campaigns
from repro.faults.campaigns import run_campaign_cell
from repro.faults.checkpoint import CheckpointJournal, load_journal
from repro.faults.executor import CampaignExecutor, CampaignInterrupted
from repro.telemetry.tracer import Tracer, tracing
from tests.faults.test_checkpoint import (
    HEADER,
    _generator,
    _runner,
    _specs,
)

POOL_TIMEOUT = 180.0


# ----------------------------------------------------------------------
# Runners (module-level where the process pool needs to pickle them)
# ----------------------------------------------------------------------

def _fail_dhalion(spec):
    """Poison exactly the dhalion cells; everything else is real."""
    if spec.controller == "dhalion":
        raise ValueError("injected poison")
    return run_campaign_cell(spec)


class _Flaky:
    """Fail the first ``failures`` attempts of selected cells.

    In-process only (carries mutable state), which is exactly where the
    backoff sequence is observable through an injected sleep.
    """

    def __init__(self, failures_by_key):
        self.failures = dict(failures_by_key)
        self.attempts = {}

    def __call__(self, spec):
        count = self.attempts.get(spec.key, 0) + 1
        self.attempts[spec.key] = count
        if count <= self.failures.get(spec.key, 0):
            raise RuntimeError(f"flaky attempt {count}")
        return run_campaign_cell(spec)


class _TerminateAt:
    """Deliver SIGTERM to ourselves when a specific cell comes up."""

    def __init__(self, key):
        self.key = key

    def __call__(self, spec):
        if spec.key == self.key:
            os.kill(os.getpid(), signal.SIGTERM)
        return run_campaign_cell(spec)


class _InterruptAt:
    """Raise KeyboardInterrupt (Ctrl-C) when a specific cell comes up."""

    def __init__(self, key):
        self.key = key

    def __call__(self, spec):
        if spec.key == self.key:
            raise KeyboardInterrupt()
        return run_campaign_cell(spec)


class _InterruptReplayAt:
    """Raise KeyboardInterrupt when a specific replay cell comes up."""

    def __init__(self, key):
        self.key = key

    def __call__(self, spec):
        if spec.key == self.key:
            raise KeyboardInterrupt()
        return run_recovery_cell(spec)


class _RecordReplay:
    """Run replay cells for real, noting each key that runs."""

    def __init__(self):
        self.keys = []

    def __call__(self, spec):
        self.keys.append(spec.key)
        return run_recovery_cell(spec)


def _journal(tmp_path):
    """A fresh journal: a journaled executor retries, then
    quarantines."""
    return CheckpointJournal.open(str(tmp_path / "cells.ckpt"), HEADER)


class TestRetryPolicy:
    def test_executor_rejects_bad_limits(self):
        with pytest.raises(FaultInjectionError, match="jobs"):
            CampaignExecutor(jobs=0)

    def test_without_journal_first_failure_aborts(self):
        specs = _specs(campaigns=1)
        flaky = _Flaky({specs[0].key: 1})
        sleeps = []
        executor = CampaignExecutor(runner=flaky, sleep=sleeps.append)
        with pytest.raises(FaultInjectionError, match="flaky attempt 1"):
            executor.execute(specs)
        assert flaky.attempts == {specs[0].key: 1}
        assert sleeps == []


class TestRetryAndQuarantine:
    def test_flaky_cell_retried_with_exact_backoff(self, tmp_path):
        specs = _specs(campaigns=1)
        flaky = _Flaky({specs[0].key: 2})
        sleeps = []
        with _journal(tmp_path) as journal:
            supervisor = CampaignExecutor(
                runner=flaky, journal=journal, sleep=sleeps.append
            )
            outcome = supervisor.execute(specs)
        assert outcome.coverage.complete
        assert sleeps == [0.25, 0.5]
        assert flaky.attempts[specs[0].key] == 3
        # Retries re-run the same deterministic cell, so the batch
        # still matches an unsupervised run exactly.
        assert outcome.scorecards == CampaignExecutor().run_cells(specs)

    def test_poison_cell_quarantined_serially(self, tmp_path):
        specs = _specs(campaigns=1)
        sleeps = []
        with _journal(tmp_path) as journal:
            supervisor = CampaignExecutor(
                runner=_fail_dhalion, journal=journal, sleep=sleeps.append
            )
            outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        assert not cov.complete
        (cell,) = cov.quarantined_cells
        assert cell.key == next(
            s.key for s in specs if s.controller == "dhalion"
        )
        assert cell.attempts == 3
        assert "ValueError: injected poison" in cell.error
        assert "injected poison" in cell.traceback
        # One backoff between rounds, none after the last.
        assert sleeps == [0.25, 0.5]
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)

    def test_run_cells_contract_turns_quarantine_into_error(
        self, tmp_path
    ):
        specs = _specs(campaigns=1)
        with _journal(tmp_path) as journal:
            supervisor = CampaignExecutor(
                runner=_fail_dhalion,
                journal=journal,
                sleep=lambda _: None,
            )
            with pytest.raises(
                FaultInjectionError, match="retry budget.*dhalion"
            ):
                supervisor.run_cells(specs)

    def test_poison_cell_quarantined_on_pool(self, monkeypatch, tmp_path):
        specs = _specs(campaigns=1)
        guarded = []
        check = CampaignExecutor._ensure_submittable

        def counting_check(batch, indices):
            guarded.append(list(indices))
            check(batch, indices)

        monkeypatch.setattr(
            CampaignExecutor,
            "_ensure_submittable",
            staticmethod(counting_check),
        )
        with _journal(tmp_path) as journal:
            supervisor = CampaignExecutor(
                jobs=2,
                runner=_fail_dhalion,
                journal=journal,
                sleep=lambda _: None,
                pool_timeout=POOL_TIMEOUT,
            )
            outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        (cell,) = cov.quarantined_cells
        assert cell.attempts == 3
        assert "ValueError: injected poison" in cell.error
        # The pickle guard runs once per batch, not once per round.
        assert guarded == [[0, 1, 2]]
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)


class TestInterruptAndResume:
    def test_sigterm_drains_then_resume_completes(self, tmp_path):
        path = str(tmp_path / "chaos.ckpt")
        specs = _specs(campaigns=2)
        assert len(specs) == 6
        with CheckpointJournal.open(path, HEADER) as journal:
            supervisor = CampaignExecutor(
                runner=_TerminateAt(specs[3].key), journal=journal
            )
            with pytest.raises(CampaignInterrupted) as caught:
                supervisor.execute(specs)
        interrupted = caught.value
        assert interrupted.completed == 3
        assert interrupted.cells == 6
        assert interrupted.path == path
        assert path in str(interrupted)

        with CheckpointJournal.open(
            path, HEADER, resume=True
        ) as journal:
            outcome = CampaignExecutor(journal=journal).execute(
                specs
            )
        assert outcome.resumed == 3
        assert outcome.coverage.complete
        assert outcome.scorecards == CampaignExecutor().run_cells(specs)

    def test_interrupt_without_journal_says_cells_are_lost(self):
        specs = _specs(campaigns=1)
        supervisor = CampaignExecutor(
            runner=_TerminateAt(specs[1].key)
        )
        with pytest.raises(CampaignInterrupted) as caught:
            supervisor.execute(specs)
        assert caught.value.path is None
        assert "no checkpoint" in str(caught.value)

    def test_keyboard_interrupt_without_journal(self):
        """One interrupt path: an unjournaled fail-fast run stopped by
        Ctrl-C raises CampaignInterrupted (the CLI exits 130)."""
        specs = _specs(campaigns=1)
        executor = CampaignExecutor(runner=_InterruptAt(specs[1].key))
        with pytest.raises(CampaignInterrupted) as caught:
            executor.execute(specs)
        interrupted = caught.value
        assert interrupted.path is None
        assert (interrupted.completed, interrupted.cells) == (1, 3)
        assert "no checkpoint" in str(interrupted)


    def test_interrupt_during_recovery_replay_resumes_identically(
        self, tmp_path, capsys, monkeypatch
    ):
        """Ctrl-C while the replay cells run: the replay cells finished
        so far are journaled like campaign cells, so the CLI names the
        journal and prints the resume command, and the resumed run
        runs only the replay cells the journal lacks and prints
        exactly what an uninterrupted run prints."""
        args = [
            "run", "chaos", "--profile", "smoke", "--seeds", "2",
            "--scale", "0.5",
        ]
        assert main(args + ["--checkpoint", str(tmp_path / "ref")]) == 0
        expected = capsys.readouterr().out
        assert "Crash-recovery outage per runtime" in expected

        path = str(tmp_path / "chaos.ckpt")
        replay_cell = RecoveryCellSpec(
            seed=1, campaign=1, runtime="timely", tick=2.0
        )
        monkeypatch.setattr(
            chaos, "run_recovery_cell", _InterruptReplayAt(replay_cell.key)
        )
        assert main(args + ["--checkpoint", path]) == 130
        err = capsys.readouterr().err
        assert repr(path) in err
        assert f"--checkpoint {path} --resume" in err
        journaled = set(load_journal(path).cells)

        replayed = _RecordReplay()
        monkeypatch.setattr(chaos, "run_recovery_cell", replayed)
        assert main(args + ["--checkpoint", path, "--resume"]) == 0
        assert capsys.readouterr().out == expected
        replay_keys = [
            RecoveryCellSpec(
                seed=1, campaign=campaign, runtime=runtime, tick=2.0
            ).key
            for runtime in RUNTIMES
            for campaign in range(RECOVERY_CAMPAIGNS)
        ]
        # Runtime-major order: flink's five cells and timely's first
        # were journaled before the interrupt.
        assert replayed.keys == replay_keys[6:]
        assert journaled.isdisjoint(replayed.keys)
        assert set(replay_keys[:6]) <= journaled


class TestSupervisedCampaignDriver:
    def test_matches_plain_campaign_runner_trace(self, tmp_path):
        runner = _runner()
        plain_tracer = Tracer()
        with tracing(plain_tracer):
            plain = runner.run(_generator(), 2)
        supervised_tracer = Tracer()
        with tracing(supervised_tracer), _journal(tmp_path) as journal:
            outcome = runner.execute(
                _generator(),
                2,
                executor=CampaignExecutor(journal=journal),
            )
        assert outcome.scorecards == plain
        assert outcome.coverage.complete
        assert (
            supervised_tracer.to_jsonl() == plain_tracer.to_jsonl()
        )

    def test_quarantine_traced_instead_of_aborting(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer), _journal(tmp_path) as journal:
            outcome = _runner().execute(
                _generator(),
                1,
                executor=CampaignExecutor(
                    runner=_fail_dhalion,
                    journal=journal,
                    sleep=lambda _: None,
                ),
            )
        assert outcome.coverage.quarantined == 1
        (event,) = tracer.events("campaign.quarantine")
        assert event.data["controller"] == "dhalion"
        assert "injected poison" in event.data["error"]
        assert len(tracer.events("campaign.cell")) == 2
        assert len(tracer.events("campaign.end")) == 1


class TestRetryIffJournal:
    def test_without_checkpoint_first_failure_aborts(self, monkeypatch):
        monkeypatch.setattr(campaigns, "run_campaign_cell", _fail_dhalion)
        with pytest.raises(FaultInjectionError, match="injected poison"):
            run_chaos(
                profile="smoke",
                campaigns=1,
                tick=2.0,
                include_recovery=False,
            )

    def test_with_checkpoint_retries_then_quarantines(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(campaigns, "run_campaign_cell", _fail_dhalion)
        result = run_chaos(
            profile="smoke",
            campaigns=1,
            tick=2.0,
            include_recovery=False,
            checkpoint=str(tmp_path / "chaos.ckpt"),
        )
        coverage = result.coverage
        assert (coverage.completed, coverage.quarantined) == (2, 1)
        (cell,) = coverage.quarantined_cells
        assert cell.key == (1, 0, "dhalion")
        assert cell.attempts == 3


class TestChaosReportCoverage:
    def test_report_annotates_coverage_and_quarantine(self, tmp_path):
        result = run_chaos(
            profile="smoke",
            campaigns=1,
            tick=2.0,
            include_recovery=False,
            checkpoint=str(tmp_path / "chaos.ckpt"),
        )
        report = chaos_report(result)
        assert "Coverage: 3/3 cells completed, 0 quarantined" in report

        quarantined = dataclasses.replace(
            result,
            coverage=dataclasses.replace(
                result.coverage,
                completed=2,
                quarantined=1,
                quarantined_cells=(
                    dataclasses.replace(
                        result.coverage.quarantined_cells[0]
                        if result.coverage.quarantined_cells
                        else _quarantined_stub(),
                        attempts=3,
                    ),
                ),
            ),
        )
        report = chaos_report(quarantined)
        assert "Coverage: 2/3 cells completed, 1 quarantined" in report
        assert (
            "quarantined (seed=1, campaign=0, controller='dhalion') "
            "after 3 attempt(s): ValueError: injected poison"
        ) in report


def _quarantined_stub():
    from repro.faults.executor import QuarantinedCell

    return QuarantinedCell(
        key=(1, 0, "dhalion"),
        attempts=3,
        error="ValueError: injected poison",
    )
