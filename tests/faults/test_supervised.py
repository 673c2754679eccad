"""Supervision suite: retry, quarantine, timeouts, interrupt/resume.

The journal's durability contract lives in test_checkpoint.py; this
file covers the supervising layer wrapped around it:

* bounded retry with capped exponential backoff (injected fake sleep
  asserts the exact wait sequence),
* quarantine of cells that exhaust the budget — the batch completes
  with coverage annotated instead of aborting, on both the in-process
  and the process-pool paths,
* per-cell SIGALRM wall-clock deadlines,
* SIGTERM or Ctrl-C mid-campaign -> `CampaignInterrupted` naming the
  journal (or none), then a resume that completes the batch with
  identical scorecards,
* a warning when `cell_timeout` cannot be enforced,
* `CampaignRunner.execute` with a retry policy emitting the same trace
  and scorecards as the plain `CampaignRunner.run` path,
* the chaos report's coverage annotation.
"""

import dataclasses
import os
import signal
import threading
import time
import warnings

import pytest

from repro.errors import FaultInjectionError
from repro.experiments.chaos import chaos_report, run_chaos
from repro.faults.campaigns import run_campaign_cell
from repro.faults.checkpoint import CheckpointJournal
from repro.faults.executor import (
    CampaignExecutor,
    CampaignInterrupted,
    CellRetryPolicy,
)
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


def _sleep_forever(spec):
    time.sleep(30.0)
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


class TestRetryPolicy:
    def test_backoff_sequence_is_capped_exponential(self):
        policy = CellRetryPolicy()
        waits = [policy.backoff_seconds(n) for n in range(1, 7)]
        assert waits == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base": 0.5}, "backoff_base"),
            ({"initial_backoff_seconds": 0.0}, "initial_backoff"),
            (
                {
                    "initial_backoff_seconds": 2.0,
                    "max_backoff_seconds": 1.0,
                },
                "max_backoff",
            ),
        ],
    )
    def test_invalid_policy_rejected(self, kwargs, match):
        with pytest.raises(FaultInjectionError, match=match):
            CellRetryPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(FaultInjectionError, match="attempt"):
            CellRetryPolicy().backoff_seconds(0)

    def test_executor_rejects_bad_limits(self):
        with pytest.raises(FaultInjectionError, match="jobs"):
            CampaignExecutor(jobs=0)
        with pytest.raises(FaultInjectionError, match="cell_timeout"):
            CampaignExecutor(cell_timeout=0.0)


class TestRetryAndQuarantine:
    def test_flaky_cell_retried_with_exact_backoff(self):
        specs = _specs(campaigns=1)
        flaky = _Flaky({specs[0].key: 2})
        sleeps = []
        supervisor = CampaignExecutor(
            runner=flaky, retry=CellRetryPolicy(), sleep=sleeps.append
        )
        outcome = supervisor.execute(specs)
        assert outcome.coverage.complete
        assert sleeps == [0.25, 0.5]
        assert flaky.attempts[specs[0].key] == 3
        # Retries re-run the same deterministic cell, so the batch
        # still matches an unsupervised run exactly.
        assert outcome.scorecards == CampaignExecutor().run_cells(specs)

    def test_poison_cell_quarantined_serially(self):
        specs = _specs(campaigns=1)
        sleeps = []
        supervisor = CampaignExecutor(
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=2),
            sleep=sleeps.append,
        )
        outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        assert not cov.complete
        (cell,) = cov.quarantined_cells
        assert cell.key == next(
            s.key for s in specs if s.controller == "dhalion"
        )
        assert cell.attempts == 2
        assert "ValueError: injected poison" in cell.error
        assert "injected poison" in cell.traceback
        # One backoff between the two rounds, none after the last.
        assert sleeps == [0.25]
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)

    def test_run_cells_contract_turns_quarantine_into_error(self):
        specs = _specs(campaigns=1)
        supervisor = CampaignExecutor(
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=1),
            sleep=lambda _: None,
        )
        with pytest.raises(
            FaultInjectionError, match="retry budget.*dhalion"
        ):
            supervisor.run_cells(specs)

    def test_poison_cell_quarantined_on_pool(self, monkeypatch):
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
        supervisor = CampaignExecutor(
            jobs=2,
            runner=_fail_dhalion,
            retry=CellRetryPolicy(max_attempts=2),
            sleep=lambda _: None,
            pool_timeout=POOL_TIMEOUT,
        )
        outcome = supervisor.execute(specs)
        cov = outcome.coverage
        assert (cov.cells, cov.completed, cov.quarantined) == (3, 2, 1)
        (cell,) = cov.quarantined_cells
        assert cell.attempts == 2
        assert "ValueError: injected poison" in cell.error
        # The pickle guard runs once per batch, not once per round.
        assert guarded == [[0, 1, 2]]
        good = [s for s in specs if s.controller != "dhalion"]
        assert outcome.scorecards == CampaignExecutor().run_cells(good)


class TestCellTimeout:
    def test_over_budget_cell_is_a_failed_attempt(self):
        specs = _specs(campaigns=1)[:1]
        supervisor = CampaignExecutor(
            runner=_sleep_forever,
            retry=CellRetryPolicy(max_attempts=1),
            cell_timeout=0.2,
            sleep=lambda _: None,
        )
        start = time.monotonic()  # repro: allow[REPRO101] — test timeout guard
        with warnings.catch_warnings():
            # Enforceable on the main thread: no "not enforced" warning.
            warnings.simplefilter("error", RuntimeWarning)
            outcome = supervisor.execute(specs)
        assert time.monotonic() - start < 10.0  # repro: allow[REPRO101]
        (cell,) = outcome.coverage.quarantined_cells
        assert cell.error == "cell exceeded its 0.2s timeout"

    def test_timeout_off_main_thread_warns_once(self):
        specs = _specs(campaigns=1)
        seen = []
        outcomes = []

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes.append(
                    CampaignExecutor(cell_timeout=30.0).execute(specs)
                )
            seen.extend(caught)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=POOL_TIMEOUT)
        assert not thread.is_alive()
        (outcome,) = outcomes
        assert outcome.coverage.complete
        relevant = [
            w for w in seen if issubclass(w.category, RuntimeWarning)
        ]
        assert len(relevant) == 1
        message = str(relevant[0].message)
        assert "cell_timeout=30s is not enforced" in message
        assert "main thread" in message


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


class TestSupervisedCampaignDriver:
    def test_matches_plain_campaign_runner_trace(self):
        runner = _runner()
        plain_tracer = Tracer()
        with tracing(plain_tracer):
            plain = runner.run(_generator(), 2)
        supervised_tracer = Tracer()
        with tracing(supervised_tracer):
            outcome = runner.execute(
                _generator(),
                2,
                executor=CampaignExecutor(retry=CellRetryPolicy()),
            )
        assert outcome.scorecards == plain
        assert outcome.coverage.complete
        assert (
            supervised_tracer.to_jsonl() == plain_tracer.to_jsonl()
        )

    def test_quarantine_traced_instead_of_aborting(self):
        tracer = Tracer()
        with tracing(tracer):
            outcome = _runner().execute(
                _generator(),
                1,
                executor=CampaignExecutor(
                    runner=_fail_dhalion,
                    retry=CellRetryPolicy(max_attempts=1),
                    sleep=lambda _: None,
                ),
            )
        assert outcome.coverage.quarantined == 1
        (event,) = tracer.events("campaign.quarantine")
        assert event.data["controller"] == "dhalion"
        assert "injected poison" in event.data["error"]
        assert len(tracer.events("campaign.cell")) == 2
        assert len(tracer.events("campaign.end")) == 1


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
