"""Tests for the command-line interface."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.artifacts import ARTIFACTS
from repro.faults.executor import CampaignInterrupted
from repro.records import to_json

FIXTURES = Path(__file__).parent / "analysis" / "fixtures"
SWEEP_SPEC = Path(__file__).parent / "sweeps" / "smoke_grid.toml"


class TestParser:
    def test_help_without_command(self, capsys):
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "repro" in out

    def test_list_queries(self, capsys):
        assert main(["list-queries"]) == 0
        out = capsys.readouterr().out
        for name in ("Q1", "Q5", "Q11"):
            assert name in out
        for name in ("Q4", "Q9"):
            assert name not in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for entry in ARTIFACTS.values():
            assert entry.id in out
            assert entry.description in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_scale_argument_parsed(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig7", "--scale", "0.25"])
        assert args.experiment == "fig7"
        assert args.scale == 0.25

    def test_faults_argument_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "faults",
            "--faults", "crash@600:flatmap",
            "--fault-seed", "7",
        ])
        assert args.experiment == "faults"
        assert args.faults == "crash@600:flatmap"
        assert args.fault_seed == 7

    def test_faults_rejected_for_other_experiments(self, capsys):
        assert main(["run", "fig6", "--faults", "crash@0:x"]) == 2
        assert "--faults" in capsys.readouterr().err

    def test_malformed_fault_spec_rejected(self, capsys):
        assert main(["run", "faults", "--faults", "nonsense"]) == 2
        assert "invalid fault spec" in capsys.readouterr().err

    def test_chaos_arguments_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "chaos",
            "--profile", "telemetry",
            "--seeds", "5",
            "--fault-seed", "3",
        ])
        assert args.experiment == "chaos"
        assert args.profile == "telemetry"
        assert args.seeds == 5
        assert args.fault_seed == 3

    def test_chaos_flags_rejected_for_other_experiments(self, capsys):
        assert main(["run", "fig6", "--profile", "mixed"]) == 2
        assert "--profile" in capsys.readouterr().err
        assert main(["run", "faults", "--seeds", "3"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_unknown_chaos_profile_rejected(self, capsys):
        assert main(["run", "chaos", "--profile", "volcano"]) == 2
        assert "invalid chaos campaign" in capsys.readouterr().err

    def test_jobs_and_workload_arguments_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "chaos",
            "--workload", "nexmark-q5",
            "--jobs", "4",
        ])
        assert args.experiment == "chaos"
        assert args.workload == "nexmark-q5"
        assert args.jobs == 4

    def test_jobs_and_workload_rejected_for_other_experiments(
        self, capsys
    ):
        assert main(["run", "fig6", "--workload", "nexmark-q5"]) == 2
        assert "--workload" in capsys.readouterr().err
        assert main(["run", "faults", "--jobs", "4"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, jobs, capsys):
        assert main(["run", "chaos", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "positive" in err

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_nonpositive_campaign_count_rejected(self, seeds, capsys):
        assert main([
            "run", "chaos", "--profile", "smoke", "--seeds", seeds,
        ]) == 2
        captured = capsys.readouterr()
        assert "invalid chaos campaign" in captured.err
        assert "at least 1 campaign" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig7", "--scale", "0"],
            ["run", "table4", "--scale", "-1"],
            ["run", "fig9", "--scale", "nan"],
            ["run", "fig6", "--scale", "inf"],
            ["run", "chaos", "--scale", "-0.5", "--seeds", "1"],
        ],
    )
    def test_invalid_scale_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "--scale must be a finite number > 0" in captured.err
        assert captured.out == ""

    def test_fault_seed_rejected_for_other_experiments(self, capsys):
        assert main(["run", "fig6", "--fault-seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "--fault-seed" in err
        assert "'faults' and 'chaos'" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig6", "--scale", "1e-9"],
             "no source-rate samples captured"),
            (["run", "table4", "--scale", "1e308"],
             "duration must be finite"),
        ],
    )
    def test_experiment_error_is_one_line_exit_2(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"run {argv[1]} failed: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unknown_chaos_workload_rejected(self, capsys):
        assert main([
            "run", "chaos", "--workload", "volcano", "--seeds", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "invalid chaos campaign" in err
        assert "nexmark-q5" in err


class TestCheckpointCli:
    def test_checkpoint_arguments_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "chaos",
            "--checkpoint", "chaos.ckpt",
            "--resume",
        ])
        assert args.checkpoint == "chaos.ckpt"
        assert args.resume is True

    def test_checkpoint_rejected_for_other_experiments(self, capsys):
        assert main([
            "run", "fig6", "--checkpoint", "chaos.ckpt",
        ]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["run", "chaos", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint" in err

    def test_resume_of_missing_journal_rejected(self, capsys, tmp_path):
        missing = tmp_path / "nope.ckpt"
        assert main([
            "run", "chaos", "--checkpoint", str(missing), "--resume",
        ]) == 2
        err = capsys.readouterr().err
        assert "unusable checkpoint" in err
        assert "cannot resume" in err

    def test_corrupt_journal_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text('{"record": "header"}\nnot json\n{"x": 1}\n')
        assert main([
            "run", "chaos", "--checkpoint", str(path), "--resume",
        ]) == 2
        err = capsys.readouterr().err
        assert "unusable checkpoint" in err

    def test_fresh_run_refuses_existing_journal(self, capsys, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text('{"record": "header"}\n')
        assert main([
            "run", "chaos", "--checkpoint", str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert "unusable checkpoint" in err
        assert "--resume" in err

    @pytest.mark.slow
    def test_checkpointed_run_then_resume_is_identical(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "chaos.ckpt")
        argv = [
            "run", "chaos", "--profile", "smoke", "--seeds", "2",
            "--scale", "0.5", "--checkpoint", path,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Coverage: 6/6 cells completed, 0 quarantined" in first
        # Resuming a finished journal re-runs nothing and reprints
        # the identical report.
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestResumeCommand:
    """An interrupted journaled run prints a resume command that is the
    original command line, every flag kept and paths shell-quoted."""

    @staticmethod
    def _printed_command(err):
        line = next(
            line for line in err.splitlines()
            if line.startswith("resume with: ")
        )
        words = shlex.split(line[len("resume with: "):])
        assert words[:3] == ["python", "-m", "repro"]
        return build_parser().parse_args(words[3:])

    @staticmethod
    def _interrupt(checkpoint):
        def interrupted(*args, **kwargs):
            raise CampaignInterrupted(
                "interrupted", completed=1, cells=2, path=checkpoint
            )

        return interrupted

    def _interrupt_chaos(self, monkeypatch, checkpoint):
        monkeypatch.setitem(
            ARTIFACTS, "chaos",
            dataclasses.replace(
                ARTIFACTS["chaos"], run=self._interrupt(checkpoint)
            ),
        )

    def test_sweep_resume_keeps_format(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.sweeps

        checkpoint = str(tmp_path / "sweep journal.jsonl")
        monkeypatch.setattr(
            repro.sweeps, "run_sweep", self._interrupt(checkpoint)
        )
        assert main([
            "sweep", "run", "--spec", str(SWEEP_SPEC),
            "--format", "json", "--jobs", "2",
            "--checkpoint", checkpoint,
        ]) == 130
        args = self._printed_command(capsys.readouterr().err)
        assert args.command == "sweep"
        assert args.spec == str(SWEEP_SPEC)
        assert args.format == "json"
        assert args.jobs == 2
        assert args.checkpoint == checkpoint
        assert args.resume is True

    def test_chaos_resume_keeps_telemetry_flags(
        self, capsys, monkeypatch, tmp_path
    ):
        out_dir = tmp_path / "run output"
        checkpoint = str(out_dir / "chaos.ckpt")
        trace = str(out_dir / "trace.jsonl")
        spans = str(out_dir / "spans.json")
        self._interrupt_chaos(monkeypatch, checkpoint)
        assert main([
            "run", "chaos", "--profile", "smoke", "--seeds", "2",
            "--trace", trace, "--spans", spans,
            "--checkpoint", checkpoint,
        ]) == 130
        args = self._printed_command(capsys.readouterr().err)
        assert args.experiment == "chaos"
        assert args.profile == "smoke"
        assert args.seeds == 2
        assert args.trace == trace
        assert args.spans == spans
        assert args.checkpoint == checkpoint
        assert args.resume is True

    def test_resume_flag_is_not_repeated(
        self, capsys, monkeypatch, tmp_path
    ):
        checkpoint = str(tmp_path / "chaos.ckpt")
        self._interrupt_chaos(monkeypatch, checkpoint)
        assert main([
            "run", "chaos", "--checkpoint", checkpoint, "--resume",
        ]) == 130
        err = capsys.readouterr().err
        assert err.count("--resume") == 1


class TestLintCommand:
    def test_clean_file_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, capsys):
        path = FIXTURES / "wall_clock.py"
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO101" in out
        assert "wall_clock.py" in out

    def test_default_paths_lint_the_package(self, capsys):
        # No paths -> lint the installed repro tree, which ships clean.
        assert main(["lint"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_json_format(self, capsys):
        path = FIXTURES / "id_ordering.py"
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] > 0
        assert {
            d["code"] for d in payload["diagnostics"]
        } == {"REPRO105"}

    def test_select_and_ignore(self, capsys):
        path = str(FIXTURES / "unseeded_rng.py")
        assert main(["lint", "--select", "REPRO101", path]) == 0
        capsys.readouterr()
        assert main(["lint", "--ignore", "unseeded-rng", path]) == 0

    def test_unknown_rule_is_usage_error(self, capsys):
        path = str(FIXTURES / "clean.py")
        assert main(["lint", "--select", "REPRO999", path]) == 2
        assert "REPRO999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/here.py"]) == 2
        assert capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "REPRO100",
            "REPRO101",
            "REPRO102",
            "REPRO103",
            "REPRO104",
            "REPRO105",
            "REPRO501",
        ):
            assert code in out
        for retired in ("REPRO2", "REPRO3", "REPRO4"):
            assert retired not in out

    def test_stale_allow_warnings_do_not_fail_the_run(self, capsys):
        path = FIXTURES / "stale_allow.py"
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REPRO501" in out
        assert "warning" in out


class TestCommands:
    def test_decide_prints_optimum(self, capsys):
        assert main(["decide"]) == 0
        out = capsys.readouterr().out
        assert "flatmap" in out and "10" in out
        assert "count" in out and "20" in out

    @pytest.mark.slow
    def test_run_skew_scaled_down(self, capsys):
        assert main(["run", "skew", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "50%" in out
        assert "no-skew optimum" in out

    @pytest.mark.slow
    def test_run_chaos_smoke_profile(self, capsys):
        assert main([
            "run", "chaos", "--profile", "smoke", "--seeds", "2",
            "--scale", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chaos campaign 'smoke'" in out
        assert "Crash-recovery outage per runtime" in out
        for runtime in ("flink", "timely", "heron"):
            assert runtime in out

    @pytest.mark.slow
    def test_run_chaos_nexmark_workload_with_jobs(self, capsys):
        assert main([
            "run", "chaos", "--profile", "smoke", "--seeds", "1",
            "--workload", "nexmark-q5", "--jobs", "2",
            "--scale", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chaos campaign 'smoke' on 'nexmark-q5'" in out
        for controller in ("ds2", "ds2-legacy", "dhalion"):
            assert controller in out


@pytest.fixture(scope="module")
def faults_trace(tmp_path_factory):
    """One traced scaled-down faults run shared by the trace tests."""
    path = tmp_path_factory.mktemp("trace") / "faults.jsonl"
    assert main([
        "run", "fault_tolerance", "--scale", "0.3",
        "--trace", str(path),
    ]) == 0
    return path


class TestTelemetryCommands:
    def test_trace_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "faults", "--trace", "out.jsonl",
        ])
        assert args.trace == "out.jsonl"

    def test_run_has_no_metrics_dump_flag(self):
        # Tick counts live in the engine.tick span (--spans); rescales,
        # recoveries and decisions in the trace (--trace).
        args = build_parser().parse_args(["run", "faults"])
        assert not hasattr(args, "telemetry")

    @pytest.mark.slow
    def test_traced_run_writes_valid_jsonl(self, faults_trace, capsys):
        from repro.telemetry import read_trace

        records = read_trace(faults_trace)
        assert records
        # three controllers run back to back: three epochs
        epochs = [r for r in records if r["kind"] == "engine.start"]
        assert len(epochs) == 3

    @pytest.mark.slow
    def test_trace_summarize_text(self, faults_trace, capsys):
        assert main(["trace", "summarize", str(faults_trace)]) == 0
        out = capsys.readouterr().out
        assert "decisions:" in out
        assert "engine.start" in out

    @pytest.mark.slow
    def test_trace_summarize_json(self, faults_trace, capsys):
        assert main([
            "trace", "summarize", str(faults_trace),
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        assert payload["kinds"]["engine.start"] == 3
        assert payload["span"] >= 0

    @pytest.mark.slow
    def test_explain_from_trace(self, faults_trace, capsys):
        assert main(["explain", "--trace", str(faults_trace)]) == 0
        out = capsys.readouterr().out
        assert "decision at t=" in out
        assert "controller=" in out

    @pytest.mark.slow
    def test_explain_index_out_of_range(self, faults_trace, capsys):
        assert main([
            "explain", "--trace", str(faults_trace),
            "--index", "9999",
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_explain_without_trace_renders_oneshot(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "decision at t=" in out
        assert "operator" in out
        assert "optimal" in out

    def test_explain_trace_without_audits(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(
            '{"data":{},"kind":"engine.start","seq":0,"t":0.0}\n'
        )
        assert main(["explain", "--trace", str(path)]) == 2
        assert "no controller.audit" in capsys.readouterr().err

    def test_explain_invalid_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["explain", "--trace", str(path)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_explain_refuses_a_malformed_audit(self, tmp_path, capsys):
        """An audit value of the wrong type is refused before anything
        is printed, not carried into the renderer."""
        from repro.telemetry import DecisionAudit, OperatorAudit

        audit = DecisionAudit(
            time=5.0, controller="ds2", window_start=0.0,
            window_end=5.0, window_age=0.0, outage_fraction=0.0,
            truncated=False, in_outage=False, degraded=False,
            rate_compensation=1.0, completeness={},
            source_target_rates={}, source_observed_rates={},
            current_parallelism={"worker": 1},
            operators=(
                OperatorAudit(
                    operator="worker", current_parallelism=1,
                    target_rate=1000.0, true_processing_rate=950.0,
                    true_output_rate=950.0, selectivity=1.0,
                    ideal_output_rate=1000.0,
                    optimal_parallelism_raw=1.05, optimal_parallelism=2,
                ),
            ),
        )
        payload = to_json(audit)
        payload["operators"][0]["target_rate"] = "fast"
        record = {
            "seq": 0, "t": 5.0, "kind": "controller.audit",
            "data": {"audit": payload},
        }
        path = tmp_path / "bad_audit.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["explain", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid trace: audits[0].operators[0].target_rate: "
            "expected a number, got 'fast'\n"
        )

    def test_trace_without_subcommand(self, capsys):
        assert main(["trace"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_summarize_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "summarize", str(missing)]) == 2
        assert "invalid trace" in capsys.readouterr().err


class TestProgressCli:
    def test_progress_flags_parsed(self):
        parser = build_parser()
        args = parser.parse_args(["run", "chaos", "--progress"])
        assert args.progress is True
        args = parser.parse_args([
            "run", "chaos", "--progress", "--no-progress",
        ])
        assert args.progress is False
        args = parser.parse_args(["run", "chaos"])
        assert args.progress is False

    def test_progress_rejected_for_other_experiments(self, capsys):
        assert main(["run", "fig6", "--progress"]) == 2
        assert "--progress" in capsys.readouterr().err

    @pytest.mark.slow
    def test_progress_writes_stderr_only(self, capsys):
        argv = [
            "run", "chaos", "--profile", "smoke", "--seeds", "1",
            "--scale", "0.5",
        ]
        assert main(argv) == 0
        silent = capsys.readouterr()
        assert main(argv + ["--progress"]) == 0
        noisy = capsys.readouterr()
        # stdout (the golden report) is byte-identical; the live
        # progress stream rides on stderr.
        assert noisy.out == silent.out
        assert "done seed=1" in noisy.err


class TestSpansCli:
    def test_spans_argument_parsed(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "chaos", "--spans", "spans.json",
        ])
        assert args.spans == "spans.json"

    @pytest.mark.slow
    def test_spans_file_written(self, capsys, tmp_path):
        spans = tmp_path / "spans.json"
        assert main([
            "run", "chaos", "--profile", "smoke", "--seeds", "1",
            "--scale", "0.5", "--spans", str(spans),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote span profile to {spans}" in out
        payload = json.loads(spans.read_text())
        names = {c["name"] for c in payload["children"]}
        assert "engine.tick" in names
        assert "controller.decide" in names

    @pytest.mark.slow
    def test_spans_do_not_change_report(self, capsys, tmp_path):
        argv = [
            "run", "chaos", "--profile", "smoke", "--seeds", "1",
            "--scale", "0.5",
        ]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        spans = tmp_path / "spans.json"
        assert main(argv + ["--spans", str(spans)]) == 0
        profiled = capsys.readouterr().out
        assert profiled.replace(
            f"wrote span profile to {spans}\n", ""
        ) == bare


class TestReportCommand:
    GOLDEN_JOURNAL = str(
        Path(__file__).parent / "reports" / "smoke_checkpoint.jsonl"
    )

    def test_report_text(self, capsys):
        assert main([
            "report", "--checkpoint", self.GOLDEN_JOURNAL,
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos run report" in out
        assert "cells: 6/6 completed" in out

    def test_report_json_matches_golden(self, capsys):
        assert main([
            "report", "--checkpoint", self.GOLDEN_JOURNAL,
            "--format", "json",
        ]) == 0
        out = capsys.readouterr().out
        golden = (
            Path(__file__).parent / "reports" / "golden_report.json"
        ).read_text()
        assert out == golden

    def test_report_markdown(self, capsys):
        assert main([
            "report", "--checkpoint", self.GOLDEN_JOURNAL,
            "--format", "markdown",
        ]) == 0
        assert "# Chaos run report" in capsys.readouterr().out

    def test_report_with_trace(self, capsys):
        trace = str(
            Path(__file__).parent / "telemetry" / "golden_trace.jsonl"
        )
        assert main([
            "report", "--checkpoint", self.GOLDEN_JOURNAL,
            "--trace", trace,
        ]) == 0
        assert "trace:" in capsys.readouterr().out

    def test_missing_journal_is_exit_2(self, capsys, tmp_path):
        assert main([
            "report", "--checkpoint", str(tmp_path / "nope.jsonl"),
        ]) == 2
        err = capsys.readouterr().err
        assert "unusable checkpoint" in err or "cannot read" in err

    def test_invalid_trace_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([
            "report", "--checkpoint", self.GOLDEN_JOURNAL,
            "--trace", str(bad),
        ]) == 2
        assert "invalid trace" in capsys.readouterr().err


def test_import_loads_no_numpy():
    """Start-up imports no third-party numerics: the engine is plain
    Python."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _modules_loaded_by(code):
    """The modules that ``code`` adds to ``sys.modules`` when run in a
    fresh interpreter (whatever the interpreter itself loads at start-up
    is left out), from the last line of its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _repro_modules(modules):
    return [name for name in modules if name.split(".")[0] == "repro"]


def test_import_budget_cli():
    """Importing the CLI loads its argument parser, not the code behind
    its commands: no fault or campaign code, no run reports, and none
    of the pool and logging machinery they pull in."""
    loaded = _modules_loaded_by("import repro.cli")
    unwanted = [
        name for name in loaded
        if name.startswith("repro.faults")
        or name in (
            "repro.telemetry.reports", "concurrent.futures", "logging"
        )
    ]
    assert unwanted == []
    assert len(_repro_modules(loaded)) <= 12, _repro_modules(loaded)


def test_import_budget_table4():
    """A fault-free experiment loads none of the campaign executor,
    campaigns or checkpoint journal."""
    loaded = _modules_loaded_by(
        "from repro.cli import main\n"
        "assert main(['run', 'table4', '--scale', '0.1']) == 0"
    )
    unwanted = [
        name for name in loaded
        if name in (
            "repro.faults.executor",
            "repro.faults.campaigns",
            "repro.faults.checkpoint",
        )
    ]
    assert unwanted == []
    assert len(_repro_modules(loaded)) <= 42, _repro_modules(loaded)


def test_import_budget_serial_chaos():
    """A serial chaos run without a checkpoint loads neither the pool
    machinery (``concurrent.futures`` and the ``logging`` it imports)
    nor the checkpoint journal."""
    loaded = _modules_loaded_by(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['run', 'chaos', '--profile', 'smoke', "
        "'--seeds', '1', '--scale', '0.2']) == 0"
    )
    unwanted = [
        name for name in loaded
        if name in (
            "concurrent.futures", "logging", "repro.faults.checkpoint"
        )
    ]
    assert unwanted == []
