"""Sweep execution equivalence gates.

A sweep's output is a pure function of its spec: byte-identical across
job counts (serial vs a two-worker pool) and across
fresh-vs-SIGKILL-and-resumed runs. The CLI half of this file mirrors
the chaos kill-and-resume machinery in
``tests/faults/test_checkpoint.py`` — hard-kill ``repro sweep run``
mid-grid, resume from the journal, demand the same stdout — and is
also wired into ``scripts/check.sh`` as part of the sweep stage, as is
the pin on the smoke grid's cell fingerprints (journals written by
earlier builds must keep resuming).
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.faults.checkpoint import cell_fingerprint
from repro.sweeps import (
    SweepSpec,
    build_sweep_report,
    compile_grid,
    load_spec,
    render_sweep_json,
    run_sweep,
    sweep_result_from_journal,
)

POOL_TIMEOUT = 180.0

SPEC_PATH = Path(__file__).resolve().parent / "smoke_grid.toml"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_sweep.json"


def _cards_as_dicts(result):
    return {
        index: dataclasses.asdict(card)
        for index, card in result.scorecards.items()
    }


def _report_json(result):
    return render_sweep_json(build_sweep_report(result))


def test_smoke_grid_fingerprints_pinned():
    """Cell fingerprints are what a journal is resumed against: if they
    drift, every sweep journal written before the drift stops
    resuming."""
    assert [
        cell_fingerprint(spec)
        for spec in compile_grid(load_spec(str(SPEC_PATH))).specs
    ] == [
        "92b8172864b33ea2",
        "4267999102333e9f",
        "0882212e3bcdd326",
        "cfc7d7c3f23de028",
        "856917d260e6e9cd",
        "20b7fc24df7db903",
        "6e469b5841f60058",
        "374c8dd86a7f19bd",
    ]


# ----------------------------------------------------------------------
# In-process equivalence: jobs
# ----------------------------------------------------------------------

def test_serial_vs_jobs2_byte_identical(tmp_path):
    """The smoke grid renders the identical sensitivity report whether
    run serially or merged from a two-worker pool with a journal."""
    spec = load_spec(str(SPEC_PATH))
    serial = run_sweep(spec)
    pooled = run_sweep(
        spec, jobs=2, checkpoint=str(tmp_path / "sweep.jsonl")
    )
    assert _cards_as_dicts(pooled) == _cards_as_dicts(serial)
    assert _report_json(pooled) == _report_json(serial)
    # ... and both match the committed golden artifact.
    assert _report_json(serial) == GOLDEN_PATH.read_text()


def test_journal_report_matches_live_run(tmp_path):
    """`repro sweep report` territory: a result rebuilt purely from
    the journal renders byte-identically to the live run's."""
    spec = load_spec(str(SPEC_PATH))
    path = str(tmp_path / "sweep.jsonl")
    live = run_sweep(spec, jobs=2, checkpoint=path)
    replayed = sweep_result_from_journal(spec, path)
    assert _cards_as_dicts(replayed) == _cards_as_dicts(live)
    assert _report_json(replayed) == _report_json(live)


# ----------------------------------------------------------------------
# The check.sh gate: hard-kill `repro sweep run`, resume, demand identity
# ----------------------------------------------------------------------

CLI_ARGS = [
    "sweep", "run", "--spec", str(SPEC_PATH), "--format", "json",
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


def _kill_mid_grid(checkpoint, jobs_args):
    """Start a checkpointed sweep, SIGKILL it once >= 2 cells landed."""
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
    """A SIGKILLed sweep resumed from its journal prints the exact
    bytes of an uninterrupted run — which are the committed golden."""
    reference = _run_cli(
        jobs_args + ["--checkpoint", str(tmp_path / "ref.jsonl")]
    )
    assert reference.returncode == 0, reference.stderr
    assert reference.stdout == GOLDEN_PATH.read_text()
    killed = str(tmp_path / "killed.jsonl")
    _kill_mid_grid(killed, jobs_args)
    assert os.path.exists(killed)
    resumed = _run_cli(
        jobs_args + ["--checkpoint", killed, "--resume"]
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == reference.stdout
    payload = json.loads(resumed.stdout)
    assert payload["coverage"] == {"cells": 8, "completed": 8}


def test_sweep_report_cli_reproduces_run_output(tmp_path):
    """`repro sweep report` on a completed journal prints the same
    bytes `repro sweep run` did when it wrote that journal."""
    checkpoint = str(tmp_path / "sweep.jsonl")
    run = _run_cli(["--jobs", "2", "--checkpoint", checkpoint])
    assert run.returncode == 0, run.stderr
    report = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "report",
         "--spec", str(SPEC_PATH), "--checkpoint", checkpoint,
         "--format", "json"],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=POOL_TIMEOUT,
    )
    assert report.returncode == 0, report.stderr
    assert report.stdout == run.stdout
