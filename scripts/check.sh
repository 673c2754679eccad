#!/usr/bin/env bash
# Tier-2 quality gate: static analysis + the full test suite.
#
# Usage: scripts/check.sh [--fast]
#
#   --fast   skip the paper-artifact and pytest stages
#
# Stages (in order):
#   1. ruff          - style/correctness lint (skipped if not installed)
#   2. mypy          - type check (skipped if not installed)
#   3. repro lint    - in-tree determinism linter, including stale
#                      suppression comments (always runs)
#   4. trace schema  - golden-file JSONL trace schema check
#   5. parallel chaos equivalence
#                    - smoke-profile serial vs process-pool scorecards,
#                      plus span structure under the fork, spawn and
#                      forkserver start methods
#   6. kill-and-resume equivalence
#                    - hard-killed chaos run resumed from its journal
#                      must match an uninterrupted run byte-for-byte,
#                      a resume over a complete chaos journal must run
#                      no cell (crash-recovery replay cells included),
#                      and the committed smoke-campaign journal (cell
#                      fingerprints recorded by an older build) must
#                      still resume without re-running a cell
#   7. run report (golden file)
#                    - `repro report` over the committed smoke-campaign
#                      journal must render byte-identical JSON to the
#                      committed golden report
#   8. sweep (golden file + kill-and-resume)
#                    - `repro sweep run` over the committed smoke grid
#                      (two pool workers, checkpointed) and
#                      `repro sweep report` from that journal must both
#                      render byte-identical JSON to the committed
#                      golden sensitivity artifact; plus the sweep
#                      SIGKILL-and-resume equivalence tests and the
#                      pin on the smoke grid's cell fingerprints
#   9. table 4 (golden file)
#                    - `repro run table4 --scale 0.2` (36 DS2 loops on
#                      the Nexmark queries; with numpy, every tick runs
#                      on the vector engine backend) must print
#                      byte-identical output to the committed golden
#                      table (~8s)
#  10. paper artifacts (golden files)
#                    - `repro run <id>` at scale 1, for every entry of
#                      the paper-artifact registry
#                      (repro.experiments.artifacts), must print its
#                      committed benchmarks/output/<file>.txt
#                      byte for byte (~35s)
#  11. pytest (REPRO_ENGINE=object)
#                    - tier-1 test suite with every Simulator pinned to
#                      the per-instance object engine backend
#  12. pytest (REPRO_ENGINE=vector)
#                    - the same tier-1 suite on the struct-of-arrays
#                      engine backend; passing both proves the golden
#                      trace / scorecard byte-identity oracle holds for
#                      both backends, whichever one the width rule
#                      picks (skipped if numpy is missing)
#  13. pytest (REPRO_ENGINE unset)
#                    - the engine, fault and integration tests with no
#                      pin, so every deployment picks its backend by
#                      width and runs that DS2 scales across the
#                      threshold switch backends mid-run
#
# ruff and mypy are optional dev dependencies (`pip install -e .[lint]`).
# When they are missing the stage is skipped with a notice rather than
# failing, so the gate is usable in minimal containers; the in-tree
# stages (3-10) have no third-party dependencies, and stages 3-9 run
# even with --fast.

set -u

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *)
            echo "usage: scripts/check.sh [--fast]" >&2
            exit 2
            ;;
    esac
done

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FAILURES=0

run_stage() {
    local name="$1"
    shift
    echo "==> ${name}"
    if "$@"; then
        echo "==> ${name}: OK"
    else
        local status=$?
        echo "==> ${name}: FAILED (exit ${status})" >&2
        FAILURES=$((FAILURES + 1))
    fi
    echo
}

skip_stage() {
    echo "==> $1: SKIPPED ($2)"
    echo
}

if command -v ruff >/dev/null 2>&1; then
    run_stage "ruff" ruff check src tests benchmarks examples
else
    skip_stage "ruff" "not installed; pip install -e .[lint]"
fi

if command -v mypy >/dev/null 2>&1; then
    run_stage "mypy" mypy
else
    skip_stage "mypy" "not installed; pip install -e .[lint]"
fi

run_stage "repro lint" \
    python -m repro lint src/repro scripts benchmarks examples
# Golden-file trace schema gate: a seeded controlled run must still
# serialize byte-for-byte to tests/telemetry/golden_trace.jsonl.
# Cheap (~2s), so it runs even with --fast.
run_stage "trace schema (golden file)" \
    python -m pytest -q tests/telemetry/test_trace_io.py
# Executor equivalence gate: cells run on a process pool must produce
# byte-identical scorecards to in-process ones on the smoke profile,
# and the same span structure under every start method.
run_stage "parallel chaos equivalence (smoke)" \
    python -m pytest -q tests/faults/test_parallel_runner.py \
    -k "smoke or start_method or recovery"
# Crash-safety gate: a chaos run hard-killed mid-campaign and resumed
# from its checkpoint journal must print byte-identical output to an
# uninterrupted run (serial and process-pool), a resume over a
# complete journal must re-run no replay cell, and a journal written
# by an older build must still resume (its cell fingerprints match).
run_stage "kill-and-resume equivalence (smoke)" \
    python -m pytest -q tests/faults/test_checkpoint.py \
    -k "kill_and_resume or older_journal or reruns_no_replay_cell"
# Run-report gate: the aggregated report over the committed
# smoke-campaign journal must stay byte-identical to the committed
# golden JSON. Cheap (<1s), so it runs even with --fast.
check_golden_report() {
    python -m repro report \
        --checkpoint tests/reports/smoke_checkpoint.jsonl \
        --format json \
        | diff -u tests/reports/golden_report.json -
}
run_stage "run report (golden file)" check_golden_report
# Sweep gate: running the committed smoke grid (two pool workers, with
# a checkpoint journal) and re-reporting from that journal must both
# reproduce the committed golden sensitivity artifact byte-for-byte,
# a sweep hard-killed mid-grid must resume to the same bytes, and the
# grid's cell fingerprints must not drift (old journals must resume).
check_golden_sweep() {
    local journal status
    journal="$(mktemp "${TMPDIR:-/tmp}/sweep_journal.XXXXXX")" \
        || return 1
    rm -f "$journal"
    python -m repro sweep run \
        --spec tests/sweeps/smoke_grid.toml \
        --jobs 2 \
        --checkpoint "$journal" \
        --format json \
        | diff -u tests/sweeps/golden_sweep.json -
    status=$?
    if [ "$status" -eq 0 ]; then
        python -m repro sweep report \
            --spec tests/sweeps/smoke_grid.toml \
            --checkpoint "$journal" \
            --format json \
            | diff -u tests/sweeps/golden_sweep.json -
        status=$?
    fi
    rm -f "$journal"
    return "$status"
}
run_stage "sweep (golden file)" check_golden_sweep
run_stage "sweep kill-and-resume equivalence (smoke)" \
    python -m pytest -q tests/sweeps/test_sweep_equivalence.py \
    -k "kill_and_resume or report_cli or fingerprints_pinned"
# Table 4 gate: the paper's headline convergence table at scale 0.2
# must print byte-identical output to the committed golden table. Its
# plans are 8-36 wide, so with numpy every tick runs on the vector
# backend, including the float paths of its width-1 sources and sinks.
check_golden_table4() {
    python -m repro run table4 --scale 0.2 \
        | diff -u tests/experiments/golden_table4.txt -
}
run_stage "table 4 (golden file)" check_golden_table4
# Paper-artifact gate: every registered table and figure, run through
# `repro run <id>` at scale 1, must print exactly the artifact the
# benchmark emitters committed under benchmarks/output/.
check_paper_artifacts() {
    local listing id output status=0
    listing="$(python -c 'from repro.experiments.artifacts import ARTIFACTS
for entry in ARTIFACTS.values():
    print(entry.id, entry.output)')" || return 1
    [ -n "$listing" ] || return 1
    while read -r id output; do
        echo "--- repro run ${id}"
        python -m repro run "$id" \
            | diff -u "benchmarks/output/${output}.txt" - \
            || status=1
    done <<< "$listing"
    return "$status"
}

if [ "$FAST" -eq 1 ]; then
    skip_stage "paper artifacts (golden files)" "--fast"
    skip_stage "pytest (REPRO_ENGINE=object)" "--fast"
    skip_stage "pytest (REPRO_ENGINE=vector)" "--fast"
    skip_stage "pytest (REPRO_ENGINE unset)" "--fast"
else
    run_stage "paper artifacts (golden files)" check_paper_artifacts
    # The decision oracle for the two engine backends: the whole
    # tier-1 suite — including the golden trace and chaos scorecard
    # byte-identity tests — must pass with each backend selected for
    # every Simulator.
    run_stage "pytest (REPRO_ENGINE=object)" \
        env REPRO_ENGINE=object python -m pytest -x -q
    if python -c "import numpy" >/dev/null 2>&1; then
        run_stage "pytest (REPRO_ENGINE=vector)" \
            env REPRO_ENGINE=vector python -m pytest -x -q
    else
        skip_stage "pytest (REPRO_ENGINE=vector)" "numpy not installed"
    fi
    # The two stages above pin every deployment; this one lets the
    # width rule pick per deployment, so mid-run backend switches go
    # through the golden scorecard and equivalence checks too.
    run_stage "pytest (REPRO_ENGINE unset)" \
        env -u REPRO_ENGINE python -m pytest -x -q \
        tests/engine tests/faults tests/integration
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "check.sh: ${FAILURES} stage(s) failed" >&2
    exit 1
fi
echo "check.sh: all stages passed"
