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
#                      committed golden report and leave the journal's
#                      sha256 unchanged
#   8. sweep (golden file + kill-and-resume)
#                    - `repro sweep run` over the committed smoke grid
#                      (two pool workers, checkpointed) and
#                      `repro sweep report` from that journal must both
#                      render byte-identical JSON to the committed
#                      golden sensitivity artifact, and the report must
#                      leave the journal's sha256 unchanged; plus the
#                      sweep SIGKILL-and-resume equivalence tests and
#                      the pin on the smoke grid's cell fingerprints
#   9. table 4 (golden file)
#                    - `repro run table4 --scale 0.2` (36 DS2 loops on
#                      the Nexmark queries) must print byte-identical
#                      output to the committed golden table (~1.5s)
#  10. golden files with one lane per instance
#                    - stages 4, 7, 8 (golden sweep) and 9 again, with
#                      every deployment stepping one engine lane per
#                      instance (scripts/per_instance/sitecustomize.py
#                      on PYTHONPATH, pool workers included): the
#                      engine's lanes must reproduce its reference
#                      semantics byte for byte; plus `repro run chaos
#                      --profile mixed --seeds 4 --fault-seed 1` with
#                      and without the hook, diffed (the only stage
#                      run under --fast whose metric dropouts split a
#                      lane's shared metrics rows) (~20s)
#  11. golden files without numpy, fixed hash seed
#                    - stages 4, 7, 8 (golden sweep) and 9 again, with
#                      numpy made unimportable
#                      (scripts/no_numpy/sitecustomize.py on
#                      PYTHONPATH, pool workers included) and
#                      PYTHONHASHSEED=12345: results must not depend
#                      on numpy's presence or on the hash seed (~15s)
#  12. import budget
#                    - in fresh interpreters: importing the CLI loads no
#                      fault, campaign or run-report code, `repro run
#                      table4` loads no campaign executor, and
#                      importing any package loads none of its modules
#                      (tests/test_lazy_exports.py also pins the lazy
#                      package surface) (~3s)
#  13. paper artifacts (golden files)
#                    - `repro run <id>` at scale 1, for every entry of
#                      the paper-artifact registry
#                      (repro.experiments.artifacts), must print its
#                      committed benchmarks/output/<file>.txt
#                      byte for byte (~35s)
#  14. paper artifacts with one lane per instance
#                    - stage 13 under stage 10's hook (~1 min)
#  15. pytest
#                    - the tier-1 test suite, whose
#                      tests/engine/test_lane_equivalence.py compares
#                      lanes with one lane per instance tick by tick
#
# ruff and mypy are optional dev dependencies (`pip install -e .[lint]`).
# When they are missing the stage is skipped with a notice rather than
# failing, so the gate is usable in minimal containers; the in-tree
# stages (3-14) have no third-party dependencies, and stages 3-12 run
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
# sha256 of a file, hex. Reports only read their journal, so a digest
# taken before and after must agree.
file_sha256() {
    python -c 'import hashlib, sys
with open(sys.argv[1], "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())' "$1"
}
# Fail when the journal's digest no longer matches the one given.
journal_unchanged() {
    local after
    after="$(file_sha256 "$2")" || return 1
    if [ "$1" != "$after" ]; then
        echo "report rewrote its journal $2" >&2
        return 1
    fi
}
# Run-report gate: the aggregated report over the committed
# smoke-campaign journal must stay byte-identical to the committed
# golden JSON and leave the journal as it was. Cheap (<1s), so it runs
# even with --fast.
check_golden_report() {
    local journal=tests/reports/smoke_checkpoint.jsonl before
    before="$(file_sha256 "$journal")" || return 1
    python -m repro report \
        --checkpoint "$journal" \
        --format json \
        | diff -u tests/reports/golden_report.json - || return 1
    journal_unchanged "$before" "$journal"
}
run_stage "run report (golden file)" check_golden_report
# Sweep gate: running the committed smoke grid (two pool workers, with
# a checkpoint journal) and re-reporting from that journal must both
# reproduce the committed golden sensitivity artifact byte-for-byte
# (the report leaving the journal as it was), a sweep hard-killed
# mid-grid must resume to the same bytes, and the grid's cell
# fingerprints must not drift (old journals must resume).
check_golden_sweep() {
    local journal status before
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
        before="$(file_sha256 "$journal")"
        status=$?
    fi
    if [ "$status" -eq 0 ]; then
        python -m repro sweep report \
            --spec tests/sweeps/smoke_grid.toml \
            --checkpoint "$journal" \
            --format json \
            | diff -u tests/sweeps/golden_sweep.json -
        status=$?
    fi
    if [ "$status" -eq 0 ]; then
        journal_unchanged "$before" "$journal"
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
# must print byte-identical output to the committed golden table.
check_golden_table4() {
    python -m repro run table4 --scale 0.2 \
        | diff -u tests/experiments/golden_table4.txt -
}
run_stage "table 4 (golden file)" check_golden_table4
# Lane gate: the golden-file checks above, re-run in interpreters (pool
# workers included) whose engine steps one lane per instance. A lane
# stands for a run of identical instances, so every byte must match.
check_goldens_per_instance() (
    chaos="$(mktemp "${TMPDIR:-/tmp}/chaos_lanes.XXXXXX")" || exit 1
    trap 'rm -f "$chaos"' EXIT
    python -m repro run chaos --profile mixed --seeds 4 --fault-seed 1 \
        > "$chaos" || exit 1
    export PYTHONPATH="scripts/per_instance:${PYTHONPATH}"
    python -c 'from repro.engine import objects
assert objects.lane_runs.__name__ == "_one_lane_per_instance", \
    "per-instance hook not active"' || exit 1
    python -m pytest -q tests/telemetry/test_trace_io.py || exit 1
    check_golden_report || exit 1
    check_golden_sweep || exit 1
    check_golden_table4 || exit 1
    python -m repro run chaos --profile mixed --seeds 4 --fault-seed 1 \
        | diff -u "$chaos" -
)
run_stage "golden files (one lane per instance)" check_goldens_per_instance
# Environment-independence gate: the golden-file checks above, re-run
# in interpreters (pool workers included) where numpy cannot be
# imported and str hashing uses a fixed non-default seed. Nothing may
# depend on numpy's presence or on the hash seed.
check_goldens_without_numpy() (
    export PYTHONPATH="scripts/no_numpy:${PYTHONPATH}"
    export PYTHONHASHSEED=12345
    python -c 'try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("numpy blocker not active")' || exit 1
    python -m pytest -q tests/telemetry/test_trace_io.py || exit 1
    check_golden_report || exit 1
    check_golden_sweep || exit 1
    check_golden_table4
)
run_stage "golden files (no numpy, PYTHONHASHSEED=12345)" \
    check_goldens_without_numpy
# Start-up gate: a command imports only the modules it runs. Package
# __init__s resolve their exports lazily, so one eager import coming
# back shows up here as a module that the command does not need.
check_import_budget() {
    python -m pytest -q tests/test_cli.py -k "import_" || return 1
    python -m pytest -q tests/test_lazy_exports.py
}
run_stage "import budget" check_import_budget
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

check_paper_artifacts_per_instance() (
    export PYTHONPATH="scripts/per_instance:${PYTHONPATH}"
    check_paper_artifacts
)

if [ "$FAST" -eq 1 ]; then
    skip_stage "paper artifacts (golden files)" "--fast"
    skip_stage "paper artifacts (one lane per instance)" "--fast"
    skip_stage "pytest" "--fast"
else
    run_stage "paper artifacts (golden files)" check_paper_artifacts
    run_stage "paper artifacts (one lane per instance)" \
        check_paper_artifacts_per_instance
    run_stage "pytest" python -m pytest -x -q
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "check.sh: ${FAILURES} stage(s) failed" >&2
    exit 1
fi
echo "check.sh: all stages passed"
