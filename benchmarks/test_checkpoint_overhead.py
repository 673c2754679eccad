"""Checkpoint journal: per-cell durability cost and resume equivalence.

Runs the smoke chaos batch three ways — plain serial, checkpointed with
an fsynced journal, and resumed from a half-complete journal — and
measures what the crash-safety layer costs:

* **overhead**: the journaled run may not exceed the plain run by more
  than ``OVERHEAD_CEILING`` (the journal appends one fsynced JSONL
  record per completed cell; the cells themselves dominate);
* **equivalence**: scorecards and the rendered report are identical
  across all three paths — durability is an implementation detail;
* **resume speedup**: a resume that finds half the batch in the
  journal skips those cells and must beat the cold run.

Recovery sweeps are excluded so the timing isolates the campaign cells
the journal wraps.
"""

import json
import time

from benchmarks._util import emit, run_once
from repro.experiments.chaos import chaos_report, run_chaos

PROFILE = "smoke"
CAMPAIGNS = 4
OVERHEAD_CEILING = 1.5


def _timed(**kwargs):
    start = time.perf_counter()  # repro: allow[REPRO101] — benchmark measures wall clock
    result = run_chaos(
        profile=PROFILE,
        campaigns=CAMPAIGNS,
        seed=1,
        include_recovery=False,
        **kwargs,
    )
    return result, time.perf_counter() - start  # repro: allow[REPRO101]


def _truncate_journal(path, keep_cells):
    """Rewrite the journal to the header plus its first N cells."""
    kept, cells = [], 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("record") == "cell":
                if cells == keep_cells:
                    break
                cells += 1
            kept.append(line)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)


def test_checkpoint_overhead_and_resume(benchmark, tmp_path):
    journal = str(tmp_path / "chaos.ckpt")
    plain, plain_seconds = run_once(benchmark, lambda: _timed())
    journaled, journaled_seconds = _timed(checkpoint=journal)

    cells = len(journaled.scorecards)
    _truncate_journal(journal, cells // 2)
    resumed, resumed_seconds = _timed(checkpoint=journal, resume=True)

    overhead = journaled_seconds / plain_seconds
    emit(
        "checkpoint_overhead",
        "\n".join([
            f"Checkpoint journal: {CAMPAIGNS}-campaign '{PROFILE}' "
            f"batch, {cells} cells, fsync per cell",
            f"  plain serial        {plain_seconds:8.2f} s",
            f"  journaled           {journaled_seconds:8.2f} s "
            f"({overhead:.2f}x)",
            f"  resumed ({cells // 2}/{cells} done)  "
            f"{resumed_seconds:8.2f} s",
        ]),
    )

    # Durability is an implementation detail: same cells, same bytes.
    assert journaled.scorecards == plain.scorecards
    assert resumed.scorecards == plain.scorecards
    assert journaled.aggregates == plain.aggregates
    assert chaos_report(journaled) == chaos_report(resumed)
    assert journaled.coverage.complete
    assert resumed.coverage.complete

    assert overhead <= OVERHEAD_CEILING, (
        f"journaling cost {overhead:.2f}x over the plain run "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )
    assert resumed_seconds < journaled_seconds, (
        f"resume with half the cells journaled took "
        f"{resumed_seconds:.2f}s vs {journaled_seconds:.2f}s cold"
    )
