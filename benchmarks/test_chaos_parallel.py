"""Parallel chaos executor: equivalence and wall-clock speedup.

Runs the 20-campaign ``mixed`` acceptance batch twice — serially
(``jobs=1``) and on a 4-worker process pool (``jobs=4``) — and checks
the executor contract from both sides:

* **equivalence**: scorecards and the rendered report are byte-identical
  between backends (the committed ``chaos_scorecards.txt`` artifact does
  not depend on ``--jobs``);
* **speedup**: on a ≥ 4-core runner the pool finishes the batch at
  least 2.5× faster than the serial baseline. On smaller runners the
  wall-clock numbers are still measured and emitted, but the threshold
  is not asserted — a 1-core box cannot demonstrate parallelism.

The asserted timing excludes the crash-recovery replay
(``include_recovery=False``), so it isolates the campaign cells alone.
A second, unasserted pair of timings runs the full command — cells
plus the 15 replay cells, which share the executor and its ``jobs`` —
serially and at ``jobs=min(4, cores)``, the wall time a user of
``repro run chaos --jobs N`` sees on this host.
"""

import os
import time

from benchmarks._util import emit, run_once
from repro.experiments.chaos import chaos_report, run_chaos

CAMPAIGNS = 20
SPEEDUP_FLOOR = 2.5
SPEEDUP_CORES = 4


def _timed(jobs, include_recovery=False):
    start = time.perf_counter()  # repro: allow[REPRO101] — benchmark measures wall clock
    result = run_chaos(
        profile="mixed",
        campaigns=CAMPAIGNS,
        seed=1,
        include_recovery=include_recovery,
        jobs=jobs,
    )
    return result, time.perf_counter() - start  # repro: allow[REPRO101]


def test_chaos_parallel_speedup(benchmark):
    serial, serial_seconds = run_once(benchmark, lambda: _timed(1))
    parallel, parallel_seconds = _timed(SPEEDUP_CORES)

    cores = os.cpu_count() or 1
    speedup = serial_seconds / parallel_seconds
    full_jobs = min(SPEEDUP_CORES, cores)
    full_serial, full_serial_seconds = _timed(1, include_recovery=True)
    full_pooled, full_pooled_seconds = _timed(
        full_jobs, include_recovery=True
    )
    emit(
        "chaos_parallel_speedup",
        "\n".join([
            f"Parallel chaos executor: {CAMPAIGNS}-campaign 'mixed' "
            "batch, 3 controllers, Heron wordcount",
            f"  cores available   {cores}",
            f"  serial  (jobs=1)  {serial_seconds:8.2f} s",
            f"  pooled  (jobs={SPEEDUP_CORES})  {parallel_seconds:8.2f} s",
            f"  speedup           {speedup:8.2f}x"
            + ("" if cores >= SPEEDUP_CORES else
               f"  (not asserted: < {SPEEDUP_CORES} cores)"),
            "Full command, campaign cells plus crash-recovery replay "
            "cells (not asserted)",
            f"  serial  (jobs=1)  {full_serial_seconds:8.2f} s",
            f"  pooled  (jobs={full_jobs})  {full_pooled_seconds:8.2f} s",
            f"  speedup           "
            f"{full_serial_seconds / full_pooled_seconds:8.2f}x",
        ]),
    )

    # The executor is an implementation detail: same cells, same bytes.
    assert parallel.scorecards == serial.scorecards
    assert parallel.aggregates == serial.aggregates
    assert chaos_report(parallel) == chaos_report(serial)
    assert full_pooled.recovery == full_serial.recovery
    assert chaos_report(full_pooled) == chaos_report(full_serial)

    if cores >= SPEEDUP_CORES:
        assert speedup >= SPEEDUP_FLOOR, (
            f"jobs={SPEEDUP_CORES} on {cores} cores only reached "
            f"{speedup:.2f}x over serial (< {SPEEDUP_FLOOR}x)"
        )
