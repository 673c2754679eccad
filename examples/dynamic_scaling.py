#!/usr/bin/env python3
"""End-to-end dynamic scaling on the Flink-style runtime (Figure 7).

The wordcount job starts under-provisioned against a 2M sentences/s
source; after ten (scaled-down: four) minutes the rate halves. DS2
drives the job through Flink's savepoint-and-restart mechanism: a
couple of scale-ups in phase one, a scale-down (with refinements) in
phase two. The script prints the scaling timeline and an ASCII strip
chart of the observed source rate.

Run with::

    python examples/dynamic_scaling.py
"""

from repro.experiments.dynamic import run_dynamic_scaling
from repro.viz import strip_chart
from repro.workloads.wordcount import COUNT, FLATMAP


def main() -> None:
    phase_seconds = 240.0
    print(
        f"Running two phases of {phase_seconds:.0f}s "
        "(2M rec/s, then 1M rec/s)..."
    )
    result = run_dynamic_scaling(phase_seconds=phase_seconds, tick=0.25)

    print("\nScaling timeline:")
    for event in result.run.loop_result.events:
        print(
            f"  t={event.time:7.1f}s  "
            f"flatmap={event.applied[FLATMAP]:3d}  "
            f"count={event.applied[COUNT]:3d}  "
            f"(outage {event.outage_seconds:.0f}s)"
        )
    print(
        f"\nPhase 1: {result.phase1_steps} scaling actions -> "
        f"flatmap={result.phase1_final[FLATMAP]}, "
        f"count={result.phase1_final[COUNT]}"
    )
    print(
        f"Phase 2: {result.phase2_steps} scaling actions -> "
        f"flatmap={result.final[FLATMAP]}, "
        f"count={result.final[COUNT]}"
    )

    print("\nObserved source rate (the Figure 7 top panel):")
    print(strip_chart(result.source_rate_series()))
    print(
        "Dips are savepoint-and-restart outages; plateaus above the "
        "target\nare the source draining backlog after a redeploy."
    )


if __name__ == "__main__":
    main()
