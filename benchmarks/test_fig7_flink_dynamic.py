"""Figure 7 / section 5.3: DS2 driving Flink under a dynamic workload.

Two-phase wordcount (2M sentences/s, then 1M). DS2 (10 s interval,
30 s warm-up) scales the under-provisioned job up in at most three
actions, holds it stable, then scales it down in at most three actions
when the rate halves — each action through Flink's savepoint-and-
restart mechanism with a tens-of-seconds outage.
"""

from benchmarks._util import emit_artifact
from repro.workloads.wordcount import FLATMAP


def test_fig7_flink_dynamic(benchmark):
    result = emit_artifact(benchmark, "fig7")
    # Steady-state achieved rates per phase.
    phase1_rate = result.run.source_rate["source"].window_mean(500, 600)
    phase2_rate = result.run.source_rate["source"].window_mean(
        1100, 1200
    )

    assert 1 <= result.phase1_steps <= 3
    assert 1 <= result.phase2_steps <= 3
    # Scale-up then scale-down.
    assert result.phase1_final[FLATMAP] > 10
    assert result.final[FLATMAP] < result.phase1_final[FLATMAP]
    # Both phases end at (or above) their target rate.
    assert phase1_rate >= 2_000_000 * 0.98
    assert phase2_rate >= 1_000_000 * 0.98
