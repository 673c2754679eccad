"""Robustness: convergence under injected faults (Heron wordcount).

One deterministic campaign — a rejected first rescale, 50% source
metric dropout for three minutes, and a flatmap instance crash — run
against three controllers. The headline results:

* hardened DS2 retries the rejected rescale with backoff, holds its
  configuration through the dropout, and re-converges to the paper's
  optimum after the crash without overshoot;
* legacy DS2 (hardening off) reads the dropout's halved telemetry as a
  halved workload and pays two extra reconfiguration outages;
* Dhalion ignores rate telemetry and is indifferent to the dropout.
"""

from benchmarks._util import emit_artifact
from repro.experiments.fault_tolerance import CRASH_AT


def test_fault_tolerance(benchmark):
    results = emit_artifact(benchmark, "faults")

    by_name = {r.controller: r for r in results}
    hardened = by_name["ds2"]
    legacy = by_name["ds2-legacy"]

    # The rejected first rescale is retried; the job is never left
    # partially reconfigured and still reaches the paper's optimum.
    assert hardened.failed_rescales >= 1
    assert hardened.final_flatmap == hardened.optimal_flatmap
    assert hardened.final_count == hardened.optimal_count

    # Hardened DS2 holds through the dropout; legacy reproduces the
    # spurious scale-down and pays extra reconfigurations for it.
    assert hardened.held_through_dropout
    assert not legacy.held_through_dropout
    assert legacy.steps > hardened.steps

    # Crash recovery: no scaling churn afterwards, no overshoot.
    late_events = [
        e for e in hardened.run.loop_result.events if e.time > CRASH_AT
    ]
    assert len(late_events) <= 3
    assert hardened.achieved_rate >= 0.95 * hardened.target_rate
