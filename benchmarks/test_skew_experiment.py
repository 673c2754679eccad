"""Section 4.2.3: DS2 in the presence of data skew.

The wordcount benchmark with 20%/50%/70% key skew on Count. DS2
converges in two steps to the configuration that would be optimal
without skew, does not meet the (unreachable) target, and its decision
limiter freezes further reconfiguration instead of over-provisioning.
"""

from benchmarks._util import emit_artifact


def test_skew_experiment(benchmark):
    results = emit_artifact(benchmark, "skew")

    for r in results:
        assert r.steps == 2, r.skew
        assert r.converged_to_noskew_optimum, r.skew
        assert not r.meets_target, r.skew
        assert r.frozen, r.skew
    # Heavier skew hurts throughput more.
    achieved = [r.achieved_rate for r in results]
    assert achieved == sorted(achieved, reverse=True)
