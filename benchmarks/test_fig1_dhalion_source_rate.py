"""Figure 1: effect of Dhalion's scaling decisions on the source rate.

The under-provisioned Heron wordcount runs under the Dhalion-style
controller; the regenerated series shows the observed source rate
climbing toward the 1M sentences/min target across many scaling
decisions, with redeploy dips and backlog-drain overshoot — taking on
the order of half an hour of virtual time to converge.
"""

from benchmarks._util import emit_artifact


def test_fig1_dhalion_source_rate(benchmark):
    result = emit_artifact(benchmark, "fig1")

    # Shape assertions mirroring the paper's narrative.
    assert result.steps >= 5
    assert result.convergence_time > 600.0
    assert result.achieved_rate >= result.target_rate * 0.98
