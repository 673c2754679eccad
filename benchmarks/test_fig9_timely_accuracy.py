"""Figure 9 / section 5.5: per-epoch latency CDFs on Timely.

Q3, Q5, and Q11 at fixed worker counts. Timely has no backpressure, so
under-provisioned configurations let queues grow and epoch latencies
explode; the DS2-indicated four workers are the minimum that processes
one second of data in under a second. Q5's sliding window stashes and
forwards data in bursts, so a bounded fraction of its epochs exceeds
the target regardless of provisioning — the load-spike effect the
paper discusses.
"""

from benchmarks._util import emit_artifact


def test_fig9_timely_accuracy(benchmark):
    results = emit_artifact(benchmark, "fig9")

    for name, points in results.items():
        by_workers = {p.workers: p for p in points}
        # Under-provisioned: essentially every epoch misses the target.
        assert by_workers[2].fraction_above_target > 0.7, name
        # The indicated 4 workers bring the p99 down by an order of
        # magnitude relative to 2 workers.
        assert (
            by_workers[4].epoch_latency.quantile(0.99)
            < by_workers[2].epoch_latency.quantile(0.99) / 5
        ), name
        # Extra workers beyond the optimum buy nothing.
        assert (
            by_workers[6].epoch_latency.median()
            >= by_workers[4].epoch_latency.median() * 0.5
        )
    # Q3 and Q11 meet the 1 s target at 4 workers; Q5 keeps a bounded
    # window-spike tail (the paper reports 18% over by <= 0.5 s).
    assert results["Q3"][2].fraction_above_target < 0.05
    assert results["Q11"][2].fraction_above_target < 0.05
    q5_at_4 = results["Q5"][2]
    assert 0.0 < q5_at_4.fraction_above_target < 0.8
    assert q5_at_4.epoch_latency.quantile(0.99) < 1.0 + 0.6
