"""Figure 8 / section 5.5: accuracy on the Flink-style runtime.

For every Nexmark query, fixed configurations around the DS2-indicated
parallelism of the main operator: below it, backpressure depresses the
observed source rate and blows up per-record latency; at it, the full
rate is sustained with low latency; above it, latency barely improves —
the indicated configuration is the minimum that keeps up.
"""

from benchmarks._util import emit_artifact


def test_fig8_flink_accuracy(benchmark):
    results = emit_artifact(benchmark, "fig8")

    for name, points in results.items():
        indicated = next(p for p in points if p.is_indicated)
        below = [
            p for p in points
            if p.main_parallelism < indicated.main_parallelism
        ]
        above = [
            p for p in points
            if p.main_parallelism > indicated.main_parallelism
        ]
        # The indicated configuration keeps up.
        assert indicated.sustains_target, name
        # Anything below it cannot (and gets much worse latency).
        for p in below:
            assert not p.sustains_target, (name, p.main_parallelism)
            assert p.latency.median() > indicated.latency.median()
        # More parallelism does not significantly improve latency.
        for p in above:
            assert p.sustains_target
            assert p.latency.median() <= (
                indicated.latency.median() * 1.5 + 0.05
            )
