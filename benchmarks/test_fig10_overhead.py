"""Figure 10 / section 5.6: instrumentation overhead.

Every Nexmark query runs at its converged configuration with the DS2
instrumentation off (vanilla) and on (instr); the table compares median
latencies. The paper's envelope: at most 13% on Flink, at most 20% on
Timely (Heron needs no extra instrumentation). The simulator's
per-record instrumentation multipliers are 8% / 15%; the end-to-end
effect depends on queueing headroom, which this experiment measures.
"""

from benchmarks._util import emit_artifact


def test_fig10_overhead(benchmark):
    points = emit_artifact(benchmark, "fig10")

    for p in points:
        # Instrumentation never speeds anything up...
        assert p.instrumented_median >= p.vanilla_median * 0.95
        # ...and the overhead stays small — the paper's qualitative
        # claim ("performance penalties are an acceptable trade-off").
        if p.runtime == "flink":
            assert p.relative_overhead <= 0.35, p.query
        else:
            assert p.relative_overhead <= 0.60, p.query
