"""Overhead of the telemetry layer (ISSUE 4 acceptance criterion).

Two claims, both measured on the 33-instance Flink wordcount
deployment:

* stepping with an active tracer stays within 5% of stepping with
  tracing disabled (the no-op path really is near-zero-cost, and the
  enabled path samples `engine.tick` instead of tracing every tick);
* the JSONL trace of a fixed seeded run is byte-identical across
  repeats (traces carry virtual time only — no wall clock leaks in).

Timings use best-of-repeats: the minimum over several interleaved
measurements is the least noisy estimator of the true cost on a
shared machine.
"""

import time

from benchmarks._util import emit
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.telemetry import NULL_TRACER, Tracer, tracing
from repro.workloads.wordcount import flink_wordcount_graph

REPEATS = 5
SIM_SECONDS = 30.0  # 300 ticks per measurement
TOLERANCE = 0.05


def build_simulator():
    graph = flink_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 1, "flatmap": 22, "count": 13, "sink": 1},
        max_parallelism=36,
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )


def time_run(telemetry: bool) -> float:
    # The simulator resolves the ambient tracer when it is built, so
    # the tracer must be active before construction to be measured.
    with tracing(Tracer() if telemetry else NULL_TRACER):
        sim = build_simulator()
    sim.run_for(5.0)  # warm the queues
    started = time.perf_counter()  # repro: allow[REPRO101] — benchmark measures wall clock
    sim.run_for(SIM_SECONDS)
    return time.perf_counter() - started  # repro: allow[REPRO101]


def test_telemetry_overhead_within_tolerance():
    # Interleave the repeats so slow machine phases hit both arms.
    disabled = []
    enabled = []
    for _ in range(REPEATS):
        disabled.append(time_run(telemetry=False))
        enabled.append(time_run(telemetry=True))
    best_disabled = min(disabled)
    best_enabled = min(enabled)
    overhead = best_enabled / best_disabled - 1.0
    emit(
        "telemetry_overhead",
        "\n".join(
            [
                "Telemetry overhead (33-instance Flink wordcount, "
                f"{SIM_SECONDS:.0f}s of virtual time, "
                f"best of {REPEATS})",
                f"  disabled: {best_disabled * 1000:.1f} ms",
                f"  enabled:  {best_enabled * 1000:.1f} ms",
                f"  overhead: {overhead:+.1%} "
                f"(tolerance {TOLERANCE:.0%})",
            ]
        ),
    )
    assert overhead <= TOLERANCE, (
        f"telemetry-enabled stepping is {overhead:+.1%} slower than "
        f"disabled (budget {TOLERANCE:.0%})"
    )


def test_traced_run_is_deterministic():
    def traced_jsonl() -> str:
        tracer = Tracer()
        with tracing(tracer):
            sim = build_simulator()
            sim.run_for(SIM_SECONDS)
            sim.collect_metrics()
        return tracer.to_jsonl()

    first = traced_jsonl()
    second = traced_jsonl()
    assert first, "traced run produced no events"
    assert first == second, (
        "two identical runs produced different traces — wall-clock "
        "state leaked into the trace"
    )
