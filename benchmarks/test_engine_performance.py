"""Performance of the simulator itself.

Not a paper figure: these benchmarks measure how fast the substrate
simulates virtual time, which bounds how cheaply the experiment suite
can be re-run. Unlike the experiment benchmarks (deterministic one-shot
runs), these use proper multi-round timing.

``test_vector_backend_speedup_q5`` is the acceptance gate for the
struct-of-arrays engine backend: the ``vector`` backend must simulate
the wide Nexmark Q5 cell, with a hot key on its windowed operator, at
>= 5x the ticks/second of the ``object`` backend (see
``docs/performance.md`` and the committed scaling table in
``benchmarks/output/engine_speedup.txt``). The hot key is what keeps
the cell on the vector backend: an evenly partitioned operator runs as
one object-engine lane, which the vector backend does not beat below
about 512 instances.
"""

import time

from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import flink_wordcount_graph


def test_engine_throughput_wordcount(benchmark):
    """Ticks/second on the 33-instance Flink wordcount deployment."""
    graph = flink_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 1, "flatmap": 22, "count": 13, "sink": 1},
        max_parallelism=36,
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )
    sim.run_for(5.0)  # warm the queues

    benchmark(sim.run_for, 10.0)  # 100 ticks per round

    # Sanity: simulated faster than real time by a wide margin.
    stats = benchmark.stats.stats
    assert stats.mean < 10.0


def test_engine_throughput_windowed_query(benchmark):
    """Ticks/second on Q5 (sliding window) at its optimum."""
    query = get_query("Q5")
    graph = query.flink_graph()
    plan = PhysicalPlan(
        graph, query.initial_parallelism(graph, 16), max_parallelism=36
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )
    sim.run_for(10.0)
    benchmark(sim.run_for, 10.0)


def test_engine_throughput_timely(benchmark):
    """Ticks/second under the shared-worker (water-filling) model."""
    query = get_query("Q3")
    graph = query.timely_graph()
    plan = PhysicalPlan(graph, {name: 4 for name in graph.names})
    sim = Simulator(
        plan,
        TimelyRuntime(),
        EngineConfig(
            tick=0.1, track_record_latency=False, epoch_seconds=1.0
        ),
    )
    sim.run_for(5.0)
    benchmark(sim.run_for, 5.0)


def _q5_wide_simulator(backend: str) -> Simulator:
    """The speedup benchmark cell: Q5 with 256 slots (the windowed
    hot_items operator takes nearly all of them) and half of hot_items'
    input on its instance 0, record latency tracking on — the same cell
    profiled by scripts/profile_tick.py."""
    query = get_query("Q5")
    graph = query.flink_graph()
    parallelism = query.initial_parallelism(graph, 256)
    plan = PhysicalPlan(
        graph,
        parallelism,
        max_parallelism=max(parallelism.values()) + 8,
        partitioner=Partitioner({"hot_items": 0.5}),
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
        backend=backend,
    )


def _ticks_per_second(sim: Simulator, ticks: int) -> float:
    start = time.perf_counter()  # repro: allow[REPRO101] — benchmark measures wall clock
    for _ in range(ticks):
        sim.step()
    return ticks / (time.perf_counter() - start)  # repro: allow[REPRO101]


def test_vector_backend_speedup_q5():
    """The vector backend is >= 5x faster on the wide skewed Q5 cell.

    Manual perf_counter timing rather than the benchmark fixture: the
    assertion is about the *ratio* between two backends measured on the
    same machine in the same process, which pytest-benchmark's
    per-function rounds cannot express. The committed scaling table
    (benchmarks/output/engine_speedup.txt) measures ~8.5x at this cell;
    5x leaves headroom for loaded CI machines.
    """
    object_sim = _q5_wide_simulator("object")
    vector_sim = _q5_wide_simulator("vector")
    # Warm both past the startup transient (queues filling up).
    object_sim.run_for(5.0)
    vector_sim.run_for(5.0)
    # Interleave two measurement rounds per backend so a load spike
    # hits both rather than biasing one.
    object_tps = []
    vector_tps = []
    for _ in range(2):
        object_tps.append(_ticks_per_second(object_sim, 150))
        vector_tps.append(_ticks_per_second(vector_sim, 150))
    speedup = max(vector_tps) / max(object_tps)
    assert speedup >= 5.0, (
        f"vector backend speedup {speedup:.2f}x below the 5x bar "
        f"(object {max(object_tps):.0f} t/s, "
        f"vector {max(vector_tps):.0f} t/s)"
    )


def test_policy_evaluation_speed(benchmark):
    """One full model evaluation (Eq. 7/8) on a live metrics window —
    the paper highlights that DS2 decisions take milliseconds."""
    from repro.core import compute_optimal_parallelism

    query = get_query("Q3")
    graph = query.flink_graph()
    plan = PhysicalPlan(
        graph, query.initial_parallelism(graph, 20), max_parallelism=36
    )
    sim = Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=False),
    )
    sim.run_for(30.0)
    window = sim.collect_metrics()
    rates = sim.source_target_rates()

    result = benchmark(
        compute_optimal_parallelism, graph, window, rates
    )
    assert result.estimates

    # Milliseconds, as the paper claims for the decision itself.
    assert benchmark.stats.stats.mean < 0.05
