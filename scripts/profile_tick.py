#!/usr/bin/env python
"""Profile the simulator tick loop and measure what lanes save.

Produces the two committed performance artifacts that back
``docs/performance.md``:

* ``benchmarks/output/profile_tick.txt`` — cProfile hot-function
  tables: first a ``table4-short``-shaped cell (the Table 4 engine
  configuration on Nexmark Q1 and Q5, evenly partitioned at
  parallelism 8, where every operator is one lane and the per-operator
  work of a tick is what is left to rank), then the engine with lanes
  and with one lane per instance on the Nexmark Q5 benchmark cell (a
  hot key on its windowed operator), so regressions show up as a
  changed ranking rather than a vague slowdown;
* ``benchmarks/output/engine_speedup.txt`` — ticks/second with lanes
  and with one lane per instance across a width sweep, from the narrow
  Heron wordcount deployments of the chaos experiment's recovery
  replay, through the plans DS2 deploys in the chaos campaign cells,
  to Q5 at 512 slots, evenly partitioned and with a hot key, and Q5 on
  the Timely runtime from 2 to 128 workers, even and with a hot key.
  The engine's Python work scales with its lanes (one per run of
  consecutive instances with equal input weights: one for an evenly
  partitioned operator, two for a hot key; on Timely every operator
  is cut where any is, and the runtime water-fills once per lane), so
  the table shows what stepping lanes saves at each width. Each cell
  times the two layouts in alternating rounds and keeps each layout's
  best round, so a slow moment of the host does not read as a speedup.

Usage::

    PYTHONPATH=src python scripts/profile_tick.py [--quick]

``--quick`` shortens the measured windows (~5x faster, noisier
numbers) for local iteration; the committed artifacts are produced by
a full run. The simulation itself is deterministic virtual time — only
the wall-clock timings vary between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pathlib
import pstats
import sys
import time
from functools import partial
from typing import Callable, Dict, Iterator, List, Tuple

from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine import objects
from repro.engine.simulator import EngineConfig, Simulator
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import heron_wordcount_graph

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/output"
)

#: Q5 part of the sweep (slots handed to ``initial_parallelism``; Q5
#: gives them to the windowed operator).
SWEEP = (8, 16, 32, 64, 128, 256, 512)

#: Q5 with a hot key: the share of hot_items' input its instance 0
#: takes, and the slots swept with it.
HOT_SHARE = 0.5
HOT_SWEEP = (8, 16, 64, 256)

#: Timely part of the sweep: Q5 with every operator at this many
#: workers, evenly partitioned and with a hot key on hot_items.
TIMELY_SWEEP = (2, 8, 32, 128)

#: Narrow part of the sweep: Heron wordcount with every operator at
#: this parallelism, the shape of the chaos recovery replay.
WORDCOUNT_SWEEP = (1, 2, 4, 8)

#: Chaos part of the sweep: (flatmap, count) parallelism of the Heron
#: wordcount plans the chaos campaign cells deploy (source 2, sink 1),
#: from the initial plan to the one DS2 converges to.
CHAOS_SWEEP = ((1, 1), (2, 3), (2, 7), (5, 10), (10, 20))

#: The benchmark cell asserted by
#: ``benchmarks/test_engine_performance.py`` (>= 5x), with a hot key.
BENCH_SLOTS = 256

#: Lane layouts compared: the engine's runs, and one lane per instance
#: (its reference semantics).
LAYOUTS = ("lanes", "per-instance")

#: Timing rounds per cell: the layouts take turns, each round a
#: ``1/ROUNDS`` share of the cell's window, and the best round counts.
ROUNDS = 20

#: The ``table4-short``-shaped cell: Table 4's queries with the fewest
#: and the most per-tick work (Q1, a map; Q5, a sliding window) at the
#: smallest initial configuration, evenly partitioned.
TABLE4_QUERIES = ("Q1", "Q5")
TABLE4_SLOTS = 8


@contextlib.contextmanager
def layout(name: str) -> Iterator[None]:
    """Deployments made inside the context use lane layout ``name``."""
    if name == "lanes":
        yield
        return
    lane_runs = objects.lane_runs
    objects.lane_runs = lambda plan, op: [
        (index, 1) for index in range(plan.parallelism_of(op))
    ]
    try:
        yield
    finally:
        objects.lane_runs = lane_runs


def build_simulator(slots: int, hot_share: float = 0.0) -> Simulator:
    """The Q5 benchmark cell: Flink runtime, sliding window, record
    latency tracking on (the most instrumented configuration), and
    ``hot_share`` of hot_items' input on its instance 0 (0 = even)."""
    query = get_query("Q5")
    graph = query.flink_graph()
    parallelism = query.initial_parallelism(graph, slots)
    plan = PhysicalPlan(
        graph,
        parallelism,
        max_parallelism=max(parallelism.values()) + 8,
        partitioner=Partitioner({"hot_items": hot_share}),
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )


def build_timely(workers: int, hot_share: float = 0.0) -> Simulator:
    """Q5 on the Timely runtime: every operator at ``workers``, tick
    0.25 s, record latency tracking on, and ``hot_share`` of
    hot_items' input on its instance 0 (0 = even)."""
    graph = get_query("Q5").timely_graph()
    plan = PhysicalPlan(
        graph,
        {name: workers for name in graph.names},
        partitioner=Partitioner({"hot_items": hot_share}),
    )
    return Simulator(
        plan,
        TimelyRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
    )


def build_table4_cell(query_name: str) -> Simulator:
    """A Table 4 cell before its first decision: the Flink runtime at
    ``initial_parallelism(graph, TABLE4_SLOTS)``, with the engine
    configuration of ``repro.experiments.convergence`` (tick 0.25 s, no
    record latency tracking)."""
    query = get_query(query_name)
    graph = query.flink_graph()
    return Simulator(
        PhysicalPlan(
            graph,
            query.initial_parallelism(graph, TABLE4_SLOTS),
            max_parallelism=36,
        ),
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=False),
    )


def build_wordcount(parallelism: int) -> Simulator:
    """The narrow cell: Heron wordcount, every operator at
    ``parallelism``, configured like the chaos recovery replay."""
    graph = heron_wordcount_graph()
    return build_heron({name: parallelism for name in graph.names})


def build_chaos(flatmap: int, count: int) -> Simulator:
    """A chaos campaign cell's plan: Heron wordcount at source 2,
    sink 1 and the given flatmap/count parallelism."""
    return build_heron(
        {"source": 2, "flatmap": flatmap, "count": count, "sink": 1},
    )


def build_heron(parallelism: Dict[str, int]) -> Simulator:
    """Heron wordcount at ``parallelism``, with the chaos experiment's
    engine configuration."""
    graph = heron_wordcount_graph()
    return Simulator(
        PhysicalPlan(graph, parallelism),
        HeronRuntime(),
        EngineConfig(
            tick=1.0,
            track_record_latency=False,
            source_catchup_factor=1.3,
        ),
    )


def measure_ticks_per_second(sim: Simulator, seconds: float) -> float:
    """Wall-clock ticks/second over ``seconds`` of stepping."""
    ticks = 0
    start = time.perf_counter()  # repro: allow[REPRO101] — profiler measures wall clock
    while time.perf_counter() - start < seconds:  # repro: allow[REPRO101]
        sim.step()
        ticks += 1
    return ticks / (time.perf_counter() - start)  # repro: allow[REPRO101]


def best_ticks_per_second(
    sims: Dict[str, Simulator], seconds: float
) -> Dict[str, float]:
    """Steady-state ticks/second per layout: each simulator warms up,
    then the layouts take :data:`ROUNDS` alternating turns of
    ``seconds / ROUNDS`` each, and each layout keeps its best turn."""
    for sim in sims.values():
        sim.run_for(20 * sim.config.tick)
    best = {name: 0.0 for name in sims}
    for _ in range(ROUNDS):
        for name, sim in sims.items():
            best[name] = max(
                best[name],
                measure_ticks_per_second(sim, seconds / ROUNDS),
            )
    return best


def profile_layout(name: str, slots: int, virtual: float) -> str:
    """cProfile hot-function table of the hot-key Q5 cell for
    ``virtual`` simulated seconds. Only a deployment reads the lane
    layout, and nothing here redeploys."""
    with layout(name):
        sim = build_simulator(slots, HOT_SHARE)
    return profile_steps([sim], virtual)


def profile_steps(sims: List[Simulator], virtual: float) -> str:
    """cProfile hot-function table of stepping each of ``sims`` for
    ``virtual`` simulated seconds, in turn, after a 5 s warm-up."""
    for sim in sims:
        sim.run_for(5.0)
    profiler = cProfile.Profile()
    profiler.enable()
    for sim in sims:
        sim.run_for(virtual)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(20)
    # Drop the absolute-path preamble; keep the table.
    lines = stream.getvalue().splitlines()
    table = [
        line.replace(str(pathlib.Path.cwd()) + "/", "")
        for line in lines
        if line.strip()
    ]
    return "\n".join(table)


def scaling_table(seconds: float) -> Tuple[str, float]:
    """Sweep the width grid; returns the formatted table and the
    speedup measured at the asserted benchmark cell."""
    cells: List[Tuple[str, Callable[[], Simulator]]] = [
        (f"wordcount p={p}", partial(build_wordcount, parallelism=p))
        for p in WORDCOUNT_SWEEP
    ] + [
        (
            f"chaos {flatmap}/{count}",
            partial(build_chaos, flatmap=flatmap, count=count),
        )
        for flatmap, count in CHAOS_SWEEP
    ] + [
        (f"q5 slots={slots}", partial(build_simulator, slots=slots))
        for slots in SWEEP
    ] + [
        (
            f"q5 hot slots={slots}",
            partial(build_simulator, slots=slots, hot_share=HOT_SHARE),
        )
        for slots in HOT_SWEEP
    ] + [
        (f"timely w={workers}", partial(build_timely, workers=workers))
        for workers in TIMELY_SWEEP
    ] + [
        (
            f"timely hot w={workers}",
            partial(build_timely, workers=workers, hot_share=HOT_SHARE),
        )
        for workers in TIMELY_SWEEP
    ]
    rows: List[str] = []
    rows.append(
        f"{'cell':<16} {'widest':>6} {'lanes':>5} "
        f"{'per-instance t/s':>16} {'lanes t/s':>10} {'speedup':>8}"
    )
    bench_speedup = 0.0
    for label, build in cells:
        sims = {}
        for name in LAYOUTS:
            with layout(name):
                sims[name] = build()
        tps = best_ticks_per_second(sims, seconds)
        sim = sims["lanes"]
        speedup = tps["lanes"] / tps["per-instance"]
        if label == f"q5 hot slots={BENCH_SLOTS}":
            bench_speedup = speedup
        plan = sim.plan
        lanes = max(
            len(objects.lane_runs(plan, name)) for name in plan.parallelism
        )
        rows.append(
            f"{label:<16} {max(plan.parallelism.values()):>6} "
            f"{lanes:>5} {tps['per-instance']:>16.0f} "
            f"{tps['lanes']:>10.0f} {speedup:>7.2f}x"
        )
    return "\n".join(rows), bench_speedup


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short measurement windows for local iteration",
    )
    args = parser.parse_args(argv)
    seconds = 0.5 if args.quick else 3.0
    virtual = 20.0 if args.quick else 100.0

    OUTPUT_DIR.mkdir(exist_ok=True)

    print("profiling the table4-short cell ...", flush=True)
    # Ten times the virtual time: a narrow tick is cheap, and the
    # table ranks a few thousand of them.
    table4_virtual = 10 * virtual
    table = profile_steps(
        [build_table4_cell(query) for query in TABLE4_QUERIES],
        table4_virtual,
    )
    sections = [
        f"== cProfile: table4-short cell, flink nexmark "
        f"{'+'.join(TABLE4_QUERIES)} uniform "
        f"parallelism={TABLE4_SLOTS} ({table4_virtual:.0f}s virtual "
        f"each) ==\n{table}"
    ]
    for name in LAYOUTS:
        print(f"profiling {name} ...", flush=True)
        table = profile_layout(name, BENCH_SLOTS, virtual)
        sections.append(
            f"== cProfile: layout={name} nexmark-q5 "
            f"slots={BENCH_SLOTS} hot_items skew={HOT_SHARE} "
            f"({virtual:.0f}s virtual) ==\n{table}"
        )
    profile_text = "\n\n".join(sections)
    (OUTPUT_DIR / "profile_tick.txt").write_text(profile_text + "\n")
    print(profile_text)

    print("measuring scaling table ...", flush=True)
    table, bench_speedup = scaling_table(seconds)
    header = (
        "Engine throughput with lanes and with one lane per instance. "
        "wordcount p=N:\nHeron wordcount, every operator at parallelism "
        "N, tick=1s (the chaos\nrecovery replay's shape). chaos F/C: the "
        "same at source 2, flatmap F,\ncount C, sink 1 (plans the chaos "
        "campaign cells deploy). q5 slots=N:\nNexmark Q5 on the Flink "
        "runtime, tick=0.25s, record latency tracking on;\nQ5 gives the "
        "N slots to the windowed hot_items operator. q5 hot: the same\n"
        f"with {HOT_SHARE:g} of hot_items' input on its instance 0. "
        "timely w=N: Nexmark Q5\non the Timely runtime, every operator "
        "at N workers, tick=0.25s, record\nlatency tracking on; timely "
        "hot: the same with the hot key. widest = the\nplan's widest "
        "operator; lanes = the most lanes of an operator (1 when it\nis "
        "evenly partitioned, 2 with a hot key). t/s = ticks/second, the "
        f"best of\n{ROUNDS} alternating rounds of {seconds / ROUNDS:g}s "
        "per layout.\n"
    )
    speedup_text = (
        header
        + "\n"
        + table
        + "\n\n"
        + f"benchmark cell: hot slots={BENCH_SLOTS}, "
        f"speedup={bench_speedup:.2f}x (asserted >= 5x by\n"
        "benchmarks/test_engine_performance.py::"
        "test_lane_speedup_q5)"
    )
    (OUTPUT_DIR / "engine_speedup.txt").write_text(speedup_text + "\n")
    print()
    print(speedup_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
