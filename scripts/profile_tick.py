#!/usr/bin/env python
"""Profile the simulator tick loop and measure backend speedup.

Produces the two committed performance artifacts that back
``docs/performance.md``:

* ``benchmarks/output/profile_tick.txt`` — cProfile hot-function
  tables for the ``object`` and ``vector`` engine backends on the
  Nexmark Q5 benchmark cell, so regressions show up as a changed
  ranking rather than a vague slowdown;
* ``benchmarks/output/engine_speedup.txt`` — ticks/second for both
  backends across a width sweep, from the narrow Heron wordcount
  deployments of the chaos experiment's recovery replay, through the
  plans DS2 deploys in the chaos campaign cells, to Q5 at 512 slots.
  It shows where the struct-of-arrays backend's advantage comes from
  (the object backend's per-instance Python work scales with
  parallelism, the vector backend's is near-flat), where the two cross,
  and which backend the default width rule
  (:func:`repro.engine.vectorized.width_backend`) picks for a
  deployment of each plan.

Usage::

    PYTHONPATH=src python scripts/profile_tick.py [--quick]

``--quick`` shortens the measured windows (~5x faster, noisier
numbers) for local iteration; the committed artifacts are produced by
a full run. The simulation itself is deterministic virtual time — only
the wall-clock timings vary between runs.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pathlib
import pstats
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.engine.vectorized import BACKENDS, width_backend
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import heron_wordcount_graph

OUTPUT_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/output"
)

#: Q5 part of the sweep (slots handed to ``initial_parallelism``; Q5
#: gives them to the windowed operator).
SWEEP = (8, 16, 32, 64, 128, 256, 512)

#: Narrow part of the sweep: Heron wordcount with every operator at
#: this parallelism, the shape of the chaos recovery replay.
WORDCOUNT_SWEEP = (1, 2, 4, 8)

#: Chaos part of the sweep: (flatmap, count) parallelism of the Heron
#: wordcount plans the chaos campaign cells deploy (source 2, sink 1),
#: from the initial plan to the one DS2 converges to.
CHAOS_SWEEP = ((1, 1), (2, 3), (2, 7), (5, 10), (10, 20))

#: The benchmark cell asserted by
#: ``benchmarks/test_engine_performance.py`` (>= 5x).
BENCH_SLOTS = 256


def build_simulator(backend: str, slots: int) -> Simulator:
    """The Q5 benchmark cell: Flink runtime, sliding window, record
    latency tracking on (the most instrumented configuration)."""
    query = get_query("Q5")
    graph = query.flink_graph()
    parallelism = query.initial_parallelism(graph, slots)
    plan = PhysicalPlan(
        graph,
        parallelism,
        max_parallelism=max(parallelism.values()) + 8,
    )
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.25, track_record_latency=True),
        backend=backend,
    )


def build_wordcount(backend: str, parallelism: int) -> Simulator:
    """The narrow cell: Heron wordcount, every operator at
    ``parallelism``, configured like the chaos recovery replay."""
    graph = heron_wordcount_graph()
    return build_heron(
        backend, {name: parallelism for name in graph.names}
    )


def build_chaos(backend: str, flatmap: int, count: int) -> Simulator:
    """A chaos campaign cell's plan: Heron wordcount at source 2,
    sink 1 and the given flatmap/count parallelism."""
    return build_heron(
        backend,
        {"source": 2, "flatmap": flatmap, "count": count, "sink": 1},
    )


def build_heron(backend: str, parallelism: Dict[str, int]) -> Simulator:
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
        backend=backend,
    )


def measure_ticks_per_second(sim: Simulator, seconds: float) -> float:
    """Steady-state wall-clock ticks/second after a warm-up."""
    sim.run_for(20 * sim.config.tick)
    ticks = 0
    start = time.perf_counter()  # repro: allow[REPRO101] — profiler measures wall clock
    while time.perf_counter() - start < seconds:  # repro: allow[REPRO101]
        sim.step()
        ticks += 1
    return ticks / (time.perf_counter() - start)  # repro: allow[REPRO101]


def profile_backend(backend: str, slots: int, virtual: float) -> str:
    """cProfile hot-function table for ``virtual`` simulated seconds."""
    sim = build_simulator(backend, slots)
    sim.run_for(5.0)
    profiler = cProfile.Profile()
    profiler.enable()
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
    cells: List[Tuple[str, Callable[[str], Simulator]]] = [
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
    ]
    rows: List[str] = []
    rows.append(
        f"{'cell':<16} {'widest':>6} {'object t/s':>11} "
        f"{'vector t/s':>11} {'speedup':>8} {'default':>8}"
    )
    bench_speedup = 0.0
    for label, build in cells:
        tps = {
            backend: measure_ticks_per_second(build(backend), seconds)
            for backend in BACKENDS
        }
        speedup = tps["vector"] / tps["object"]
        if label == f"q5 slots={BENCH_SLOTS}":
            bench_speedup = speedup
        plan = build("object").plan
        rows.append(
            f"{label:<16} {max(plan.parallelism.values()):>6} "
            f"{tps['object']:>11.0f} {tps['vector']:>11.0f} "
            f"{speedup:>7.2f}x {width_backend(plan):>8}"
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

    sections = []
    for backend in BACKENDS:
        print(f"profiling {backend} backend ...", flush=True)
        table = profile_backend(backend, BENCH_SLOTS, virtual)
        sections.append(
            f"== cProfile: backend={backend} nexmark-q5 "
            f"slots={BENCH_SLOTS} ({virtual:.0f}s virtual) ==\n{table}"
        )
    profile_text = "\n\n".join(sections)
    (OUTPUT_DIR / "profile_tick.txt").write_text(profile_text + "\n")
    print(profile_text)

    print("measuring scaling table ...", flush=True)
    table, bench_speedup = scaling_table(seconds)
    header = (
        "Engine backend throughput. wordcount p=N: Heron wordcount, "
        "every operator\nat parallelism N, tick=1s (the chaos recovery "
        "replay's shape). chaos F/C:\nthe same at source 2, flatmap F, "
        "count C, sink 1 (plans the chaos\ncampaign cells deploy). "
        "q5 slots=N:\nNexmark Q5 on the Flink runtime, "
        "tick=0.25s, record latency tracking on;\nQ5 gives the N slots "
        "to the windowed hot_items operator. widest = the\nplan's widest "
        "operator; default = the backend width_backend picks for a\n"
        "deployment of it when nothing is pinned.\n"
    )
    speedup_text = (
        header
        + "\n"
        + table
        + "\n\n"
        + f"benchmark cell: slots={BENCH_SLOTS}, "
        f"speedup={bench_speedup:.2f}x (asserted >= 5x by\n"
        "benchmarks/test_engine_performance.py::"
        "test_vector_backend_speedup_q5)"
    )
    (OUTPUT_DIR / "engine_speedup.txt").write_text(speedup_text + "\n")
    print()
    print(speedup_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
