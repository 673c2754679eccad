"""Every built-in workload graph builds and deploys.

``LogicalGraph`` and ``PhysicalPlan`` validate at construction, so
building each graph the experiments use and running it for one tick
is the whole well-formedness audit of the workload catalog.
"""

import pytest

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.workloads.nexmark import ALL_QUERIES, EXTENDED_QUERIES
from repro.workloads.skew import heron_skewed_wordcount
from repro.workloads.wordcount import (
    flink_wordcount_graph,
    heron_wordcount_graph,
)

TICK = 0.5


def _uniform(graph):
    return PhysicalPlan(graph, {name: 1 for name in graph.names})


def _cases():
    """(id, plan builder, runtime class) for every built-in graph: the
    three wordcount variants, then each paper and extended Nexmark
    query on Flink and on Timely."""
    cases = [
        ("wordcount-heron",
         lambda: _uniform(heron_wordcount_graph()), HeronRuntime),
        ("wordcount-flink",
         lambda: _uniform(flink_wordcount_graph()), FlinkRuntime),
        ("wordcount-skew",
         lambda: heron_skewed_wordcount(0.5), HeronRuntime),
    ]
    for query in tuple(ALL_QUERIES) + tuple(EXTENDED_QUERIES):
        name = query.name.lower()
        cases.append((
            f"{name}-flink",
            lambda q=query: _uniform(q.flink_graph()),
            FlinkRuntime,
        ))
        cases.append((
            f"{name}-timely",
            lambda q=query: _uniform(q.timely_graph()),
            TimelyRuntime,
        ))
    return cases


CASES = _cases()


def test_catalog_covers_every_workload():
    ids = [case_id for case_id, _, _ in CASES]
    assert len(ids) == len(set(ids))
    assert len(ids) == 3 + 2 * (len(ALL_QUERIES) + len(EXTENDED_QUERIES))


@pytest.mark.parametrize(
    "build, runtime",
    [(build, runtime) for _, build, runtime in CASES],
    ids=[case_id for case_id, _, _ in CASES],
)
def test_builtin_graph_deploys(build, runtime):
    plan = build()
    assert set(plan.parallelism.values()) == {1}
    simulator = Simulator(
        plan, runtime(), EngineConfig(tick=TICK, track_record_latency=False)
    )
    stats = simulator.step()
    assert stats.time == pytest.approx(TICK)
    for name in plan.graph.sources():
        assert stats.source_emitted[name] > 0
