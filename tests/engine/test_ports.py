"""Tests for per-input-port queues on multi-input operators."""

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    join,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator


def join_graph(fast_rate=50_000.0, slow_rate=500.0, join_cost=1e-5):
    """Two sources of very different rates feeding one join."""
    return LogicalGraph(
        [
            source("fast", rate=RateSchedule.constant(fast_rate)),
            source("slow", rate=RateSchedule.constant(slow_rate)),
            join("merge", costs=CostModel(processing_cost=join_cost),
                 selectivity=0.1),
            sink("snk"),
        ],
        [
            Edge("fast", "merge"),
            Edge("slow", "merge"),
            Edge("merge", "snk"),
        ],
    )


def instances(sim, name):
    """The engine's per-instance state of operator ``name``."""
    return sim._engine.state().operators[name]


def simulator(graph, parallelism, **config):
    config.setdefault("tick", 0.1)
    config.setdefault("track_record_latency", False)
    config.setdefault("instrumentation_enabled", False)
    return Simulator(
        PhysicalPlan(graph, parallelism),
        FlinkRuntime(),
        EngineConfig(**config),
    )


class TestPortStructure:
    def test_join_instances_have_one_queue_per_input(self):
        sim = simulator(join_graph(), {"merge": 2})
        for inst in instances(sim, "merge"):
            assert tuple(inst.ports) == ("fast", "slow")

    def test_sources_have_no_ports(self):
        sim = simulator(join_graph(), {"merge": 1})
        for inst in instances(sim, "fast"):
            assert not inst.ports

    def test_single_input_operator_has_one_port(self, chain_graph):
        sim = Simulator(
            PhysicalPlan(chain_graph, {"worker": 2}),
            FlinkRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        for inst in instances(sim, "worker"):
            assert tuple(inst.ports) == ("src",)


class TestPortIsolation:
    def test_flooding_input_does_not_starve_the_other(self):
        # The join can only handle ~10K rec/s; the fast source floods
        # it 5x over while the slow source trickles. With per-port
        # buffers the slow records still flow at full rate.
        graph = join_graph(fast_rate=50_000.0, slow_rate=500.0,
                           join_cost=1e-4)
        sim = simulator(graph, {"merge": 1})
        sim.run_for(30.0)
        window = sim.collect_metrics()
        assert window.source_observed_rates["slow"] == pytest.approx(
            500.0, rel=0.05
        )
        # The fast source is the one being backpressured.
        assert window.source_observed_rates["fast"] < 15_000.0

    def test_per_port_backpressure_only_blocks_the_flooder(self):
        graph = join_graph(fast_rate=50_000.0, slow_rate=500.0,
                           join_cost=1e-4)
        sim = simulator(graph, {"merge": 1})
        sim.run_for(30.0)
        capacity = sim.runtime.queue_capacity(sim.graph.operator("merge"), 1)
        merge = instances(sim, "merge")
        fast_fill = max(i.ports["fast"].length for i in merge) / capacity
        slow_fill = max(i.ports["slow"].length for i in merge) / capacity
        assert fast_fill > 0.9
        assert slow_fill < 0.5

    def test_proportional_pull_serves_both_ports(self):
        # With ample capacity both inputs are consumed fully.
        graph = join_graph(fast_rate=5_000.0, slow_rate=500.0,
                           join_cost=1e-5)
        sim = simulator(graph, {"merge": 1})
        sim.run_for(20.0)
        window = sim.collect_metrics()
        assert window.observed_processing_rate("merge") == pytest.approx(
            5_500.0, rel=0.02
        )


class TestPortRescale:
    def test_per_port_contents_survive_redeploy(self):
        graph = join_graph(fast_rate=50_000.0, slow_rate=500.0,
                           join_cost=1e-4)
        sim = Simulator(
            PhysicalPlan(graph, {"merge": 1}),
            FlinkRuntime(savepoint=SavepointModel.instant()),
            EngineConfig(
                tick=0.1, track_record_latency=False,
                instrumentation_enabled=False,
            ),
        )
        sim.run_for(10.0)
        before = {
            port: sum(i.ports[port].length for i in instances(sim, "merge"))
            for port in ("fast", "slow")
        }
        assert before["fast"] > 0
        sim.rescale({"merge": 4})
        after = {
            port: sum(i.ports[port].length for i in instances(sim, "merge"))
            for port in ("fast", "slow")
        }
        for port in before:
            assert after[port] == pytest.approx(before[port], rel=1e-6)
