"""Additional graph tests for multi-input / multi-path topologies."""

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    flatmap,
    join,
    map_operator,
    sink,
    source,
    tumbling_window,
)
from repro.errors import GraphError


def multi_stage_graph():
    """Two sources, a join, then a window and two sinks."""
    return LogicalGraph(
        [
            source("s1", rate=RateSchedule.constant(100.0)),
            source("s2", rate=RateSchedule.constant(50.0)),
            join("j", costs=CostModel(processing_cost=1e-6),
                 selectivity=0.5),
            tumbling_window("w", length=5.0, fire_selectivity=0.1),
            sink("k1"),
            sink("k2"),
        ],
        [
            Edge("s1", "j"),
            Edge("s2", "j"),
            Edge("j", "w"),
            Edge("w", "k1"),
            Edge("w", "k2"),
        ],
    )


class TestMultiInputTopologies:
    def test_fan_out_to_two_sinks(self):
        graph = multi_stage_graph()
        assert set(graph.downstream("w")) == {"k1", "k2"}
        assert graph.sinks() == ("k1", "k2")

    def test_window_with_two_inputs_allowed(self):
        graph = LogicalGraph(
            [
                source("a", rate=RateSchedule.constant(1.0)),
                source("b", rate=RateSchedule.constant(1.0)),
                tumbling_window("wj", length=5.0, fire_selectivity=0.1),
                sink("k"),
            ],
            [Edge("a", "wj"), Edge("b", "wj"), Edge("wj", "k")],
        )
        assert set(graph.upstream("wj")) == {"a", "b"}

    def test_three_input_join_rejected(self):
        ops = [
            source("a", rate=RateSchedule.constant(1.0)),
            source("b", rate=RateSchedule.constant(1.0)),
            source("c", rate=RateSchedule.constant(1.0)),
            join("j", costs=CostModel(processing_cost=1e-6),
                 selectivity=1.0),
            sink("k"),
        ]
        edges = [Edge("a", "j"), Edge("b", "j"), Edge("c", "j"),
                 Edge("j", "k")]
        with pytest.raises(GraphError, match="two inputs"):
            LogicalGraph(ops, edges)

    def test_long_chain_topological_order(self):
        ops = [source("s", rate=RateSchedule.constant(1.0))]
        edges = []
        previous = "s"
        for index in range(20):
            name = f"m{index}"
            ops.append(
                map_operator(name, costs=CostModel(processing_cost=1e-6))
            )
            edges.append(Edge(previous, name))
            previous = name
        ops.append(sink("k"))
        edges.append(Edge(previous, "k"))
        graph = LogicalGraph(ops, edges)
        order = graph.topological_order()
        assert order[0] == "s"
        assert order[-1] == "k"
        assert len(order) == 22
