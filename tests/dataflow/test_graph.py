"""Unit tests for logical graph construction and traversal."""

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    filter_operator,
    flatmap,
    join,
    map_operator,
    sink,
    source,
)
from repro.errors import GraphError


def _src(name="src", rate=100.0):
    return source(name, rate=RateSchedule.constant(rate))


def _map(name):
    return map_operator(name, costs=CostModel(processing_cost=1e-6))


class TestConstruction:
    def test_minimal_chain(self):
        graph = LogicalGraph(
            [_src(), _map("m"), sink("k")],
            [Edge("src", "m"), Edge("m", "k")],
        )
        assert len(graph) == 3
        assert "m" in graph

    def test_from_chain_builds_edges(self):
        graph = LogicalGraph.from_chain([_src(), _map("m"), sink("k")])
        assert graph.downstream("src") == ("m",)
        assert graph.downstream("m") == ("k",)

    def test_from_chain_needs_two_operators(self):
        with pytest.raises(GraphError):
            LogicalGraph.from_chain([_src()])

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            LogicalGraph(
                [_src(), _map("m"), _map("m"), sink("k")],
                [Edge("src", "m"), Edge("m", "k")],
            )

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown operator"):
            LogicalGraph(
                [_src(), sink("k")],
                [Edge("src", "ghost"), Edge("src", "k")],
            )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            LogicalGraph(
                [_src(), _map("m"), sink("k")],
                [Edge("src", "m"), Edge("src", "m"), Edge("m", "k")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Edge("m", "m")

    def test_cycle_rejected(self):
        ops = [_src(), _map("a"), _map("b"), sink("k")]
        edges = [
            Edge("src", "a"),
            Edge("a", "b"),
            Edge("b", "a"),
            Edge("b", "k"),
        ]
        with pytest.raises(GraphError, match="cycle"):
            LogicalGraph(ops, edges)

    def test_source_with_incoming_edge_rejected(self):
        ops = [_src(), _src("src2"), _map("m"), sink("k")]
        edges = [
            Edge("src", "m"),
            Edge("m", "k"),
            Edge("src", "src2"),
        ]
        with pytest.raises(GraphError):
            LogicalGraph(ops, edges)

    def test_sink_with_outgoing_edge_rejected(self):
        ops = [_src(), _map("m"), sink("k")]
        edges = [Edge("src", "k"), Edge("k", "m"), Edge("m", "k")]
        with pytest.raises(GraphError):
            LogicalGraph(ops, edges)

    def test_dangling_operator_rejected(self):
        ops = [_src(), _map("m"), _map("orphan"), sink("k")]
        edges = [Edge("src", "m"), Edge("m", "k")]
        with pytest.raises(GraphError):
            LogicalGraph(ops, edges)

    def test_unfed_operator_rejected(self):
        # Feeds the sink but is reachable from no source.
        ops = [_src(), _map("m"), _map("unfed"), sink("k")]
        edges = [Edge("src", "m"), Edge("m", "k"), Edge("unfed", "k")]
        with pytest.raises(GraphError, match="no incoming edges"):
            LogicalGraph(ops, edges)

    def test_dead_end_operator_rejected(self):
        # Fed by the source but reaches no sink.
        ops = [_src(), _map("m"), _map("dead"), sink("k")]
        edges = [Edge("src", "m"), Edge("m", "k"), Edge("src", "dead")]
        with pytest.raises(GraphError, match="no outgoing edges"):
            LogicalGraph(ops, edges)

    def test_graph_without_source_rejected(self):
        # A map with no incoming edges is caught as a non-source with
        # no inputs.
        with pytest.raises(GraphError):
            LogicalGraph([_map("m"), sink("k")], [Edge("m", "k")])

    def test_graph_without_sink_rejected(self):
        with pytest.raises(GraphError):
            LogicalGraph([_src(), _map("m")], [Edge("src", "m")])

    def test_join_requires_exactly_two_inputs(self):
        ops = [
            _src(),
            join("j", costs=CostModel(processing_cost=1e-6),
                 selectivity=1.0),
            sink("k"),
        ]
        edges = [Edge("src", "j"), Edge("j", "k")]
        with pytest.raises(GraphError, match="two inputs"):
            LogicalGraph(ops, edges)


class TestTraversal:
    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        for edge in diamond_graph.edges:
            assert order.index(edge.upstream) < order.index(
                edge.downstream
            )

    def test_sources_come_first(self, diamond_graph):
        order = diamond_graph.topological_order()
        assert order[0] == "src"

    def test_multi_source_order(self):
        ops = [
            _src("s1"),
            _src("s2"),
            join("j", costs=CostModel(processing_cost=1e-6),
                 selectivity=1.0),
            sink("k"),
        ]
        edges = [Edge("s1", "j"), Edge("s2", "j"), Edge("j", "k")]
        graph = LogicalGraph(ops, edges)
        order = graph.topological_order()
        assert set(order[:2]) == {"s1", "s2"}
        assert graph.sources() == ("s1", "s2")

    def test_upstream_downstream(self, diamond_graph):
        assert set(diamond_graph.downstream("src")) == {"left", "right"}
        assert set(diamond_graph.upstream("merge")) == {"left", "right"}
        assert diamond_graph.upstream("src") == ()
        assert diamond_graph.downstream("snk") == ()

    def test_unknown_operator_raises(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.operator("ghost")
        with pytest.raises(GraphError):
            chain_graph.upstream("ghost")
        with pytest.raises(GraphError):
            chain_graph.downstream("ghost")

    def test_scalable_operators_excludes_sources_and_sinks(
        self, diamond_graph
    ):
        scalable = diamond_graph.scalable_operators()
        assert "src" not in scalable
        assert "snk" not in scalable
        assert set(scalable) == {"left", "right", "merge"}

    def test_adjacency_matches_edges(self, diamond_graph):
        adjacency = diamond_graph.adjacency()
        assert adjacency["src"]["left"]
        assert adjacency["src"]["right"]
        assert not adjacency["left"]["right"]
        assert not adjacency["snk"]["src"]

    def test_paths_from_sources(self, diamond_graph):
        paths = diamond_graph.paths_from_sources("snk")
        assert sorted(paths) == [
            ("src", "left", "merge", "snk"),
            ("src", "right", "merge", "snk"),
        ]

    def test_expected_selectivity_chain(self):
        ops = [
            _src(),
            flatmap("f", costs=CostModel(processing_cost=1e-6),
                    selectivity=20.0),
            filter_operator("g", costs=CostModel(processing_cost=1e-6),
                            pass_ratio=0.5),
            sink("k"),
        ]
        graph = LogicalGraph.from_chain(ops)
        # Each source record -> 20 words -> 10 pass the filter.
        assert graph.expected_selectivity_to("k") == pytest.approx(10.0)

    def test_expected_selectivity_diamond_sums_paths(
        self, diamond_graph
    ):
        # left passes 1.0, right passes 0.5, merge emits 1 per input.
        assert diamond_graph.expected_selectivity_to(
            "merge"
        ) == pytest.approx(1.5)

    def test_repr_contains_operators(self, chain_graph):
        assert "worker" in repr(chain_graph)
