"""Unit tests for physical plans, partitioning, and channels."""

import math

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    OperatorSpec,
    OperatorKind,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import (
    Channel,
    InstanceId,
    Partitioner,
    PhysicalPlan,
    skewed_weights,
    uniform_weights,
)
from repro.errors import PlanError


class TestInstanceId:
    def test_ordering_and_str(self):
        a = InstanceId("op", 0)
        b = InstanceId("op", 1)
        assert a < b
        assert str(b) == "op[1]"

    def test_negative_index_rejected(self):
        with pytest.raises(PlanError):
            InstanceId("op", -1)


class TestWeights:
    def test_uniform_weights_sum_to_one(self):
        weights = uniform_weights(7)
        assert len(weights) == 7
        assert sum(weights) == pytest.approx(1.0)

    def test_uniform_weights_rejects_zero(self):
        with pytest.raises(PlanError):
            uniform_weights(0)

    def test_skewed_weights_hot_instance(self):
        weights = skewed_weights(5, skew=0.6)
        assert weights[0] == pytest.approx(0.6)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w == pytest.approx(0.1) for w in weights[1:])

    def test_skew_below_uniform_clamps_to_uniform_share(self):
        weights = skewed_weights(4, skew=0.1)
        assert weights[0] == pytest.approx(0.25)
        assert sum(weights) == pytest.approx(1.0)

    def test_skewed_single_instance(self):
        assert skewed_weights(1, skew=0.7) == (1.0,)

    def test_skew_range_validated(self):
        with pytest.raises(PlanError):
            skewed_weights(3, skew=1.5)


class TestPartitioner:
    def test_default_is_uniform(self):
        partitioner = Partitioner()
        assert partitioner.weights("op", 4) == uniform_weights(4)
        assert partitioner.skew_for("op") == 0.0

    def test_configured_skew(self):
        partitioner = Partitioner({"hot": 0.5})
        weights = partitioner.weights("hot", 4)
        assert weights[0] == pytest.approx(0.5)
        assert partitioner.weights("cold", 4) == uniform_weights(4)

    def test_invalid_skew_rejected(self):
        with pytest.raises(PlanError):
            Partitioner({"op": 2.0})


class TestChannel:
    def test_weight_validated(self):
        with pytest.raises(PlanError):
            Channel(
                upstream=InstanceId("a", 0),
                downstream=InstanceId("b", 0),
                weight=1.5,
            )


class TestPhysicalPlan:
    def test_defaults_to_parallelism_one(self, chain_graph):
        plan = PhysicalPlan(chain_graph, {})
        assert plan.parallelism == {"src": 1, "worker": 1, "snk": 1}

    def test_parallelism_must_be_positive(self, chain_graph):
        with pytest.raises(PlanError):
            PhysicalPlan(chain_graph, {"worker": 0})

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True, "2"])
    def test_parallelism_must_be_an_integer(self, chain_graph, value):
        """Both validators name the operator: the constructor, and
        clamped, which a rescale request goes through."""
        with pytest.raises(PlanError, match="'worker' must be an integer"):
            PhysicalPlan(chain_graph, {"worker": value})
        plan = PhysicalPlan(chain_graph, {}, max_parallelism=8)
        with pytest.raises(PlanError, match="'worker' must be an integer"):
            plan.clamped({"worker": value})

    def test_integral_parallelism_stored_as_int(self, chain_graph):
        plan = PhysicalPlan(chain_graph, {"worker": 3.0})
        assert type(plan.parallelism_of("worker")) is int
        clamped = plan.clamped({"worker": -2.0})
        assert type(clamped.parallelism_of("worker")) is int
        assert clamped.parallelism == {"src": 1, "worker": 1, "snk": 1}

    def test_unknown_operator_rejected(self, chain_graph):
        with pytest.raises(PlanError, match="unknown"):
            PhysicalPlan(chain_graph, {"ghost": 2})

    def test_slot_limit_enforced(self, chain_graph):
        with pytest.raises(PlanError, match="slot limit"):
            PhysicalPlan(chain_graph, {"worker": 40}, max_parallelism=36)

    def test_non_data_parallel_pinned(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(10.0)),
                OperatorSpec(
                    name="solo",
                    kind=OperatorKind.MAP,
                    costs=CostModel(processing_cost=1e-6),
                    data_parallel=False,
                ),
                sink("snk"),
            ],
            [Edge("src", "solo"), Edge("solo", "snk")],
        )
        with pytest.raises(PlanError, match="not data-parallel"):
            PhysicalPlan(graph, {"solo": 2})

    def test_instances_enumeration(self, chain_plan):
        instances = chain_plan.instances("worker")
        assert instances == (
            InstanceId("worker", 0),
            InstanceId("worker", 1),
        )
        assert chain_plan.total_instances == 4
        assert len(chain_plan.all_instances()) == 4

    def test_channels_cover_all_edges(self, chain_plan):
        channels = chain_plan.channels()
        # src(1) -> worker(2): 2 channels; worker(2) -> snk(1): 2.
        assert len(channels) == 4
        worker_inputs = [
            c for c in channels if c.downstream.operator == "worker"
        ]
        assert sum(c.weight for c in worker_inputs) == pytest.approx(1.0)

    def test_with_parallelism_returns_new_plan(self, chain_plan):
        updated = chain_plan.with_parallelism({"worker": 5})
        assert updated.parallelism_of("worker") == 5
        assert chain_plan.parallelism_of("worker") == 2

    def test_with_parallelism_unknown_rejected(self, chain_plan):
        with pytest.raises(PlanError):
            chain_plan.with_parallelism({"ghost": 2})

    def test_clamped_applies_bounds(self, chain_graph):
        plan = PhysicalPlan(chain_graph, {}, max_parallelism=8)
        clamped = plan.clamped({"worker": 100})
        assert clamped.parallelism_of("worker") == 8
        clamped = plan.clamped({"worker": -3})
        assert clamped.parallelism_of("worker") == 1

    def test_equality_by_parallelism(self, chain_graph):
        a = PhysicalPlan(chain_graph, {"worker": 2})
        b = PhysicalPlan(chain_graph, {"worker": 2})
        c = PhysicalPlan(chain_graph, {"worker": 3})
        assert a == b
        assert a != c

    def test_input_weights_reflect_skew(self, chain_graph):
        plan = PhysicalPlan(
            chain_graph,
            {"worker": 4},
            partitioner=Partitioner({"worker": 0.7}),
        )
        weights = plan.input_weights("worker")
        assert weights[0] == pytest.approx(0.7)

    def test_parallelism_of_unknown_raises(self, chain_plan):
        with pytest.raises(PlanError):
            chain_plan.parallelism_of("ghost")
