"""Unit tests for the Flink/Heron/Timely execution models."""

import math

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.buffers import Queue
from repro.engine.recovery import ContainerRestartRecovery, PeerSyncRecovery
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    TimelyRuntime,
    _waterfill_values,
)
from repro.errors import EngineError


@pytest.fixture
def graph():
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(100.0)),
            map_operator("m", costs=CostModel(processing_cost=1e-3)),
            sink("snk"),
        ],
        [Edge("src", "m"), Edge("m", "snk")],
    )


class TestFlinkRuntime:
    def test_queue_capacity_in_seconds_of_work(self, graph):
        runtime = FlinkRuntime(buffer_seconds=2.0)
        spec = graph.operator("m")
        # 2 seconds of work at 1ms per record = 2000 records.
        assert runtime.queue_capacity(spec, 1) == pytest.approx(2000.0)

    def test_queue_capacity_guard(self, graph):
        runtime = FlinkRuntime(max_queue_records=500.0)
        spec = graph.operator("m")
        assert runtime.queue_capacity(spec, 1) == 500.0

    def test_budget_is_full_tick_per_instance(self, graph):
        runtime = FlinkRuntime()
        plan = PhysicalPlan(graph, {"m": 3})
        budgets = runtime.budgets(plan, {}, dt=0.1)
        granted = [b for values in budgets.values() for b in values]
        assert all(b == pytest.approx(0.1) for b in granted)
        assert len(granted) == 5

    def test_core_contention_scales_budgets(self, graph):
        runtime = FlinkRuntime(cores=2)
        plan = PhysicalPlan(graph, {"m": 6})  # 8 instances on 2 cores
        budgets = runtime.budgets(plan, {}, dt=0.1)
        assert budgets["m"][0] == pytest.approx(0.1 * 2 / 8)

    def test_validation(self):
        with pytest.raises(EngineError):
            FlinkRuntime(buffer_seconds=0.0)
        with pytest.raises(EngineError):
            FlinkRuntime(cores=0)

    def test_blocking_semantics_flags(self):
        runtime = FlinkRuntime()
        assert runtime.sources_blocked_by_backpressure
        assert not runtime.spin_when_idle


class TestHeronRuntime:
    def test_queue_capacity_from_bytes(self, graph):
        runtime = HeronRuntime(queue_bytes=1000.0)
        spec = graph.operator("m")  # default 100 bytes per record
        assert runtime.queue_capacity(spec, 1) == pytest.approx(10.0)

    def test_default_is_100mib(self, graph):
        runtime = HeronRuntime()
        spec = graph.operator("m")
        expected = 100 * 1024 * 1024 / spec.record_bytes
        assert runtime.queue_capacity(spec, 1) == pytest.approx(expected)

    def test_no_instrumentation_overhead(self):
        # Heron gathers the required metrics by default (section 5.6).
        assert HeronRuntime().instrumentation_overhead == 0.0

    def test_higher_backpressure_threshold(self):
        assert HeronRuntime().backpressure_threshold == 0.9


class TestTimelyRuntime:
    def test_unbounded_queues(self, graph):
        runtime = TimelyRuntime()
        assert runtime.queue_capacity(graph.operator("m"), 4) is None

    def test_requires_uniform_parallelism(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {"src": 2, "m": 3, "snk": 2})
        with pytest.raises(EngineError, match="global"):
            runtime.budgets(plan, {}, dt=0.1)

    def test_worker_budget_is_work_conserving(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 2 for name in graph.names})
        demands = {name: [0.0, 0.0] for name in graph.names}
        # Worker 0's map instance has all the pending work.
        demands["m"][0] = 1.0
        budgets = runtime.budgets(plan, demands, dt=0.1)
        # The busy instance gets nearly the whole worker tick (idle
        # co-located instances only receive spin leftovers).
        assert budgets["m"][0] >= 0.09
        # Worker 1 has no active demand at all: pure spin split.
        for name in graph.names:
            assert budgets[name][1] == pytest.approx(0.1 / 3)

    def test_budget_split_among_busy_instances(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 1 for name in graph.names})
        demands = {"src": [1.0], "m": [1.0], "snk": [1.0]}
        budgets = runtime.budgets(plan, demands, dt=0.3)
        # Three equally hungry instances share one worker evenly.
        assert budgets["m"][0] == pytest.approx(0.1)

    def test_per_worker_isolation(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 2 for name in graph.names})
        demands = {name: [1.0, 1.0] for name in graph.names}
        budgets = runtime.budgets(plan, demands, dt=0.3)
        # Each worker runs one instance of each of the 3 operators.
        worker0 = sum(values[0] for values in budgets.values())
        assert worker0 == pytest.approx(0.3)

    def test_waterfills_each_worker_in_topological_order(self, graph):
        """Worker k's budgets are the water-filling of instance k of
        every operator, in topological operator order, bit for bit."""
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 3 for name in graph.names})
        order = ("src", "m", "snk")
        demands = {
            name: [0.01 * (1 + worker + 3 * position) for worker in range(3)]
            for position, name in enumerate(order)
        }
        # Each worker's total demand exceeds its 0.1 s tick.
        budgets = runtime.budgets(plan, demands, dt=0.1)
        for worker in range(3):
            expected = _waterfill_values(
                [demands[name][worker] for name in order], 0.1
            )
            assert [budgets[name][worker] for name in order] == expected

    def test_no_backpressure_semantics(self):
        runtime = TimelyRuntime()
        assert not runtime.sources_blocked_by_backpressure
        assert runtime.spin_when_idle


class TestWaterfillEdgeCases:
    """Regressions for the water-filling core's degenerate inputs
    (empty instance set, no active demand)."""

    def test_empty_demand_list_is_empty_allocation(self):
        assert _waterfill_values([], 0.3) == []

    def test_all_zero_demands_get_even_spin_bonus(self):
        # No active instance: the whole worker tick is spin time,
        # spread evenly — never a division by the empty active set.
        assert _waterfill_values([0.0, 0.0, 0.0], 0.3) == pytest.approx(
            [0.1, 0.1, 0.1]
        )

    def test_negative_demands_treated_as_zero(self):
        allocation = _waterfill_values([-1.0, -5.0], 0.2)
        assert allocation == pytest.approx([0.1, 0.1])

    def test_zero_budget(self):
        assert _waterfill_values([1.0, 2.0], 0.0) == [0.0, 0.0]

    def test_mixed_zero_and_positive_demands(self):
        allocation = _waterfill_values([0.0, 0.05, 0.0], 0.3)
        # The busy position is satisfied; the leftover spin bonus is
        # spread over all three.
        assert allocation[1] >= 0.05
        assert sum(allocation) == pytest.approx(0.3)


@pytest.mark.parametrize(
    "factory, field",
    [
        (FlinkRuntime, "buffer_seconds"),
        (FlinkRuntime, "max_queue_records"),
        (FlinkRuntime, "cores"),
        (HeronRuntime, "queue_bytes"),
        (SavepointModel, "base_seconds"),
        (SavepointModel, "snapshot_bandwidth"),
        (SavepointModel, "redeploy_seconds"),
        (PeerSyncRecovery, "base_seconds"),
        (PeerSyncRecovery, "sync_bandwidth"),
        (PeerSyncRecovery, "rejoin_seconds"),
        (ContainerRestartRecovery, "restart_seconds"),
        (ContainerRestartRecovery, "replay_bandwidth"),
        (Queue, "capacity"),
    ],
)
def test_constructor_rejects_nan_and_accepts_infinity(factory, field):
    """NaN passes ``x <= 0`` and ``x < 0`` alike, so every check is
    written to fail it; infinity (a free redeploy's bandwidth) stays
    allowed."""
    with pytest.raises(EngineError, match=field.split("_")[0]):
        factory(**{field: math.nan})
    factory(**{field: math.inf})
