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

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


def one_instance_lanes(plan):
    """Every instance its own lane, per operator in topological
    order: the lane layout under which a lane's budget is its one
    instance's."""
    return {
        name: (1,) * plan.parallelism_of(name)
        for name in plan.graph.topological_order()
    }


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
        budgets = runtime.budgets(plan, one_instance_lanes(plan), {}, dt=0.1)
        granted = [b for values in budgets.values() for b in values]
        assert all(b == pytest.approx(0.1) for b in granted)
        assert len(granted) == 5

    def test_core_contention_scales_budgets(self, graph):
        runtime = FlinkRuntime(cores=2)
        plan = PhysicalPlan(graph, {"m": 6})  # 8 instances on 2 cores
        budgets = runtime.budgets(plan, one_instance_lanes(plan), {}, dt=0.1)
        assert budgets["m"][0] == pytest.approx(0.1 * 2 / 8)

    def test_one_budget_per_lane(self, graph):
        runtime = FlinkRuntime(cores=2)
        plan = PhysicalPlan(graph, {"m": 8})  # 10 instances on 2 cores
        lanes = {"src": (1,), "m": (1, 7), "snk": (1,)}
        budgets = runtime.budgets(plan, lanes, {}, dt=0.1)
        value = 0.1 * (2 / 10)
        assert budgets == {"src": [value], "m": [value] * 2, "snk": [value]}

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
            runtime.validate_plan(plan)

    def test_worker_budget_is_work_conserving(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 2 for name in graph.names})
        demands = {name: [0.0, 0.0] for name in graph.names}
        # Worker 0's map instance has all the pending work.
        demands["m"][0] = 1.0
        budgets = runtime.budgets(
            plan, one_instance_lanes(plan), demands, dt=0.1
        )
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
        budgets = runtime.budgets(
            plan, one_instance_lanes(plan), demands, dt=0.3
        )
        # Three equally hungry instances share one worker evenly.
        assert budgets["m"][0] == pytest.approx(0.1)

    def test_per_worker_isolation(self, graph):
        runtime = TimelyRuntime()
        plan = PhysicalPlan(graph, {name: 2 for name in graph.names})
        demands = {name: [1.0, 1.0] for name in graph.names}
        budgets = runtime.budgets(
            plan, one_instance_lanes(plan), demands, dt=0.3
        )
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
        budgets = runtime.budgets(
            plan, one_instance_lanes(plan), demands, dt=0.1
        )
        for worker in range(3):
            expected = _waterfill_values(
                [demands[name][worker] for name in order], 0.1
            )
            assert [budgets[name][worker] for name in order] == expected

    def test_no_backpressure_semantics(self):
        runtime = TimelyRuntime()
        assert not runtime.sources_blocked_by_backpressure
        assert runtime.spin_when_idle


def _builtin_waterfill(demands, budget):
    """The water-fill written with the ``min``/``max`` builtins, the
    reference for :func:`_waterfill_values`'s inline comparisons."""
    if not demands:
        return []
    remaining = budget
    allocation = [0.0] * len(demands)
    unsatisfied = [max(0.0, demand) for demand in demands]
    active = [index for index, want in enumerate(unsatisfied) if want > 0]
    while active and remaining > 1e-12:
        share = remaining / len(active)
        next_active = []
        for index in active:
            grant = min(share, unsatisfied[index])
            allocation[index] += grant
            unsatisfied[index] -= grant
            remaining -= grant
            if unsatisfied[index] > 1e-12:
                next_active.append(index)
        if len(next_active) == len(active):
            share = remaining / len(active)
            for index in active:
                allocation[index] += share
            remaining = 0.0
            break
        active = next_active
    if remaining > 1e-12:
        bonus = remaining / len(demands)
        for index in range(len(demands)):
            allocation[index] += bonus
    return allocation


def _per_worker_budgets(order, columns, dt):
    """Timely's per-worker budgets: worker k water-fills instance k of
    every operator, in topological order."""
    workers = len(columns[0])
    out = {name: [0.0] * workers for name in order}
    for worker in range(workers):
        allocation = _builtin_waterfill(
            [column[worker] for column in columns], dt
        )
        for name, value in zip(order, allocation):
            out[name][worker] = value
    return out


def _chain(length):
    """A source, ``length - 2`` maps and a sink in a row."""
    names = ["src"] + [f"m{i}" for i in range(length - 2)] + ["snk"]
    operators = (
        [source("src", rate=RateSchedule.constant(100.0))]
        + [
            map_operator(name, costs=CostModel(processing_cost=1e-3))
            for name in names[1:-1]
        ]
        + [sink("snk")]
    )
    return LogicalGraph(
        operators, [Edge(a, b) for a, b in zip(names, names[1:])]
    )


if HAVE_HYPOTHESIS:

    _demand = st.one_of(
        st.just(0.0),
        st.floats(min_value=-0.01, max_value=0.5, allow_nan=False),
    )

    @st.composite
    def _lane_cuts(draw):
        """A worker count and the first worker of each lane after the
        first: any cuts, a hot key's ``[0]``, ``[1..P-1]``, or none."""
        workers = draw(st.integers(min_value=1, max_value=24))
        if workers == 1:
            return workers, []
        cuts = draw(
            st.one_of(
                st.just({1}),
                st.just(set()),
                st.sets(st.integers(min_value=1, max_value=workers - 1)),
            )
        )
        return workers, sorted(cuts)

    @given(
        length=st.integers(min_value=2, max_value=5),
        cut=_lane_cuts(),
        dt=st.sampled_from([0.1, 0.25, 1.0, 0.3]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_per_lane_budgets_equal_per_worker_waterfill(
        length, cut, dt, data
    ):
        """Per-lane Timely budgets, each repeated over its lane's
        workers, equal the per-worker water-fill of the expanded demand
        columns (with the builtins' ``min``/``max``), as float hex."""
        workers, cuts = cut
        graph = _chain(length)
        order = graph.topological_order()
        plan = PhysicalPlan(graph, {name: workers for name in order})
        bounds = [0] + cuts + [workers]
        counts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        lanes = {name: counts for name in order}
        demands = {
            name: data.draw(
                st.lists(
                    _demand, min_size=len(counts), max_size=len(counts)
                )
            )
            for name in order
        }
        budgets = TimelyRuntime().budgets(plan, lanes, demands, dt)
        expanded = {
            name: [
                value
                for value, count in zip(budgets[name], counts)
                for _ in range(count)
            ]
            for name in order
        }
        columns = [
            [
                value
                for value, count in zip(demands[name], counts)
                for _ in range(count)
            ]
            for name in order
        ]
        reference = _per_worker_budgets(order, columns, dt)
        assert {
            name: [value.hex() for value in values]
            for name, values in expanded.items()
        } == {
            name: [value.hex() for value in values]
            for name, values in reference.items()
        }


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
