"""The engine's lanes: one ``_Instance`` stands for a run of
consecutive instances with equal input weights.

The bit-identity of lanes against separate instances is checked by the
lanes-vs-per-instance comparisons in ``test_lane_equivalence.py`` and
by the counted water-fill property in ``test_allocation.py``; these
tests pin the lane layout itself and the guards around it.
"""

import pytest

from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.engine.objects import lane_runs
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import heron_wordcount_graph


def _sim(runtime, parallelism, skew=None):
    graph = heron_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        parallelism,
        max_parallelism=24,
        partitioner=Partitioner(skew),
    )
    return Simulator(
        plan,
        runtime,
        EngineConfig(tick=0.5, track_record_latency=False),
    )


def _lane_counts(sim):
    return {
        name: [lane.count for lane in lanes]
        for name, lanes in sim._engine._lanes.items()
    }


WIDE = {"source": 2, "flatmap": 6, "count": 4, "sink": 1}


def _plan(parallelism, skew=None):
    return PhysicalPlan(
        heron_wordcount_graph(),
        parallelism,
        max_parallelism=24,
        partitioner=Partitioner(skew),
    )


class TestLaneRuns:
    def test_even_weights_are_one_run(self):
        assert lane_runs(_plan(WIDE), "flatmap") == [(0, 6)]

    def test_hot_instance_then_the_rest(self):
        plan = _plan(WIDE, skew={"count": 0.5})
        assert lane_runs(plan, "count") == [(0, 1), (1, 3)]

    def test_width_one_and_two(self):
        plan = _plan({"count": 2, "sink": 1}, skew={"count": 0.7})
        assert lane_runs(plan, "count") == [(0, 1), (1, 1)]
        assert lane_runs(plan, "sink") == [(0, 1)]

    def test_skew_below_the_even_share_is_even(self):
        plan = _plan(WIDE, skew={"count": 0.2})
        assert lane_runs(plan, "count") == [(0, 4)]


class TestLayout:
    def test_even_operators_run_as_one_lane(self):
        sim = _sim(FlinkRuntime(), WIDE)
        assert _lane_counts(sim) == {name: [p] for name, p in WIDE.items()}

    def test_skewed_operator_runs_two_lanes(self):
        """The hot instance, then one lane for the instances that share
        the rest evenly; the other operators stay one lane each."""
        for runtime in (FlinkRuntime(), HeronRuntime()):
            sim = _sim(runtime, WIDE, skew={"count": 0.5})
            counts = _lane_counts(sim)
            assert counts["count"] == [1, 3]
            assert counts["flatmap"] == [6]
            assert counts["source"] == [2]

    def test_skew_on_timely_splits_every_operator(self):
        """Timely water-fills each worker's time over every operator's
        demand, so every operator is cut where any operator's run
        starts: with a hot key, worker 0 and workers 1..P-1."""
        even = _sim(TimelyRuntime(), dict.fromkeys(WIDE, 3))
        assert set(map(tuple, _lane_counts(even).values())) == {(3,)}
        skewed = _sim(
            TimelyRuntime(), dict.fromkeys(WIDE, 5), skew={"count": 0.5}
        )
        assert set(map(tuple, _lane_counts(skewed).values())) == {(1, 4)}

    def test_rescale_rebuilds_lanes(self):
        sim = _sim(FlinkRuntime(), WIDE, skew={"count": 0.5})
        sim.run_for(5.0)
        sim.rescale({"count": 1, "flatmap": 2})
        sim.run_until(sim.time + 100.0)
        assert _lane_counts(sim)["count"] == [1]
        assert _lane_counts(sim)["flatmap"] == [2]


class TestMaterialize:
    def test_one_snapshot_per_instance(self):
        sim = _sim(FlinkRuntime(), WIDE)
        sim.run_for(10.0)
        (lane,) = sim._engine._lanes["count"]
        instances = sim._instances["count"]
        assert [inst.iid.index for inst in instances] == [0, 1, 2, 3]
        for inst in instances:
            assert inst.count == 1
            assert inst.total_queue_length == lane.total_queue_length
        assert sim.queue_length("count") == sum(
            inst.pending_records for inst in instances
        )

    def test_snapshots_are_detached(self):
        sim = _sim(FlinkRuntime(), WIDE)
        sim.run_for(10.0)
        before = sim.queue_length("count")
        for inst in sim._instances["count"]:
            inst.ports["flatmap"].force_push(1000.0)
        assert sim.queue_length("count") == before

    def test_window_state_is_copied(self):
        graph = get_query("Q5").flink_graph()
        sim = Simulator(
            PhysicalPlan(graph, {"bids": 1, "hot_items": 4, "sink": 1}),
            FlinkRuntime(),
            EngineConfig(tick=0.25),
        )
        sim.run_for(1.3)
        (lane,) = sim._engine._lanes["hot_items"]
        snapshot = sim._instances["hot_items"][2]
        assert snapshot.window is not lane.window
        assert snapshot.window.buffered == lane.window.buffered > 0
        assert snapshot.window.next_fire == lane.window.next_fire


class _UnevenFlink(FlinkRuntime):
    """Flink that grants instance 0 of every operator half a tick."""

    def budgets(self, plan, demands, dt):
        budgets = super().budgets(plan, demands, dt)
        return {
            name: [dt / 2] + values[1:] for name, values in budgets.items()
        }


def test_unequal_budgets_for_a_lane_rejected():
    with pytest.raises(EngineError, match="unequal budgets"):
        _sim(_UnevenFlink(), WIDE)


class _UnevenTailFlink(FlinkRuntime):
    """Flink that grants the last instance of every operator half a
    tick."""

    def budgets(self, plan, demands, dt):
        budgets = super().budgets(plan, demands, dt)
        return {
            name: values[:-1] + [dt / 2]
            for name, values in budgets.items()
        }


def test_unequal_budgets_inside_a_later_lane_rejected():
    """The hot instance is a lane of its own and its budget may differ;
    the lane of instances 1..3 may not."""
    with pytest.raises(EngineError, match="'count'"):
        _sim(_UnevenTailFlink(), {"count": 4}, skew={"count": 0.5})
