"""Edge-case tests: redeploys with windows, Timely rescaling, rate
schedules mid-flight, and metrics across outages."""

import math

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    session_window,
    sink,
    sliding_window,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError
from repro.workloads.nexmark import get_query


def window_pipeline(rate=10_000.0, kind="sliding"):
    if kind == "sliding":
        win = sliding_window(
            "win", length=4.0, slide=1.0, fire_selectivity=0.01,
            assign_cost=1e-6, fire_cost=1e-6,
        )
    else:
        win = session_window(
            "win", length=4.0, gap=1.0, fire_selectivity=0.01,
            assign_cost=1e-6, fire_cost=1e-6,
        )
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(rate)),
            win,
            sink("snk"),
        ],
        [Edge("src", "win"), Edge("win", "snk")],
    )


class TestWindowAcrossRedeploy:
    def test_window_buffers_survive_rescale(self):
        graph = window_pipeline()
        runtime = FlinkRuntime(savepoint=SavepointModel.instant())
        sim = Simulator(
            PhysicalPlan(graph, {"win": 1}),
            runtime,
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(0.5)  # buffered records, no fire yet
        buffered_before = sum(
            inst.window.buffered
            for inst in sim._engine.state().operators["win"]
        )
        assert buffered_before > 0
        sim.rescale({"win": 3})
        buffered_after = sum(
            inst.window.buffered
            for inst in sim._engine.state().operators["win"]
        )
        assert buffered_after == pytest.approx(
            buffered_before, rel=1e-6
        )

    def test_fire_clock_realigned_after_redeploy(self):
        graph = window_pipeline()
        runtime = FlinkRuntime(savepoint=SavepointModel.instant())
        sim = Simulator(
            PhysicalPlan(graph, {"win": 1}),
            runtime,
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(2.55)
        sim.rescale({"win": 2})
        for inst in sim._engine.state().operators["win"]:
            # Next fire is the next slide boundary after the redeploy.
            assert inst.window.next_fire == pytest.approx(3.0)

    def test_session_window_keeps_flowing_after_rescale(self):
        graph = window_pipeline(kind="session")
        runtime = FlinkRuntime(savepoint=SavepointModel.instant())
        sim = Simulator(
            PhysicalPlan(graph, {"win": 1}),
            runtime,
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(10.0)
        sim.collect_metrics()
        sim.rescale({"win": 2})
        sim.run_for(10.0)
        window = sim.collect_metrics()
        assert window.observed_output_rate("win") > 0


class TestTimelyRescale:
    def test_global_rescale_changes_all_operators(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(10_000.0)),
                map_operator("m", costs=CostModel(processing_cost=1e-4)),
                sink("snk"),
            ],
            [Edge("src", "m"), Edge("m", "snk")],
        )
        sim = Simulator(
            PhysicalPlan(graph, {name: 2 for name in graph.names}),
            TimelyRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(5.0)
        outage = sim.rescale({name: 4 for name in graph.names})
        sim.run_for(outage + 1.0)
        assert set(sim.plan.parallelism.values()) == {4}
        # The new deployment still runs (budgets are per lane of
        # workers).
        sim.collect_metrics()
        sim.run_for(5.0)
        window = sim.collect_metrics()
        assert window.observed_processing_rate("m") > 0

    @staticmethod
    def _q1_timely(parallelism):
        graph = get_query("Q1").timely_graph()
        return Simulator(
            PhysicalPlan(graph, parallelism), TimelyRuntime()
        )

    def test_non_uniform_plan_rejected_at_construction(self):
        with pytest.raises(EngineError, match=r"global.*\[2, 3\]"):
            self._q1_timely(
                {"bids": 2, "currency_mapper": 3, "sink": 2}
            )

    def test_non_uniform_rescale_rejected_before_the_outage(self):
        """The rescale fails at once, charging no outage and changing
        nothing, rather than at the first tick after its outage."""
        sim = self._q1_timely({"bids": 2, "currency_mapper": 2, "sink": 2})
        sim.run_until(5.0)
        before = sim._engine.state()
        with pytest.raises(EngineError, match=r"global.*\[2, 3\]"):
            sim.rescale({"currency_mapper": 3})
        assert not sim.in_outage
        assert sim.rescale_count == 0
        assert sim.plan.parallelism == {
            "bids": 2, "currency_mapper": 2, "sink": 2
        }
        assert sim._engine.state() == before
        stats = sim.step()
        assert not stats.in_outage and sim.time == pytest.approx(5.1)

    def test_queued_records_survive_timely_rescale(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(50_000.0)),
                map_operator("m", costs=CostModel(processing_cost=1e-4)),
                sink("snk"),
            ],
            [Edge("src", "m"), Edge("m", "snk")],
        )
        sim = Simulator(
            PhysicalPlan(graph, {name: 1 for name in graph.names}),
            TimelyRuntime(savepoint=SavepointModel.instant()),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(5.0)  # under-provisioned: queue grows
        queued = sim.queue_length("m")
        assert queued > 0
        sim.rescale({name: 8 for name in graph.names})
        assert sim.queue_length("m") == pytest.approx(queued, rel=1e-6)


class TestRateScheduleMidFlight:
    def test_source_follows_schedule(self):
        graph = LogicalGraph(
            [
                source(
                    "src",
                    rate=RateSchedule.phases([(0.0, 1000.0),
                                              (5.0, 200.0)]),
                ),
                map_operator("m", costs=CostModel(processing_cost=1e-5)),
                sink("snk"),
            ],
            [Edge("src", "m"), Edge("m", "snk")],
        )
        sim = Simulator(
            PhysicalPlan(graph, {"m": 1}),
            FlinkRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(5.0)
        first = sim.collect_metrics()
        sim.run_for(5.0)
        second = sim.collect_metrics()
        assert first.source_observed_rates["src"] == pytest.approx(
            1000.0, rel=0.02
        )
        assert second.source_observed_rates["src"] == pytest.approx(
            200.0, rel=0.02
        )


class TestOutageMetrics:
    def test_no_useful_work_during_outage(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(5000.0)),
                map_operator("m", costs=CostModel(processing_cost=1e-4)),
                sink("snk"),
            ],
            [Edge("src", "m"), Edge("m", "snk")],
        )
        sim = Simulator(
            PhysicalPlan(graph, {"m": 1}),
            FlinkRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(2.0)
        sim.collect_metrics()
        outage = sim.rescale({"m": 2})
        sim.run_for(min(outage - 1.0, 10.0))
        window = sim.collect_metrics()
        assert window.outage_fraction == 1.0
        for counters in window.instances.values():
            assert counters.useful_time == 0.0
            assert counters.records_pulled == 0.0

    def test_epoch_tracker_spans_outage(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(5000.0)),
                map_operator("m", costs=CostModel(processing_cost=1e-5)),
                sink("snk"),
            ],
            [Edge("src", "m"), Edge("m", "snk")],
        )
        sim = Simulator(
            PhysicalPlan(graph, {"m": 1}),
            FlinkRuntime(savepoint=SavepointModel(
                base_seconds=3.0, snapshot_bandwidth=1e12,
                redeploy_seconds=0.0,
            )),
            EngineConfig(
                tick=0.1, track_record_latency=False, epoch_seconds=1.0
            ),
        )
        sim.run_for(3.0)
        sim.rescale({"m": 2})
        sim.run_for(10.0)
        dist = sim.epoch_latency.distribution
        # Epochs interrupted by the outage complete late but complete.
        assert sim.epoch_latency.pending_epochs <= 2
        assert dist.quantile(1.0) >= 2.0

def small_simulator():
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator("m", costs=CostModel(processing_cost=1e-5)),
            sink("snk"),
        ],
        [Edge("src", "m"), Edge("m", "snk")],
    )
    return Simulator(
        PhysicalPlan(graph, {"m": 1}),
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["tick", "source_catchup_factor", "epoch_seconds"]
    )
    def test_engine_config_rejects(self, field, value):
        with pytest.raises(EngineError, match=field):
            EngineConfig(**{field: value})

    def test_run_for_inf_rejected(self):
        sim = small_simulator()
        with pytest.raises(EngineError, match="finite"):
            sim.run_for(math.inf)
        assert sim.time == 0.0

    def test_run_for_nan_rejected(self):
        sim = small_simulator()
        with pytest.raises(EngineError, match="finite"):
            sim.run_for(math.nan)
        assert sim.time == 0.0

    def test_run_until_inf_rejected(self):
        sim = small_simulator()
        with pytest.raises(EngineError, match="finite"):
            sim.run_until(math.inf)
        assert sim.time == 0.0

    def test_force_outage_nan_rejected(self):
        sim = small_simulator()
        with pytest.raises(EngineError, match="seconds"):
            sim.force_outage(math.nan)
        assert sim._pending_plan is None
        assert not sim.in_outage
        sim.run_for(1.0)
        assert not sim.last_stats.in_outage
