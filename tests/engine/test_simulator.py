"""Integration-level tests of the engine simulator.

These verify the physical behaviours DS2 depends on: exact useful-time
accounting, true rates that do not change under load (the paper's core
observation), backpressure that emerges from bounded buffers, record
conservation, rescaling with state-preserving outages, and the Timely
execution model.
"""

import math

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    flatmap,
    map_operator,
    sink,
    sliding_window,
    source,
)
from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError, ReconfigurationError


def pipeline_graph(
    rate=1000.0, cost=1e-4, selectivity=1.0, alpha=0.0
):
    """source -> op -> sink with configurable cost/selectivity."""
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(rate)),
            flatmap(
                "op",
                costs=CostModel(
                    processing_cost=cost, coordination_alpha=alpha
                ),
                selectivity=selectivity,
            ),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )


def flink(plan, **config):
    config.setdefault("tick", 0.1)
    config.setdefault("track_record_latency", False)
    return Simulator(plan, FlinkRuntime(), EngineConfig(**config))


class TestSteadyState:
    def test_well_provisioned_pipeline_sustains_rate(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-4)  # 1 inst = 10K/s
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        assert window.source_observed_rates["src"] == pytest.approx(
            1000.0, rel=0.01
        )
        assert not sim.backpressured_operators()

    def test_true_rate_equals_capacity_when_underloaded(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        # True rate = 1/cost = 10K/s even though only 1K/s flows — this
        # is exactly why DS2 can size operators without saturating them.
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(10_000.0, rel=0.01)

    def test_true_rate_unchanged_under_backpressure(self):
        # Overload the operator 10x: observed rate collapses to
        # capacity but the true rate stays 1/cost.
        graph = pipeline_graph(rate=100_000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(10_000.0, rel=0.01)
        assert window.observed_processing_rate("op") == pytest.approx(
            10_000.0, rel=0.05
        )
        assert "op" in sim.backpressured_operators()

    def test_observed_source_rate_suppressed_by_bottleneck(self):
        graph = pipeline_graph(rate=100_000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(30.0)
        window = sim.collect_metrics()
        # The source can only push what the bottleneck frees: ~10K/s.
        assert window.source_observed_rates["src"] < 15_000.0
        assert sim.source_backlog("src") > 0

    def test_selectivity_propagates_downstream(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-5, selectivity=20.0)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        assert window.selectivity("op") == pytest.approx(20.0)
        assert window.observed_processing_rate("snk") == pytest.approx(
            20_000.0, rel=0.05
        )

    def test_parallel_instances_share_load(self):
        graph = pipeline_graph(rate=10_000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 2})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        ids = window.instances_of("op")
        rates = [
            window.instances[iid].observed_processing_rate for iid in ids
        ]
        assert rates[0] == pytest.approx(rates[1], rel=0.02)

    def test_instrumentation_overhead_inflates_cost(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, instrumentation_enabled=True)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        # FlinkRuntime adds 8%: true rate = 10K / 1.08.
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(10_000.0 / 1.08, rel=0.01)

    def test_coordination_alpha_reduces_per_instance_rate(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-4, alpha=0.1)
        plan = PhysicalPlan(graph, {"op": 6})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(20.0)
        window = sim.collect_metrics()
        per_instance = (
            window.aggregated_true_processing_rate("op") / 6
        )
        assert per_instance == pytest.approx(10_000.0 / 1.5, rel=0.02)

    def test_useful_plus_waiting_equals_window(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 2})
        sim = flink(plan)
        sim.run_for(10.0)
        window = sim.collect_metrics()
        for counters in window.instances.values():
            assert (
                counters.useful_time + counters.waiting_time
            ) == pytest.approx(counters.observed_time, rel=1e-6)


class TestConservation:
    def test_records_conserved_through_pipeline(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-5, selectivity=2.0)
        plan = PhysicalPlan(graph, {"op": 3})
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(30.0)
        window = sim.collect_metrics()
        pushed_by_op = sum(
            window.instances[iid].records_pushed
            for iid in window.instances_of("op")
        )
        consumed_by_sink = sum(
            window.instances[iid].records_pulled
            for iid in window.instances_of("snk")
        )
        queued_at_sink = sim.queue_length("snk")
        assert pushed_by_op == pytest.approx(
            consumed_by_sink + queued_at_sink, rel=1e-6
        )

    def test_invariant_checks_run_by_default(self):
        graph = pipeline_graph()
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan, check_invariants=True)
        sim.run_for(5.0)  # would raise on violation


class TestSkew:
    def test_hot_instance_limits_throughput(self):
        graph = pipeline_graph(rate=15_000.0, cost=1e-4)
        # 2 instances can do 20K/s balanced, enough for 15K/s; but with
        # 80% skew the hot instance (10K/s capacity) sees 12K/s and
        # caps system throughput near 12.5K/s.
        plan = PhysicalPlan(
            graph,
            {"op": 2},
            partitioner=Partitioner({"op": 0.8}),
        )
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(30.0)
        window = sim.collect_metrics()
        ids = window.instances_of("op")
        hot = window.instances[ids[0]].observed_processing_rate
        cold = window.instances[ids[1]].observed_processing_rate
        assert hot > cold * 2
        assert window.utilization_imbalance("op")[0] > 0.9

    def test_skew_does_not_change_true_rates(self):
        graph = pipeline_graph(rate=10_000.0, cost=1e-4)
        plan = PhysicalPlan(
            graph, {"op": 2}, partitioner=Partitioner({"op": 0.8})
        )
        sim = flink(plan, instrumentation_enabled=False)
        sim.run_for(30.0)
        window = sim.collect_metrics()
        # Both instances still have capacity 1/cost: DS2's averaging
        # yields the no-skew optimum (section 4.2.3).
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(20_000.0, rel=0.02)


class TestRescale:
    def test_rescale_changes_plan_after_outage(self):
        graph = pipeline_graph(rate=5000.0, cost=1e-4)
        plan = PhysicalPlan(graph, {"op": 1})
        sim = flink(plan)
        sim.run_for(5.0)
        outage = sim.rescale({"op": 2})
        assert outage > 0
        assert sim.in_outage
        assert sim.plan.parallelism_of("op") == 1  # not yet deployed
        sim.run_for(outage + 1.0)
        assert not sim.in_outage
        assert sim.plan.parallelism_of("op") == 2
        assert sim.rescale_count == 1

    def test_noop_rescale_is_free(self):
        graph = pipeline_graph()
        plan = PhysicalPlan(graph, {"op": 2})
        sim = flink(plan)
        assert sim.rescale({"op": 2}) == 0.0
        assert not sim.in_outage

    def test_rescale_during_outage_rejected(self):
        graph = pipeline_graph(rate=5000.0, cost=1e-4)
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        sim.run_for(1.0)
        sim.rescale({"op": 2})
        with pytest.raises(ReconfigurationError):
            sim.rescale({"op": 3})

    def test_queued_records_survive_redeploy(self):
        graph = pipeline_graph(rate=50_000.0, cost=1e-4)
        runtime = FlinkRuntime(savepoint=SavepointModel.instant())
        sim = Simulator(
            PhysicalPlan(graph, {"op": 1}),
            runtime,
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        sim.run_for(10.0)  # builds a queue at the bottleneck
        queued_before = sim.queue_length("op")
        assert queued_before > 0
        sim.rescale({"op": 8})
        # Redeploy is instantaneous: records were redistributed across
        # the new instances with none lost.
        assert sim.plan.parallelism_of("op") == 8
        assert sim.queue_length("op") == pytest.approx(
            queued_before, rel=1e-6
        )

    def test_sources_accumulate_backlog_during_outage(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-5)
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        sim.run_for(2.0)
        before = sim.source_backlog("src")
        outage = sim.rescale({"op": 2})
        sim.run_for(outage)
        grown = sim.source_backlog("src") - before
        assert grown == pytest.approx(1000.0 * outage, rel=0.05)

    def test_instant_savepoint_deploys_immediately(self):
        graph = pipeline_graph()
        runtime = FlinkRuntime(savepoint=SavepointModel.instant())
        sim = Simulator(
            PhysicalPlan(graph, {"op": 1}),
            runtime,
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        outage = sim.rescale({"op": 4})
        assert outage == pytest.approx(0.0, abs=1e-6)
        assert sim.plan.parallelism_of("op") == 4

    def test_metrics_window_flags_outage(self):
        graph = pipeline_graph(rate=5000.0, cost=1e-4)
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        sim.run_for(1.0)
        sim.collect_metrics()
        sim.rescale({"op": 2})
        sim.run_for(5.0)
        window = sim.collect_metrics()
        assert window.outage_fraction > 0.5


class TestSourceCatchup:
    def test_catchup_drains_backlog_above_target(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-5)  # 100K capacity
        sim = flink(
            PhysicalPlan(graph, {"op": 1}), source_catchup_factor=2.0
        )
        # A 3 s halt buffers 3000 records (3 s at 1000/s) externally.
        sim.force_outage(3.0)
        while sim.in_outage:
            sim.step()
        assert sim.source_backlog("src") == pytest.approx(3000.0)
        sim.collect_metrics()
        sim.run_for(2.0)
        window = sim.collect_metrics()
        # Source emits up to 2x target while backlog remains.
        assert window.source_observed_rates["src"] == pytest.approx(
            2000.0, rel=0.05
        )

    def test_backlog_eventually_drains(self):
        graph = pipeline_graph(rate=1000.0, cost=1e-5)
        sim = flink(
            PhysicalPlan(graph, {"op": 1}), source_catchup_factor=2.0
        )
        sim.force_outage(0.5)
        while sim.in_outage:
            sim.step()
        assert sim.source_backlog("src") == pytest.approx(500.0)
        sim.run_for(5.0)
        assert sim.source_backlog("src") == pytest.approx(0.0, abs=1.0)


class TestWindows:
    @staticmethod
    def window_graph(rate=10_000.0):
        return LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(rate)),
                sliding_window(
                    "win",
                    length=2.0,
                    slide=1.0,
                    fire_selectivity=0.01,
                    assign_cost=1e-6,
                    fire_cost=1e-6,
                ),
                sink("snk"),
            ],
            [Edge("src", "win"), Edge("win", "snk")],
        )

    def test_window_emits_only_after_fire(self):
        graph = self.window_graph()
        sim = flink(PhysicalPlan(graph, {"win": 1}))
        sim.run_for(0.5)  # before the first slide boundary
        window = sim.collect_metrics()
        assert window.observed_output_rate("win") == 0.0

    def test_window_long_run_selectivity(self):
        graph = self.window_graph()
        sim = flink(PhysicalPlan(graph, {"win": 1}))
        sim.run_for(30.0)
        window = sim.collect_metrics()
        # replication 2 x fire_selectivity 0.01.
        assert window.selectivity("win") == pytest.approx(0.02, rel=0.1)

    def test_window_processing_rate_oscillates(self):
        graph = self.window_graph()
        sim = flink(PhysicalPlan(graph, {"win": 1}))
        sim.run_for(5.0)
        sim.collect_metrics()
        # Sample short windows: some contain a fire (low measured
        # processing rate due to fire work), some do not.
        rates = []
        for _ in range(10):
            sim.run_for(0.5)
            w = sim.collect_metrics()
            rate = w.aggregated_true_processing_rate("win")
            if rate is not None:
                rates.append(rate)
        assert max(rates) > min(rates) * 1.2


class TestTimelyModel:
    @staticmethod
    def timely_sim(workers, rate=10_000.0, cost=1e-4):
        graph = pipeline_graph(rate=rate, cost=cost)
        plan = PhysicalPlan(graph, {n: workers for n in graph.names})
        return Simulator(
            plan,
            TimelyRuntime(),
            EngineConfig(
                tick=0.1,
                track_record_latency=False,
                instrumentation_enabled=False,
            ),
        )

    def test_sources_never_blocked(self):
        sim = self.timely_sim(workers=1, rate=50_000.0)  # 5x overload
        sim.run_for(10.0)
        window = sim.collect_metrics()
        assert window.source_observed_rates["src"] == pytest.approx(
            50_000.0, rel=0.01
        )

    def test_queues_grow_when_underprovisioned(self):
        sim = self.timely_sim(workers=1, rate=50_000.0)
        sim.run_for(10.0)
        assert sim.total_queued_records() > 100_000

    def test_no_backpressure_signal(self):
        sim = self.timely_sim(workers=1, rate=50_000.0)
        sim.run_for(10.0)
        assert sim.backpressured_operators() == ()

    def test_enough_workers_keep_up(self):
        # 50K/s at 1e-4 s/record needs 5 worker-seconds/s of op time.
        sim = self.timely_sim(workers=6, rate=50_000.0)
        sim.run_for(10.0)
        sim.collect_metrics()
        sim.run_for(5.0)
        assert sim.total_queued_records() < 20_000

    def test_true_rates_on_shared_workers(self):
        sim = self.timely_sim(workers=2, rate=10_000.0)
        sim.run_for(10.0)
        window = sim.collect_metrics()
        # Per-instance true rate is 1/cost regardless of sharing.
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(20_000.0, rel=0.02)


class TestEngineConfigValidation:
    def test_bad_tick(self):
        with pytest.raises(EngineError):
            EngineConfig(tick=0.0)

    def test_bad_catchup(self):
        with pytest.raises(EngineError):
            EngineConfig(source_catchup_factor=0.5)

    def test_bad_epoch(self):
        with pytest.raises(EngineError):
            EngineConfig(epoch_seconds=0.0)

    def test_run_backwards_rejected(self):
        graph = pipeline_graph()
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        sim.run_for(1.0)
        with pytest.raises(EngineError):
            sim.run_until(0.5)

    def test_unknown_source_backlog_rejected(self):
        graph = pipeline_graph()
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        with pytest.raises(EngineError):
            sim.source_backlog("ghost")

    def test_unknown_queue_length_rejected(self):
        graph = pipeline_graph()
        sim = flink(PhysicalPlan(graph, {"op": 1}))
        with pytest.raises(EngineError):
            sim.queue_length("ghost")


class TestHeronModel:
    def test_large_queues_delay_backpressure(self):
        graph = pipeline_graph(rate=20_000.0, cost=1e-4)  # 2x overload
        flink_sim = Simulator(
            PhysicalPlan(graph, {"op": 1}),
            FlinkRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        heron_sim = Simulator(
            PhysicalPlan(graph, {"op": 1}),
            HeronRuntime(),
            EngineConfig(tick=0.1, track_record_latency=False),
        )
        flink_sim.run_for(10.0)
        heron_sim.run_for(10.0)
        # Flink's small buffers fill within seconds; Heron's 100 MiB
        # queue has not crossed its high-water mark yet.
        assert "op" in flink_sim.backpressured_operators()
        assert "op" not in heron_sim.backpressured_operators()
