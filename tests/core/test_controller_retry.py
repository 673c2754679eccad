"""Retry-with-backoff in the control loop, driven end-to-end through a
real simulator with injected rescale failures."""

from repro.core.controller import ControlLoop, Controller
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
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.faults import FaultInjector, FaultSchedule, RescaleFailure


class ScaleTo(Controller):
    """Stub controller that keeps proposing one fixed parallelism."""

    name = "scale-to"

    def __init__(self, desired, repeat=True):
        self._desired = dict(desired)
        self._repeat = repeat
        self._proposed = False

    def on_metrics(self, observation):
        if observation.in_outage:
            return None
        if self._repeat or not self._proposed:
            self._proposed = True
            return dict(self._desired)
        return None


def make_loop(schedule, controller, interval=10.0):
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator("op", costs=CostModel(processing_cost=1e-4)),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )
    plan = PhysicalPlan(graph, {"src": 1, "op": 2})
    simulator = Simulator(
        plan,
        FlinkRuntime(savepoint=SavepointModel.instant()),
        EngineConfig(tick=0.5, track_record_latency=False),
    )
    job = FaultInjector(simulator, schedule)
    return ControlLoop(job, controller, policy_interval=interval)


class TestLoopRetry:
    def test_exponential_backoff_then_success(self):
        # Three armed failures: attempts at t=10, 20 (wait 1 interval),
        # 40 (wait 2) all fail; the fourth at t=80 (wait 4) succeeds.
        schedule = FaultSchedule([
            RescaleFailure(time=0.0, mode="abort", count=3),
        ])
        loop = make_loop(schedule, ScaleTo({"op": 4}))
        result = loop.run(120.0)
        assert [
            (f.time, f.attempt) for f in result.failed_rescales
        ] == [(10.0, 1), (20.0, 2), (40.0, 3)]
        assert [e.time for e in result.events] == [80.0]
        # The configuration is fully applied, never partial.
        assert loop.simulator.plan.parallelism == {
            "src": 1, "op": 4, "snk": 1,
        }

    def test_abandons_after_max_attempts(self):
        # Four armed failures: attempts at t=10, 20, 40 and 80 fail and
        # the action is abandoned, so the fifth, which would succeed,
        # is never made.
        schedule = FaultSchedule([
            RescaleFailure(time=0.0, mode="abort", count=4),
        ])
        loop = make_loop(schedule, ScaleTo({"op": 4}, repeat=False))
        result = loop.run(200.0)
        assert [
            (f.time, f.attempt) for f in result.failed_rescales
        ] == [(10.0, 1), (20.0, 2), (40.0, 3), (80.0, 4)]
        assert result.events == []
        assert loop.simulator.plan.parallelism["op"] == 2

    def test_no_failures_means_no_retry_state(self):
        loop = make_loop(FaultSchedule([]), ScaleTo({"op": 4}))
        result = loop.run(30.0)
        assert result.failed_rescales == []
        assert [e.time for e in result.events] == [10.0]
