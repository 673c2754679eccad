"""Unit tests for the control loop wiring."""

import pytest

from repro.core.controller import ControlLoop, Controller
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import PolicyError


class ScriptedController(Controller):
    """Returns a fixed sequence of desired parallelism dicts."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.observations = []
        self.rescaled = []

    def on_metrics(self, observation):
        self.observations.append(observation)
        if self.script:
            return self.script.pop(0)
        return None

    def notify_rescaled(self, time, outage_seconds, new_parallelism):
        self.rescaled.append((time, dict(new_parallelism)))


def simulator(chain_graph, parallelism=1):
    plan = PhysicalPlan(chain_graph, {"worker": parallelism})
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )


class TestControlLoop:
    def test_policy_invoked_once_per_interval(self, chain_graph):
        ctrl = ScriptedController([])
        loop = ControlLoop(simulator(chain_graph), ctrl,
                           policy_interval=5.0)
        loop.run(20.0)
        assert len(ctrl.observations) == 4

    def test_observation_contents(self, chain_graph):
        ctrl = ScriptedController([])
        loop = ControlLoop(simulator(chain_graph), ctrl,
                           policy_interval=5.0)
        loop.run(5.0)
        obs = ctrl.observations[0]
        assert obs.time == pytest.approx(5.0)
        assert obs.source_target_rates == {"src": 1000.0}
        assert obs.current_parallelism["worker"] == 1
        assert obs.graph is chain_graph

    def test_desired_parallelism_applied(self, chain_graph):
        ctrl = ScriptedController([{"worker": 3}])
        sim = simulator(chain_graph)
        loop = ControlLoop(sim, ctrl, policy_interval=5.0)
        result = loop.run(60.0)
        assert result.scaling_steps == 1
        assert result.events[0].applied["worker"] == 3
        assert sim.plan.parallelism_of("worker") == 3
        assert ctrl.rescaled  # notify_rescaled was called

    def test_non_scalable_requests_dropped(self, chain_graph):
        # Sources and sinks are not in the default scalable set.
        ctrl = ScriptedController([{"src": 5}, {"snk": 5}])
        sim = simulator(chain_graph)
        loop = ControlLoop(sim, ctrl, policy_interval=5.0)
        result = loop.run(20.0)
        assert result.scaling_steps == 0
        assert sim.plan.parallelism_of("src") == 1

    def test_noop_decision_not_recorded_as_event(self, chain_graph):
        ctrl = ScriptedController([{"worker": 1}])
        loop = ControlLoop(simulator(chain_graph), ctrl,
                           policy_interval=5.0)
        result = loop.run(20.0)
        assert result.scaling_steps == 0

    def test_decisions_timeline_recorded(self, chain_graph):
        ctrl = ScriptedController([None, {"worker": 2}])
        loop = ControlLoop(simulator(chain_graph), ctrl,
                           policy_interval=5.0)
        result = loop.run(10.0)
        assert [a.time for a in result.audits] == [5.0, 10.0]
        assert result.audits[0].proposal is None
        assert result.audits[1].proposal == {"worker": 2}

    def test_tick_observer_sees_every_tick(self, chain_graph):
        seen = []
        ctrl = ScriptedController([])
        loop = ControlLoop(
            simulator(chain_graph),
            ctrl,
            policy_interval=5.0,
            tick_observer=seen.append,
        )
        loop.run(5.0)
        assert len(seen) == 50  # 5 s at 0.1 s ticks

    def test_invalid_interval_rejected(self, chain_graph):
        with pytest.raises(PolicyError):
            ControlLoop(simulator(chain_graph), ScriptedController([]),
                        policy_interval=0.0)

    @pytest.mark.parametrize(
        "duration", [float("inf"), float("nan"), -1.0]
    )
    def test_non_finite_or_negative_duration_rejected(
        self, chain_graph, duration
    ):
        loop = ControlLoop(
            simulator(chain_graph), ScriptedController([]),
            policy_interval=5.0,
        )
        with pytest.raises(PolicyError, match="finite and >= 0"):
            loop.run(duration)
        assert loop.simulator.time == 0.0

    def test_unknown_scalable_operator_rejected(self, chain_graph):
        with pytest.raises(PolicyError):
            ControlLoop(
                simulator(chain_graph),
                ScriptedController([]),
                policy_interval=5.0,
                scalable_operators=("ghost",),
            )

    def test_applied_parallelism_in_order(self, chain_graph):
        # A decision arriving while a redeploy is in flight is dropped,
        # so script the second action for after the first outage ends.
        ctrl = ScriptedController(
            [{"worker": 2}] + [None] * 6 + [{"worker": 4}]
        )
        sim = simulator(chain_graph)
        loop = ControlLoop(sim, ctrl, policy_interval=10.0)
        result = loop.run(200.0)
        assert [event.applied["worker"] for event in result.events] == [
            2, 4,
        ]

    def test_event_reports_pending_parallelism_during_outage(
        self, chain_graph
    ):
        # The plan only switches after the outage, but the event's
        # `applied` already shows the incoming configuration.
        ctrl = ScriptedController([{"worker": 2}])
        sim = simulator(chain_graph)
        loop = ControlLoop(sim, ctrl, policy_interval=5.0)
        result = loop.run(5.0)
        assert result.events[0].applied["worker"] == 2
        assert sim.in_outage


class TestDS2EndToEnd:
    def test_ds2_converges_on_simple_pipeline(self, chain_graph):
        # worker cost 1e-3 => capacity 1000/s/instance (sans overhead);
        # source rate 1000/s with 8% instrumentation needs 2 instances.
        sim = simulator(chain_graph, parallelism=1)
        ctrl = DS2Controller(
            DS2Policy(chain_graph),
            ManagerConfig(warmup_intervals=1, activation_intervals=1),
        )
        loop = ControlLoop(sim, ctrl, policy_interval=10.0)
        result = loop.run(300.0)
        assert sim.plan.parallelism_of("worker") == 2
        assert result.scaling_steps == 1
        assert not sim.backpressured_operators()
