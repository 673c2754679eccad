"""Unit tests for the experiment harness utilities."""

import pytest

from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig
from repro.errors import ReproError
from repro.experiments.harness import TimeSeries, run_controlled


class TestTimeSeries:
    def test_append_and_iterate(self):
        series = TimeSeries()
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        assert list(series) == [(0.0, 1.0), (1.0, 3.0)]
        assert len(series) == 2

    def test_mean_and_last(self):
        series = TimeSeries(times=[0, 1, 2], values=[1.0, 2.0, 3.0])
        assert series.mean() == 2.0
        assert series.last() == 3.0

    def test_window_mean(self):
        series = TimeSeries(
            times=[0, 1, 2, 3], values=[10.0, 20.0, 30.0, 40.0]
        )
        assert series.window_mean(1.0, 3.0) == 25.0

    def test_empty_series_raises(self):
        with pytest.raises(ReproError):
            TimeSeries().mean()
        with pytest.raises(ReproError):
            TimeSeries().last()
        with pytest.raises(ReproError):
            TimeSeries(times=[0], values=[1.0]).window_mean(5.0, 6.0)


class TestRunControlled:
    def test_captures_series_and_final_state(self, chain_graph):
        controller = DS2Controller(
            DS2Policy(chain_graph),
            ManagerConfig(warmup_intervals=1, activation_intervals=1),
        )
        run = run_controlled(
            graph=chain_graph,
            runtime=FlinkRuntime(),
            initial_parallelism={"worker": 1},
            controller=controller,
            policy_interval=10.0,
            duration=200.0,
            engine_config=EngineConfig(
                tick=0.1, track_record_latency=False
            ),
        )
        assert run.final_parallelism["worker"] == 2
        assert run.scaling_steps == 1
        assert run.main_parallelism_steps("worker") == [2]
        assert len(run.source_rate["src"]) > 100
        assert len(run.parallelism["worker"]) > 100
        # Steady state reaches the full source rate.
        assert run.achieved_source_rate("src") == pytest.approx(
            1000.0, rel=0.05
        )

    def test_record_latency_captured_when_enabled(self, chain_graph):
        controller = DS2Controller(DS2Policy(chain_graph))
        run = run_controlled(
            graph=chain_graph,
            runtime=FlinkRuntime(),
            initial_parallelism={"worker": 2},
            controller=controller,
            policy_interval=10.0,
            duration=20.0,
            engine_config=EngineConfig(
                tick=0.1, track_record_latency=True
            ),
        )
        assert run.record_latency is not None
        assert len(run.record_latency) > 0
        assert run.epoch_latency is None
