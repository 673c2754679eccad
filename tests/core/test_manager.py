"""Unit tests for the DS2 scaling manager (section 4.2.1-4.2.3)."""

import pytest

from repro.core.controller import Observation
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.errors import PolicyError
from tests.conftest import make_window


def observation(
    chain_graph,
    worker_rate=500.0,
    source_rate=1000.0,
    achieved=1000.0,
    parallelism=1,
    in_outage=False,
    outage_fraction=0.0,
    time=0.0,
    worker_counters=None,
):
    counters = worker_counters or {
        ("worker", index): (worker_rate, worker_rate, 1.0)
        for index in range(parallelism)
    }
    counters[("snk", 0)] = (1e6, 0.0, 1.0)
    window = make_window(
        counters,
        start=time,
        end=time + 10.0,
        source_observed_rates={"src": achieved},
        outage_fraction=outage_fraction,
    )
    current = {"src": 1, "worker": parallelism, "snk": 1}
    return Observation(
        time=time + 10.0,
        window=window,
        source_target_rates={"src": source_rate},
        current_parallelism=current,
        backpressured=(),
        in_outage=in_outage,
        graph=chain_graph,
    )


def controller(chain_graph, **config):
    return DS2Controller(
        DS2Policy(chain_graph), ManagerConfig(**config)
    )


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"warmup_intervals": -1},
        {"activation_intervals": 0},
        {"target_ratio": 0.0},
        {"target_ratio": 1.5},
        {"suppress_minor_change": -1},
        {"max_useless_decisions": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            ManagerConfig(**kwargs)


class TestWarmup:
    def test_initial_warmup_skips_decisions(self, chain_graph):
        ctrl = controller(chain_graph, warmup_intervals=2)
        assert ctrl.on_metrics(observation(chain_graph)) is None
        assert ctrl.on_metrics(observation(chain_graph)) is None
        assert ctrl.on_metrics(observation(chain_graph)) is not None

    def test_warmup_after_rescale(self, chain_graph):
        ctrl = controller(chain_graph, warmup_intervals=1)
        assert ctrl.on_metrics(observation(chain_graph)) is None
        decision = ctrl.on_metrics(observation(chain_graph))
        assert decision == {"worker": 2}
        ctrl.notify_rescaled(0.0, 30.0, {"worker": 2})
        # Next interval is ignored (warm-up), then decisions resume.
        assert ctrl.on_metrics(
            observation(chain_graph, parallelism=2)
        ) is None
        assert ctrl.on_metrics(
            observation(chain_graph, parallelism=2)
        ) is None  # stable: no change proposed

    def test_outage_windows_always_skipped(self, chain_graph):
        ctrl = controller(chain_graph)
        obs = observation(chain_graph, outage_fraction=0.3)
        assert ctrl.on_metrics(obs) is None
        obs = observation(chain_graph, in_outage=True)
        assert ctrl.on_metrics(obs) is None


class TestActivation:
    def test_waits_for_enough_decisions(self, chain_graph):
        ctrl = controller(chain_graph, activation_intervals=3)
        assert ctrl.on_metrics(observation(chain_graph)) is None
        assert ctrl.on_metrics(observation(chain_graph)) is None
        decision = ctrl.on_metrics(observation(chain_graph))
        assert decision == {"worker": 2}

    def test_median_aggregation(self, chain_graph):
        ctrl = controller(chain_graph, activation_intervals=3)
        # Rates imply parallelism 2, 2, 6 -> median 2.
        ctrl.on_metrics(observation(chain_graph, worker_rate=500.0))
        ctrl.on_metrics(observation(chain_graph, worker_rate=500.0))
        decision = ctrl.on_metrics(
            observation(chain_graph, worker_rate=180.0)
        )
        assert decision == {"worker": 2}

    def test_median_of_distinct_decisions(self, chain_graph):
        ctrl = controller(chain_graph, activation_intervals=3)
        # Rates imply parallelism 2, 9, 3 -> median 3 (not the first,
        # the last, the smallest or the largest).
        for rate in (500.0, 112.0, 340.0):
            decision = ctrl.on_metrics(
                observation(chain_graph, worker_rate=rate)
            )
        assert decision == {"worker": 3}

    def test_pending_cleared_after_rescale(self, chain_graph):
        ctrl = controller(chain_graph, activation_intervals=2)
        ctrl.on_metrics(observation(chain_graph))
        ctrl.notify_rescaled(0.0, 10.0, {"worker": 2})
        # The deque restarts: one more observation is not enough.
        assert ctrl.on_metrics(observation(chain_graph)) is None


class TestMinorChangeSuppression:
    def test_suppresses_small_delta(self, chain_graph):
        ctrl = controller(chain_graph, suppress_minor_change=1)
        # worker needs 2, currently 1: delta 1 -> suppressed.
        assert ctrl.on_metrics(observation(chain_graph)) is None

    def test_large_delta_applies(self, chain_graph):
        ctrl = controller(chain_graph, suppress_minor_change=1)
        decision = ctrl.on_metrics(
            observation(chain_graph, worker_rate=200.0)
        )
        assert decision == {"worker": 5}


class TestTargetRateCompensation:
    def test_compensates_when_target_missed(self, chain_graph):
        ctrl = controller(chain_graph)
        # Model says 2 instances; deploy them.
        ctrl.on_metrics(observation(chain_graph))
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 2})
        # At 2 instances the model is satisfied, but the source only
        # achieves 80% of the target: compensation kicks in.
        decision = ctrl.on_metrics(
            observation(chain_graph, parallelism=2, achieved=800.0)
        )
        assert decision is not None
        assert decision["worker"] == 3
        assert ctrl.rate_compensation == pytest.approx(1.25)

    def test_compensation_resets_when_healthy(self, chain_graph):
        ctrl = controller(chain_graph)
        ctrl.on_metrics(observation(chain_graph))
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 2})
        ctrl.on_metrics(
            observation(chain_graph, parallelism=2, achieved=800.0)
        )
        assert ctrl.rate_compensation > 1.0
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 3})
        # With 3 instances the target is reached (use rates that keep
        # the model satisfied at p=3).
        ctrl.on_metrics(
            observation(
                chain_graph,
                parallelism=3,
                worker_rate=500.0,
                achieved=1000.0,
            )
        )
        assert ctrl.rate_compensation == 1.0

    def test_compensation_capped(self, chain_graph):
        ctrl = controller(chain_graph)
        ctrl.on_metrics(observation(chain_graph, achieved=450.0))
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 2})
        # A 2.5x shortfall (no collapse, so no rollback) compensates by
        # the 2x cap only.
        decision = ctrl.on_metrics(
            observation(chain_graph, parallelism=2, achieved=400.0)
        )
        assert ctrl.rate_compensation == 2.0
        assert decision == {"worker": 4}

    def test_repeated_failure_freezes(self, chain_graph):
        ctrl = controller(chain_graph, max_useless_decisions=2)
        # Start under-provisioned and under target.
        first = ctrl.on_metrics(observation(chain_graph, achieved=450.0))
        assert first == {"worker": 2}
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 2})
        # Model satisfied at p=2 but the target is still missed (and
        # throughput did not collapse, so no rollback): compensate once.
        comp = ctrl.on_metrics(
            observation(chain_graph, parallelism=2, achieved=400.0)
        )
        assert comp == {"worker": 4}
        assert ctrl.rate_compensation == pytest.approx(2.0)
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 4})
        # Even the compensated configuration cannot reach the target
        # and no higher compensation is available: useless decisions
        # accumulate until the manager freezes.
        for _ in range(3):
            ctrl.on_metrics(
                observation(chain_graph, parallelism=4, achieved=400.0)
            )
        assert ctrl.frozen
        assert ctrl.on_metrics(observation(chain_graph)) is None


class TestSkewDetection:
    def skewed_observation(self, chain_graph, achieved=500.0):
        # Hot instance saturated (useful 10/10), sibling half idle.
        counters = {
            ("worker", 0): (5000.0, 5000.0, 10.0),
            ("worker", 1): (1000.0, 1000.0, 2.0),
        }
        return observation(
            chain_graph,
            parallelism=2,
            achieved=achieved,
            worker_counters=counters,
        )

    def test_skew_detected(self, chain_graph):
        ctrl = controller(chain_graph)
        obs = self.skewed_observation(chain_graph)
        assert ctrl.detect_skewed_operators(obs) == ("worker",)

    def test_balanced_not_detected(self, chain_graph):
        ctrl = controller(chain_graph)
        obs = observation(chain_graph, parallelism=2)
        assert ctrl.detect_skewed_operators(obs) == ()

    def test_no_compensation_under_skew(self, chain_graph):
        ctrl = controller(chain_graph, max_useless_decisions=1)
        obs = self.skewed_observation(chain_graph)
        # Model satisfied (aggregate true rate ample), target missed,
        # but skew detected: no compensation, freeze instead.
        decision = ctrl.on_metrics(obs)
        assert decision is None
        assert ctrl.frozen
        assert ctrl.rate_compensation == 1.0


class TestRollback:
    def test_rolls_back_degrading_action(self, chain_graph):
        ctrl = controller(chain_graph)
        decision = ctrl.on_metrics(observation(chain_graph))
        assert decision == {"worker": 2}
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 2})
        # After the action the achieved rate collapsed below both the
        # pre-action rate and the target: roll back.
        rollback = ctrl.on_metrics(
            observation(chain_graph, parallelism=2, achieved=100.0,
                        worker_rate=50.0)
        )
        assert rollback is not None
        assert rollback["worker"] == 1

    def test_no_rollback_when_target_still_met(self, chain_graph):
        # A scale-down that lowers throughput to a *lower target* is
        # expected, not a regression.
        ctrl = controller(chain_graph)
        decision = ctrl.on_metrics(
            observation(chain_graph, worker_rate=500.0,
                        source_rate=2000.0, achieved=2000.0,
                        parallelism=2)
        )
        assert decision == {"worker": 4}
        ctrl.notify_rescaled(0.0, 0.0, {"worker": 4})
        follow_up = ctrl.on_metrics(
            observation(chain_graph, parallelism=4, source_rate=1000.0,
                        achieved=1000.0)
        )
        # New decision for the lower rate, not a rollback to 4.
        assert follow_up == {"worker": 2}


class TestReset:
    def test_reset_restores_initial_state(self, chain_graph):
        ctrl = controller(chain_graph, warmup_intervals=1,
                          max_useless_decisions=1)
        ctrl.on_metrics(observation(chain_graph))  # consumes warm-up
        decision = ctrl.on_metrics(observation(chain_graph))
        assert decision is not None
        ctrl.reset()
        # Warm-up applies again after reset.
        assert ctrl.on_metrics(observation(chain_graph)) is None
        assert not ctrl.frozen
        assert ctrl.rate_compensation == 1.0
