"""Unit tests for the Dhalion-style and threshold baselines."""

import pytest

from repro.core.baselines import (
    DhalionController,
    ThresholdConfig,
    ThresholdController,
)
from repro.core.controller import Observation
from repro.errors import PolicyError
from repro.metrics import OperatorHealth
from tests.conftest import make_window


def observation(
    chain_graph,
    health=None,
    parallelism=None,
    worker_useful=5.0,
    in_outage=False,
):
    window = make_window(
        {
            ("worker", 0): (1000.0, 1000.0, worker_useful),
            ("snk", 0): (1000.0, 0.0, 0.1),
        },
        health=health or {},
    )
    return Observation(
        time=10.0,
        window=window,
        source_target_rates={"src": 1000.0},
        current_parallelism=parallelism
        or {"src": 1, "worker": 1, "snk": 1},
        backpressured=tuple(
            name
            for name, h in (health or {}).items()
            if h.backpressure
        ),
        in_outage=in_outage,
        graph=chain_graph,
    )


def bp_health(fraction=0.8, fill=0.95, pending=1000.0):
    return OperatorHealth(
        queue_fill=fill,
        backpressure=True,
        pending_records=pending,
        backpressure_fraction=fraction,
    )


def ok_health():
    return OperatorHealth(
        queue_fill=0.1, backpressure=False, pending_records=10.0
    )


class TestDhalionDiagnosis:
    def test_no_backpressure_no_action(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(chain_graph, health={"worker": ok_health()})
        assert ctrl.on_metrics(obs) is None

    def test_scales_backpressured_operator(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(chain_graph, health={"worker": bp_health()})
        decision = ctrl.on_metrics(obs)
        assert decision is not None
        assert decision["worker"] > 1

    def test_picks_initiator_not_victim(self, diamond_graph):
        # merge initiates; left is only blocked by it.
        ctrl = DhalionController()
        window = make_window(
            {
                ("left", 0): (1.0, 1.0, 0.1),
                ("right", 0): (1.0, 1.0, 0.1),
                ("merge", 0): (1.0, 1.0, 0.1),
                ("snk", 0): (1.0, 0.0, 0.1),
            },
            health={
                "left": bp_health(fill=0.99),
                "merge": bp_health(fill=0.92),
                "right": ok_health(),
            },
        )
        obs = Observation(
            time=10.0,
            window=window,
            source_target_rates={"src": 1000.0},
            current_parallelism={
                name: 1 for name in diamond_graph.names
            },
            backpressured=("left", "merge"),
            in_outage=False,
            graph=diamond_graph,
        )
        decision = ctrl.on_metrics(obs)
        assert decision is not None
        assert list(decision) == ["merge"]

    def test_outage_skipped(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(
            chain_graph, health={"worker": bp_health()}, in_outage=True
        )
        assert ctrl.on_metrics(obs) is None


class TestDhalionResolver:
    def test_scale_factor_from_backpressure_fraction(self, chain_graph):
        ctrl = DhalionController()
        parallelism = {"src": 1, "worker": 10, "snk": 1}
        obs = observation(
            chain_graph,
            health={"worker": bp_health(fraction=0.5)},
            parallelism=parallelism,
        )
        decision = ctrl.on_metrics(obs)
        # factor 1/(1-0.5) = 2 -> 20.
        assert decision == {"worker": 20}

    def test_scale_factor_capped(self, chain_graph):
        ctrl = DhalionController()
        parallelism = {"src": 1, "worker": 10, "snk": 1}
        obs = observation(
            chain_graph,
            health={"worker": bp_health(fraction=0.9)},
            parallelism=parallelism,
        )
        decision = ctrl.on_metrics(obs)
        # The fraction is clamped to 0.55: factor 1/0.45 -> ceil(22.2).
        assert decision == {"worker": 23}

    def test_minimum_step_of_one(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(
            chain_graph, health={"worker": bp_health(fraction=0.01)}
        )
        decision = ctrl.on_metrics(obs)
        assert decision["worker"] >= 2

    def test_cooldown_after_action(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(chain_graph, health={"worker": bp_health()})
        assert ctrl.on_metrics(obs) is not None
        ctrl.notify_rescaled(10.0, 60.0, {"worker": 3})
        assert ctrl.on_metrics(obs) is None
        assert ctrl.on_metrics(obs) is None
        assert ctrl.on_metrics(obs) is not None

    def test_no_scale_down_when_over_provisioned(self, chain_graph):
        ctrl = DhalionController()
        obs = observation(
            chain_graph,
            health={"worker": ok_health()},
            parallelism={"src": 1, "worker": 4, "snk": 1},
            worker_useful=1.0,  # 10% utilization
        )
        assert ctrl.on_metrics(obs) is None

    def test_reset_clears_state(self, chain_graph):
        ctrl = DhalionController()
        ctrl.notify_rescaled(0.0, 0.0, {})
        ctrl.reset()
        obs = observation(chain_graph, health={"worker": bp_health()})
        assert ctrl.on_metrics(obs) is not None


class TestThresholdController:
    def test_scale_up_over_high_watermark(self, chain_graph):
        ctrl = ThresholdController()
        obs = observation(chain_graph, worker_useful=9.5)
        decision = ctrl.on_metrics(obs)
        assert decision["worker"] == 2

    def test_scale_down_under_low_watermark(self, chain_graph):
        ctrl = ThresholdController()
        obs = observation(
            chain_graph,
            worker_useful=1.0,
            parallelism={"src": 1, "worker": 3, "snk": 1},
        )
        decision = ctrl.on_metrics(obs)
        assert decision["worker"] == 2

    def test_never_below_one(self, chain_graph):
        ctrl = ThresholdController()
        obs = observation(chain_graph, worker_useful=0.1)
        decision = ctrl.on_metrics(obs)
        assert decision is None or decision.get("worker", 1) >= 1

    def test_stable_band_no_action(self, chain_graph):
        ctrl = ThresholdController()
        obs = observation(chain_graph, worker_useful=6.0)
        assert ctrl.on_metrics(obs) is None

    def test_cooldown(self, chain_graph):
        ctrl = ThresholdController(ThresholdConfig(cooldown_intervals=1))
        obs = observation(chain_graph, worker_useful=9.5)
        assert ctrl.on_metrics(obs) is not None
        ctrl.notify_rescaled(0.0, 0.0, {})
        assert ctrl.on_metrics(obs) is None
        assert ctrl.on_metrics(obs) is not None

    def test_config_validation(self):
        with pytest.raises(PolicyError):
            ThresholdConfig(high_utilization=0.3, low_utilization=0.5)
        with pytest.raises(PolicyError):
            ThresholdConfig(step=0)
