"""Config validators reject NaN (and a non-finite policy interval).

``x < c`` and ``x <= c`` are both False for NaN, so each check must be
written as ``not x >= c`` (or ``not c < x < inf``) for NaN to fail it.
"""

import pytest

from repro.core.controller import ControlLoop
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError, PolicyError

NAN = float("nan")
INF = float("inf")


def _loop(graph, policy_interval):
    sim = Simulator(
        PhysicalPlan(graph, {"worker": 1}),
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )
    controller = DS2Controller(DS2Policy(graph), ManagerConfig())
    return ControlLoop(sim, controller, policy_interval=policy_interval)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda g: _loop(g, NAN), PolicyError),
        (lambda g: _loop(g, INF), PolicyError),
        (lambda g: ManagerConfig(max_window_age_intervals=NAN), PolicyError),
        (lambda g: ManagerConfig(suppress_minor_change=NAN), PolicyError),
    ],
    ids=[
        "loop-interval-nan",
        "loop-interval-inf",
        "manager-window-age",
        "manager-minor-change",
    ],
)
def test_nan_and_inf_settings_rejected(chain_graph, build, error):
    with pytest.raises(error):
        build(chain_graph)


@pytest.mark.parametrize(
    "every",
    [NAN, INF, 2.5, 1.0, True, 0, -3, "8"],
    ids=["nan", "inf", "fraction", "float", "bool", "zero", "negative", "str"],
)
def test_trace_tick_every_must_be_a_positive_int(every):
    """``tick % every == 0`` samples no tick at NaN, only tick 0 at inf
    and every 5th tick at 2.5, so anything but an int >= 1 is refused."""
    with pytest.raises(EngineError, match="trace_tick_every"):
        EngineConfig(trace_tick_every=every)


def test_trace_tick_every_accepts_positive_ints():
    assert EngineConfig(trace_tick_every=1).trace_tick_every == 1
    assert EngineConfig(trace_tick_every=64).trace_tick_every == 64
