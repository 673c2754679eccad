"""The lane kernels against their per-instance reference.

A lane replays each order-dependent step of its ``count`` instances in
one call: the route-major pushes of :meth:`ObjectEngine._emit`, the
shared metrics rows, the state growth. These tests pin the cases the
golden files reach rarely or not at all: an overflow that several
routes hit at different instances, and a metric dropout that silences
half of a lane. The per-instance reference is the one
``tests/engine/test_lane_equivalence.py`` uses.
"""

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
from repro.dataflow.physical import InstanceId
from repro.engine.buffers import Queue
from repro.engine.objects import ObjectEngine
from repro.engine.runtimes import FlinkRuntime
from repro.errors import EngineError
from repro.faults.events import MetricDropout
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from tests.engine.test_lane_equivalence import (
    _per_instance_runs,
    chain_sim,
    lane_counts,
    window_fingerprint,
)


def _routes(free):
    """One bounded queue of capacity 10 per entry of ``free``, holding
    ``10 - free`` records, as the routes of an emitting operator."""
    routes = []
    for index, room in enumerate(free):
        queue = Queue(10.0)
        queue.force_push(10.0 - room)
        routes.append((queue, 1.0, InstanceId("down", index)))
    return routes


def _overflow(emit):
    with pytest.raises(EngineError) as raised:
        emit()
    return str(raised.value)


class TestEmitOverflow:
    """A lane's route-major pushes name the lane that instance-major
    pushes would have hit first."""

    @pytest.mark.parametrize(
        "free, named",
        [
            # Route 0 fills at instance 3, route 1 at instance 1.
            ((10.0, 4.0), "down[1]"),
            # Both fill at instance 1: the earlier route wins.
            ((4.0, 4.0), "down[0]"),
            # Route 0 fills at instance 0, route 1 never.
            ((1.0, 10.0), "down[0]"),
        ],
    )
    def test_lane_names_instance_major_first(self, free, named):
        records, count = 3.0, 4
        lane = _overflow(
            lambda: ObjectEngine._emit(_routes(free), records, count)
        )
        routes = _routes(free)

        def instance_major():
            for _ in range(count):
                ObjectEngine._emit(routes, records, 1)

        assert lane == _overflow(instance_major)
        assert lane.startswith(f"emission overflow into {named}:")

    def test_fitting_pushes_do_not_raise(self):
        routes = _routes((10.0, 9.0))
        ObjectEngine._emit(routes, 3.0, 3)
        assert [queue.length for queue, _, _ in routes] == [9.0, 10.0]


def _two_sink_sim():
    """An eight-wide lane emitting into a fast and a slow sink: two
    routes, the slow sink's queue full after ten seconds."""
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(30_000.0)),
            map_operator("work", costs=CostModel(processing_cost=1e-5)),
            sink("fast", costs=CostModel(processing_cost=1e-4)),
            sink("slow", costs=CostModel(processing_cost=2e-4)),
        ],
        [Edge("src", "work"), Edge("work", "fast"), Edge("work", "slow")],
    )
    return chain_sim(
        graph, {"src": 1, "work": 8, "fast": 1, "slow": 1}, FlinkRuntime()
    )


@pytest.mark.parametrize(
    "room, named",
    [
        # The fast sink is full: both fill at the first instance, and
        # the fast sink is the earlier route.
        (0.0, "fast[0]"),
        # The fast sink fills at the second instance: the slow one
        # first, though route-major pushes reach the fast sink first.
        (9000.0, "slow[0]"),
    ],
)
def test_multi_route_overflow_matches_per_instance(room, named):
    """With the downstream limit broken and ``room`` records free in
    the fast sink's queue, a lane of eight and eight single instances
    raise the same overflow message."""

    def run():
        sim = _two_sink_sim()
        sim.run_for(10.0)
        (fast,) = sim._engine._lanes["fast"][0].ports.values()
        fast.force_push(max(0.0, fast.free_space - room))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ObjectEngine,
                "_downstream_limit",
                staticmethod(lambda *_: math.inf),
            )
            with pytest.raises(EngineError) as raised:
                sim.step()
        return lane_counts(sim)["work"], str(raised.value)

    counts, lanes = run()
    with _per_instance_runs():
        reference_counts, reference = run()
    assert (counts, reference_counts) == ([8], [1] * 8)
    assert lanes == reference
    assert lanes.startswith(f"emission overflow into {named}:")


def test_dropout_of_half_a_lane_matches_per_instance():
    """A MetricDropout silencing half of an eight-instance lane, then
    lifting: every window over several collections is identical with
    shared metrics rows and with one lane per instance."""

    def run():
        sim = _two_sink_sim()
        dropout = MetricDropout(
            time=2.0, duration=3.0, operator="work", fraction=0.5
        )
        injector = FaultInjector(sim, FaultSchedule([dropout]))
        windows = []
        while sim.time < 8.0:
            injector.step()
            if round(sim.time * 10) % 10 == 0:
                window = injector.collect_metrics()
                windows.append(window_fingerprint(window))
        return windows

    lanes = run()
    with _per_instance_runs():
        reference = run()
    assert lanes == reference
    completeness = [window[6]["work"] for window in lanes]
    assert 0.5 in completeness and completeness[-1] == 1.0
