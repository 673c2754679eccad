"""The engine's lanes: one ``_Instance`` stands for a run of
consecutive instances with equal input weights.

The bit-identity of lanes against separate instances is checked by the
lanes-vs-per-instance comparisons in ``test_lane_equivalence.py`` and
by the counted water-fill property in ``test_allocation.py``; these
tests pin the lane layout itself and the guards around it.
"""

import math
import random

import pytest

from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.dataflow.state import SavepointModel
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


class TestProgramFollowsRedeploys:
    """Each deployment compiles its own tick program; the invariant
    check and the backpressure scan walk its flat tuples. After every
    kind of redeploy they must see the new lanes' queues, which a
    program left over from the previous deployment does not hold."""

    KINDS = ["zero-outage-rescale", "outage-end", "zero-cost-crash"]

    def _redeployed(self, kind):
        outage = 2.0 if kind == "outage-end" else 0.0
        runtime = FlinkRuntime(
            savepoint=SavepointModel(
                base_seconds=outage,
                snapshot_bandwidth=math.inf,
                redeploy_seconds=0.0,
            )
        )
        sim = _sim(runtime, WIDE, skew={"count": 0.5})
        sim.run_for(5.0)
        lanes = sim._engine._lanes["count"]
        if kind == "zero-cost-crash":
            assert sim.fail_instance("count", 1) == 0.0
        else:
            assert sim.rescale({"count": 6}) == outage
            while sim.in_outage:
                sim.step()
        assert sim._engine._lanes["count"][1] is not lanes[1]
        sim._engine.check_invariants()
        return sim

    @pytest.mark.parametrize("kind", KINDS)
    def test_invariant_check_names_corrupted_lane(self, kind):
        sim = self._redeployed(kind)
        sim._engine._lanes["count"][1].fire_backlog = -1.0
        with pytest.raises(
            EngineError, match=r"negative fire backlog at count\[1\]"
        ):
            sim._engine.check_invariants()

    @pytest.mark.parametrize("kind", KINDS)
    def test_invariant_check_sees_nan_queue(self, kind):
        sim = self._redeployed(kind)
        (queue,) = sim._engine._lanes["count"][1].ports.values()
        queue._length = math.nan
        with pytest.raises(EngineError, match="length=nan"):
            sim._engine.check_invariants()

    @pytest.mark.parametrize("kind", KINDS)
    def test_backpressure_sees_filled_queue(self, kind):
        sim = self._redeployed(kind)
        assert "count" not in sim.backpressured_operators()
        (queue,) = sim._engine._lanes["count"][1].ports.values()
        threshold = sim.runtime.backpressure_threshold
        queue.force_push(threshold * queue.capacity - queue.length)
        assert queue.fill_fraction >= threshold
        assert "count" in sim.backpressured_operators()


class TestStateView:
    """``ObjectEngine.state()``: one read-only entry per instance, in
    topological and index order, whatever the lanes."""

    def test_one_entry_per_instance(self):
        sim = _sim(FlinkRuntime(), WIDE)
        sim.run_for(10.0)
        view = sim._engine.state()
        assert tuple(view.operators) == sim.graph.topological_order()
        assert {
            name: len(instances)
            for name, instances in view.operators.items()
        } == WIDE
        (lane,) = sim._engine._lanes["count"]
        instances = view.operators["count"]
        (queue,) = lane.ports.values()
        for instance in instances:
            assert dict(instance.ports) == {
                "flatmap": (
                    queue.length,
                    queue.total_pushed,
                    queue.total_popped,
                )
            }
            assert instance.window is None
        assert sim.queue_length("count") == sum(
            sum(port.length for port in instance.ports.values())
            + instance.fire_backlog
            for instance in instances
        )
        assert all(not i.ports for i in view.operators["source"])
        assert dict(view.source_backlogs) == {
            "source": sim.source_backlog("source")
        }

    def test_view_is_read_only(self):
        sim = _sim(FlinkRuntime(), WIDE)
        sim.run_for(10.0)
        view = sim._engine.state()
        instance = view.operators["count"][0]
        with pytest.raises(TypeError):
            view.operators["count"] = ()
        with pytest.raises(TypeError):
            instance.ports["flatmap"] = instance.ports["flatmap"]
        with pytest.raises(TypeError):
            view.source_backlogs["source"] = 0.0
        with pytest.raises(AttributeError):
            instance.fire_backlog = 1.0
        with pytest.raises(AttributeError):
            instance.ports["flatmap"].length = 0.0
        # The engine moves on; a view taken earlier does not.
        before = instance.ports["flatmap"].pushed
        sim.run_for(10.0)
        assert instance.ports["flatmap"].pushed == before
        assert sim._engine.state().operators["count"][0].ports[
            "flatmap"
        ].pushed > before

    def test_window_state_is_included(self):
        """Buffered records and both fire clocks, after a redeploy at
        1.5 s has reset the clocks."""
        graph = get_query("Q5").flink_graph()
        sim = Simulator(
            PhysicalPlan(graph, {"bids": 1, "hot_items": 4, "sink": 1}),
            FlinkRuntime(
                savepoint=SavepointModel(
                    base_seconds=0.0,
                    snapshot_bandwidth=math.inf,
                    redeploy_seconds=0.0,
                )
            ),
            EngineConfig(tick=0.25),
        )
        sim.run_for(1.3)
        assert sim.rescale({"hot_items": 5}) == 0.0
        (lane,) = sim._engine._lanes["hot_items"]
        window = sim._engine.state().operators["hot_items"][2].window
        assert window.buffered == lane.window.buffered > 0
        assert window.next_fire == lane.window.next_fire
        assert window.last_check == lane.window._last_check == 1.5

    def test_rng_state_follows_the_cost_noise(self):
        """Each active tick with cost jitter draws from the RNG, whose
        state the view holds."""
        graph = heron_wordcount_graph()
        sim = Simulator(
            PhysicalPlan(graph, WIDE, max_parallelism=24),
            FlinkRuntime(),
            EngineConfig(tick=0.5, cost_jitter=0.1, seed=7),
        )
        rng = random.Random(7)
        assert sim._engine.state().rng == rng.getstate()
        sim.step()
        for _ in graph.names:
            rng.uniform(-0.1, 0.1)
        assert sim._engine.state().rng == rng.getstate()


def _walk_reference(engine):
    """The backpressured operators and the first invariant error of
    ``engine``, from the queues' own ``fill_fraction`` and
    ``check_conservation``, lane by lane in operator order."""
    threshold = engine._threshold
    hot = tuple(
        name
        for name, lanes in engine._lanes.items()
        if any(
            queue.bounded and queue.fill_fraction >= threshold
            for lane in lanes
            for queue in lane.ports.values()
        )
    )
    error = None
    try:
        for lanes in engine._lanes.values():
            for lane in lanes:
                for queue in lane.ports.values():
                    queue.check_conservation()
                if lane.fire_backlog < -1e-6:
                    raise EngineError(f"negative fire backlog at {lane.iid}")
    except EngineError as raised:
        error = str(raised)
    return hot, error


def _error_of(call):
    """``call()``'s result and the message of the EngineError it raised
    (None for either that did not happen)."""
    try:
        return call(), None
    except EngineError as raised:
        return None, str(raised)


class TestQueueWalk:
    """``post_tick``, ``backpressured`` and ``check_invariants`` share
    one walk over the queues; over random queue states they agree with
    each other and with the queues' own fill and conservation tests,
    NaN fills, exact threshold ties, conservation drifts and negative
    fire backlogs included."""

    @staticmethod
    def _randomize(engine, rng):
        threshold = engine._threshold
        for lanes in engine._lanes.values():
            for lane in lanes:
                for queue in lane.ports.values():
                    if queue.bounded:
                        # A power of two: threshold * 1024 / 1024 is
                        # the threshold exactly.
                        queue._capacity = 1024.0
                    pick = rng.random()
                    if pick < 0.05:
                        length = math.nan
                    elif pick < 0.3:
                        length = threshold * 1024.0
                    elif pick < 0.4:
                        length = 0.0
                    else:
                        length = rng.uniform(0.0, 1100.0)
                    queue._length = length
                    queue._popped = rng.uniform(0.0, 5000.0)
                    queue._pushed = queue._popped + length
                    if rng.random() < 0.04:
                        queue._pushed += rng.uniform(1.0, 100.0)
                pick = rng.random()
                if pick < 0.04:
                    lane.fire_backlog = -1.0
                elif pick < 0.08:
                    lane.fire_backlog = -1e-7
                else:
                    lane.fire_backlog = rng.uniform(0.0, 50.0)

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, HeronRuntime, TimelyRuntime]
    )
    def test_post_tick_agrees_with_backpressured_and_check(
        self, runtime_cls
    ):
        graph = get_query("Q8").timely_graph()
        if runtime_cls is not TimelyRuntime:
            graph = get_query("Q8").flink_graph()
        sim = Simulator(
            PhysicalPlan(
                graph,
                {name: 4 for name in graph.names},
                partitioner=Partitioner({"window_join": 0.5}),
            ),
            runtime_cls(),
            EngineConfig(tick=0.25),
        )
        engine = sim._engine
        order = graph.topological_order()
        rng = random.Random(37)
        outcomes = set()
        for _ in range(300):
            self._randomize(engine, rng)
            hot, error = _walk_reference(engine)
            assert engine.backpressured() == hot
            assert _error_of(engine.check_invariants)[1] == error
            for check in (True, False):
                seconds = dict.fromkeys(order, 0.0)
                returned, raised = _error_of(
                    lambda: engine.post_tick(0.25, check, seconds)
                )
                assert raised == (error if check else None)
                assert returned in (None, hot)
                assert tuple(n for n in order if seconds[n]) == hot
            outcomes.add((bool(hot), error is None))
        bounded = any(flag for _, _, flag in engine._scan)
        hot_axis = (True, False) if bounded else (False,)
        assert outcomes == {
            (is_hot, ok) for is_hot in hot_axis for ok in (True, False)
        }
        if bounded:
            # An exact tie is hot; one ulp below it is not.
            for lanes in engine._lanes.values():
                for lane in lanes:
                    for queue in lane.ports.values():
                        queue._length = 0.0
            queue = engine._lanes["window_join"][1].ports["auctions"]
            tie = engine._threshold * 1024.0
            queue._length = tie
            assert engine.backpressured() == ("window_join",)
            queue._length = math.nextafter(tie, 0.0)
            assert engine.backpressured() == ()
