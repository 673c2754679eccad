"""Lanes vs one lane per instance: the engine's equivalence oracle.

The engine steps each maximal run of consecutive instances with equal
input weights as one lane (:func:`repro.engine.objects.lane_runs`).
Its reference semantics is one lane per instance, which the
``per_instance`` fixture substitutes by patching ``lane_runs`` for the
deployments made inside its context. Both must give *bit-identical*
TickStats, MetricsWindows, accessor values, per-instance state and
errors, through rescales and instance crashes. Equality here is exact
(``==`` on floats, or their bits), not approximate.

Every cell runs with an even plan and with a hot key: an operator
whose instance 0 takes a larger share of its input, so it runs as two
lanes (the hot instance, then the rest). On Timely a hot key cuts every
operator the same way.
"""

import contextlib
import functools
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
from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine import objects
from repro.engine.objects import ObjectEngine, lane_runs
from repro.engine.recovery import PeerSyncRecovery
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
    run_campaign_cell,
)
from repro.faults.events import InstanceCrash
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.experiments import harness
from repro.experiments.chaos import resolve_workload
from repro.workloads.nexmark import get_query
from repro.workloads.wordcount import (
    flink_wordcount_graph,
    flink_wordcount_initial_parallelism,
    heron_wordcount_graph,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


def _one_lane_per_instance(plan, name):
    return [(index, 1) for index in range(plan.parallelism_of(name))]


@contextlib.contextmanager
def _per_instance_runs():
    deploy = ObjectEngine.deploy

    def checked_deploy(engine, plan, carried):
        deploy(engine, plan, carried)
        assert all(
            lane.count == 1
            for lanes in engine._lanes.values()
            for lane in lanes
        ), "the reference deployed a lane of several instances"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objects, "lane_runs", _one_lane_per_instance)
        patch.setattr(ObjectEngine, "deploy", checked_deploy)
        yield


@pytest.fixture(scope="module")
def per_instance():
    """A context manager: every deployment made inside it runs one lane
    per instance, the reference the lanes are compared with."""
    return _per_instance_runs


def assert_matches_per_instance(per_instance, run):
    """``run()`` builds and drives a simulator and returns its trace;
    the trace must not depend on the lane layout."""
    lanes = run()
    with per_instance():
        reference = run()
    assert lanes == reference


def lane_counts(sim):
    return {
        name: [lane.count for lane in lanes]
        for name, lanes in sim._engine._lanes.items()
    }


#: Skew axis: the hot instance's share of its operator's input.
SKEWS = {"uniform": 0.0, "hot": 0.5}


def hot_key(skew, operator):
    """A partitioner giving ``operator`` the hot key ``SKEWS[skew]``."""
    return Partitioner({operator: SKEWS[skew]})


def test_per_instance_fixture_runs_one_lane_per_instance(per_instance):
    graph = get_query("Q5").flink_graph()
    plan = PhysicalPlan(
        graph,
        {"bids": 1, "hot_items": 8, "sink": 1},
        partitioner=hot_key("hot", "hot_items"),
    )
    assert lane_counts(Simulator(plan, FlinkRuntime()))["hot_items"] == [
        1,
        7,
    ]
    with per_instance():
        sim = Simulator(plan, FlinkRuntime())
    assert lane_counts(sim)["hot_items"] == [1] * 8


def window_fingerprint(window):
    """Everything a MetricsWindow reports, in comparable form."""
    return (
        window.start,
        window.end,
        sorted(window.instances.items()),
        sorted(window.health.items()),
        window.source_observed_rates,
        window.outage_fraction,
        window.completeness,
        window.registered_parallelism,
        window.truncated,
    )


def accessor_fingerprint(sim):
    """The Simulator observability accessors, all operators."""
    return (
        sim.time,
        sim.total_queued_records(),
        sim.pending_records(),
        tuple(sim.backpressured_operators()),
        {
            name: (
                sim.queue_length(name),
                sim.pending_records(name),
                sim.max_fill_fraction(name),
                sim.utilization(name),
            )
            for name in sim.graph.topological_order()
        },
    )


def run_campaign(sim, ticks, rescale=None, fail=None):
    """Three phases of ``ticks`` steps with a collection after each;
    a rescale after phase 0 and an instance crash after phase 1.
    Returns every TickStats, window fingerprint, and accessor
    fingerprint produced along the way."""
    trace = []
    for phase in range(3):
        for _ in range(ticks):
            trace.append(sim.step())
        trace.append(accessor_fingerprint(sim))
        trace.append(window_fingerprint(sim.collect_metrics()))
        if phase == 0 and rescale is not None:
            sim.rescale(rescale)
        if phase == 1 and fail is not None:
            trace.append(sim.fail_instance(*fail))
    return trace


def assert_campaign_matches(per_instance, make_sim, ticks, **actions):
    assert_matches_per_instance(
        per_instance,
        lambda: run_campaign(make_sim(), ticks, **actions),
    )


@pytest.mark.parametrize("skew", sorted(SKEWS))
class TestCampaignEquivalence:
    def test_wordcount_flink(self, skew, per_instance):
        graph = flink_wordcount_graph()
        parallelism = flink_wordcount_initial_parallelism()

        def make_sim():
            plan = PhysicalPlan(
                graph,
                parallelism,
                max_parallelism=24,
                partitioner=hot_key(skew, "count"),
            )
            return Simulator(
                plan, FlinkRuntime(), EngineConfig(tick=0.5, cost_jitter=0.1)
            )

        assert_campaign_matches(
            per_instance,
            make_sim,
            ticks=120,
            rescale={"flatmap": parallelism["flatmap"] - 4},
            fail=("count", 0),
        )

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, HeronRuntime]
    )
    def test_nexmark_q5_windowed(self, runtime_cls, skew, per_instance):
        query = get_query("Q5")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 32)

        def make_sim():
            plan = PhysicalPlan(
                graph,
                parallelism,
                max_parallelism=36,
                partitioner=hot_key(skew, "hot_items"),
            )
            return Simulator(
                plan,
                runtime_cls(),
                EngineConfig(
                    tick=0.25,
                    track_record_latency=True,
                    cost_jitter=0.1,
                ),
            )

        assert_campaign_matches(
            per_instance,
            make_sim,
            ticks=150,
            rescale={"hot_items": 20},
            fail=("hot_items", 3),
        )

    def test_nexmark_q3_join_flink(self, skew, per_instance):
        """A two-input join: the multi-port pop path."""
        query = get_query("Q3")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 6)

        def make_sim():
            plan = PhysicalPlan(
                graph,
                parallelism,
                max_parallelism=36,
                partitioner=hot_key(skew, "incremental_join"),
            )
            return Simulator(
                plan,
                FlinkRuntime(),
                EngineConfig(tick=0.25, cost_jitter=0.1),
            )

        assert_campaign_matches(
            per_instance,
            make_sim,
            ticks=150,
            rescale={"incremental_join": 3},
            fail=("incremental_join", 1),
        )

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, TimelyRuntime, HeronRuntime]
    )
    def test_crash_replay_shape(self, runtime_cls, skew, per_instance):
        """Heron wordcount at parallelism 3 under a crash-only fault
        schedule: the chaos experiment's recovery replay."""
        graph = heron_wordcount_graph()
        schedule = CampaignGenerator(
            PROFILES["crashes"], CampaignTargets.from_graph(graph), seed=3
        ).schedule(0)

        def run():
            sim = Simulator(
                PhysicalPlan(
                    graph,
                    {name: 3 for name in graph.names},
                    partitioner=hot_key(skew, "count"),
                ),
                runtime_cls(),
                EngineConfig(
                    tick=1.0,
                    track_record_latency=False,
                    source_catchup_factor=1.3,
                ),
            )
            injector = FaultInjector(sim, schedule)
            trace = []
            while sim.time < 400.0:
                trace.append(injector.step())
                if sim.time % 50.0 == 0.0:
                    trace.append(accessor_fingerprint(sim))
                    trace.append(window_fingerprint(sim.collect_metrics()))
            assert injector.crash_outages, "the schedule crashed nothing"
            trace.append(injector.crash_outages)
            return trace

        assert_matches_per_instance(per_instance, run)

    def test_nexmark_q3_timely(self, skew, per_instance):
        query = get_query("Q3")
        graph = query.timely_graph()

        def make_sim():
            plan = PhysicalPlan(
                graph,
                {name: 4 for name in graph.names},
                max_parallelism=8,
                partitioner=hot_key(skew, "incremental_join"),
            )
            return Simulator(plan, TimelyRuntime(), EngineConfig(tick=0.25))

        assert_campaign_matches(per_instance, make_sim, ticks=150)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_nexmark_q5_timely(self, workers, skew, per_instance):
        """Timely's per-worker water-fill with a hot key: workers
        1..P-1 see equal demands, so they share one lane."""
        graph = get_query("Q5").timely_graph()

        def make_sim():
            plan = PhysicalPlan(
                graph,
                {name: workers for name in graph.names},
                partitioner=hot_key(skew, "hot_items"),
            )
            return Simulator(
                plan,
                TimelyRuntime(),
                EngineConfig(tick=0.25, epoch_seconds=1.0, cost_jitter=0.1),
            )

        assert_campaign_matches(per_instance, make_sim, ticks=100)


class TestAccessorEquivalence:
    """The observability accessors report the same values mid-campaign
    with and without lanes (not only at collections)."""

    @pytest.fixture(params=sorted(SKEWS))
    def simulators(self, request, per_instance):
        query = get_query("Q5")
        graph = query.flink_graph()
        plan = PhysicalPlan(
            graph,
            query.initial_parallelism(graph, 16),
            max_parallelism=36,
            partitioner=hot_key(request.param, "hot_items"),
        )

        def make_sim():
            return Simulator(
                plan,
                FlinkRuntime(),
                EngineConfig(tick=0.25, track_record_latency=True),
            )

        # Only a deployment reads the lane layout, so the reference
        # keeps one lane per instance outside the context too.
        lanes = make_sim()
        with per_instance():
            reference = make_sim()
        return lanes, reference

    def test_accessors_identical_every_tick(self, simulators):
        lanes, reference = simulators
        for _ in range(200):
            lanes.step()
            reference.step()
            assert accessor_fingerprint(lanes) == accessor_fingerprint(
                reference
            )

    def test_utilization_nonzero_under_load(self, simulators):
        lanes, reference = simulators
        for sim in simulators:
            sim.run_for(30.0)
        utilization = lanes.utilization("hot_items")
        assert 0.0 < utilization <= 1.0
        assert utilization == reference.utilization("hot_items")

    def test_unknown_operator_rejected(self, simulators):
        for sim in simulators:
            with pytest.raises(EngineError):
                sim.queue_length("nope")
            with pytest.raises(EngineError):
                sim.max_fill_fraction("nope")

    def test_materialized_instances_match(self, simulators):
        """``Simulator._instances`` sees the same queues and window
        state per instance with and without lanes."""
        lanes, reference = simulators
        for sim in simulators:
            sim.run_for(20.0)
        for name in lanes.graph.topological_order():
            laned = lanes._instances[name]
            expected = reference._instances[name]
            assert len(laned) == len(expected)
            for lane, inst in zip(laned, expected):
                assert lane.iid == inst.iid
                assert lane.fire_backlog == inst.fire_backlog
                assert lane.total_queue_length == inst.total_queue_length
                assert (lane.window is None) == (inst.window is None)
                if lane.window is not None:
                    assert lane.window.buffered == inst.window.buffered
                    assert lane.window.next_fire == inst.window.next_fire


def instances_fingerprint(sim):
    """The ``Simulator._instances`` view in comparable form: every
    port's length and conservation counters, window state and fire
    backlog, per instance."""
    return {
        name: [
            (
                inst.iid,
                {
                    port: (queue.length, queue._pushed, queue._popped)
                    for port, queue in inst.ports.items()
                },
                None
                if inst.window is None
                else (inst.window.buffered, inst.window.next_fire),
                inst.fire_backlog,
            )
            for inst in instances
        ]
        for name, instances in sim._instances.items()
    }


def _free_flink():
    """Flink with a free reconfiguration mechanism: rescales and crash
    recoveries redeploy at once (``state / inf`` is exactly 0)."""
    return FlinkRuntime(
        savepoint=SavepointModel(
            base_seconds=0.0,
            snapshot_bandwidth=math.inf,
            redeploy_seconds=0.0,
        )
    )


def _free_timely():
    """Timely with a free savepoint and a free peer re-sync: rescales
    and crash recoveries redeploy at once."""
    return TimelyRuntime(
        savepoint=_free_flink().savepoint_model(),
        recovery=PeerSyncRecovery(
            base_seconds=0.0,
            sync_bandwidth=math.inf,
            rejoin_seconds=0.0,
        ),
    )


def _narrow_wordcount(runtime, skew, **config):
    graph = heron_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 2, "flatmap": 1, "count": 1, "sink": 1},
        max_parallelism=24,
        partitioner=Partitioner({"count": skew}),
    )
    return Simulator(plan, runtime, EngineConfig(**config))


def _narrow_q5(runtime, skew, **config):
    graph = get_query("Q5").flink_graph()
    plan = PhysicalPlan(
        graph,
        {"bids": 1, "hot_items": 4, "sink": 1},
        max_parallelism=36,
        partitioner=Partitioner({"hot_items": skew}),
    )
    return Simulator(plan, runtime, EngineConfig(**config))


def _timely_q5(runtime, skew, **config):
    """Windowed Q5 on 4 Timely workers, with epoch latency on."""
    graph = get_query("Q5").timely_graph()
    plan = PhysicalPlan(
        graph,
        {name: 4 for name in graph.names},
        partitioner=Partitioner({"hot_items": skew}),
    )
    return Simulator(
        plan, runtime, EngineConfig(epoch_seconds=1.0, **config)
    )


def _timely_q5_workers(workers):
    """Every operator of Timely Q5 at ``workers`` instances."""
    return {name: workers for name in get_query("Q5").timely_graph().names}


#: Hot-key shares of the redeploy cells: none, one that is even at
#: four instances but not at eight, the paper's 50% and 70%.
REDEPLOY_SKEWS = {"uniform": 0.0, "mild": 0.2, "hot": 0.5, "hotter": 0.7}


class TestRedeploys:
    """Each redeploy rebuilds the lanes from the carried totals, and a
    run through rescales and a crash must equal the per-instance run
    bit for bit. The rescaled operator carries the hot key, so its
    lanes change shape at every redeploy."""

    WIDE = {"flatmap": 4, "count": 8}
    NARROW = {"flatmap": 2, "count": 3}

    #: (narrow simulator, runtime, wide rescale, narrow rescale,
    #: crashed operator): wordcount, windowed Q5 whose carry includes
    #: window buffers and fire backlogs, and Q5 on Timely, whose
    #: demand-driven budgets are granted every tick, moving every
    #: operator from 4 workers to 8 and then to 3.
    CELLS = {
        "wordcount": (_narrow_wordcount, _free_flink, WIDE, NARROW, "count"),
        "q5": (
            _narrow_q5,
            _free_flink,
            {"hot_items": 12},
            {"hot_items": 3},
            "hot_items",
        ),
        "timely-q5": (
            _timely_q5,
            _free_timely,
            _timely_q5_workers(8),
            _timely_q5_workers(3),
            "hot_items",
        ),
    }

    def _run(self, cell, skew):
        make_sim, runtime, wide, narrow, crashed = self.CELLS[cell]
        sim = make_sim(
            runtime(),
            REDEPLOY_SKEWS[skew],
            tick=0.5,
            cost_jitter=0.1,
            track_record_latency=True,
        )
        trace = []

        def phase():
            # 61 half-second ticks: redeploys land between window fires,
            # so the carry holds window-buffered records.
            for _ in range(61):
                trace.append(sim.step())
            trace.append(accessor_fingerprint(sim))
            trace.append(instances_fingerprint(sim))
            trace.append(sim.state_model.total_bytes)
            trace.append(window_fingerprint(sim.collect_metrics()))

        phase()
        trace.append(sim.rescale(wide))
        phase()
        # A zero-cost crash redeploys the same (wide) plan.
        trace.append(sim.fail_instance(crashed, 3))
        phase()
        trace.append(sim.rescale(narrow))
        phase()
        trace.append(sim.record_latency.distribution.quantile(0.99))
        if sim.epoch_latency is not None:
            trace.append(sim.epoch_latency.distribution.quantile(0.99))
        return trace

    @pytest.mark.parametrize("skew", sorted(REDEPLOY_SKEWS))
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_matches_per_instance(
        self, cell, skew, per_instance
    ):
        assert_matches_per_instance(
            per_instance, lambda: self._run(cell, skew)
        )

    def _outage_run(self):
        """Flink with real savepoint outages: the wide plan is pending
        while a crash extends the outage, and applies when it ends."""
        sim = _narrow_wordcount(
            FlinkRuntime(),
            0.5,
            tick=1.0,
            track_record_latency=False,
            source_catchup_factor=1.3,
        )
        schedule = FaultSchedule([InstanceCrash(time=70.0, operator="count")])
        injector = FaultInjector(sim, schedule)
        trace, layouts = [], []
        for until, updates in ((60.0, self.WIDE), (250.0, self.NARROW)):
            while sim.time < until:
                trace.append(injector.step())
            trace.append(window_fingerprint(injector.collect_metrics()))
            outage = injector.rescale(updates)
            assert outage > 0
            trace.append(outage)
            layouts.append(lane_counts(sim)["count"])
            while sim.in_outage:
                trace.append(injector.step())
            layouts.append(lane_counts(sim)["count"])
            trace.append(instances_fingerprint(sim))
            trace.append(sim.state_model.total_bytes)
        while sim.time < 400.0:
            trace.append(injector.step())
        trace.append(window_fingerprint(injector.collect_metrics()))
        return trace, layouts, injector.crash_outages

    def test_redeploy_at_outage_end_with_pending_crash(self, per_instance):
        trace, layouts, crashes = self._outage_run()
        # The lanes change when the outage ends, not at the request.
        assert layouts == [[1], [1, 7], [1, 7], [1, 2]]
        assert len(crashes) == 1 and crashes[0][0] == 70.0
        with per_instance():
            reference, _, reference_crashes = self._outage_run()
        assert (reference, reference_crashes) == (trace, crashes)

    def test_chaos_cell_scorecard_matches_per_instance(
        self, monkeypatch, per_instance
    ):
        """The ds2 cell of mixed campaign 0, with a hot key on count:
        DS2 scales count up, so its lanes become the hot instance and
        a run of the rest."""
        monkeypatch.setattr(
            harness,
            "PhysicalPlan",
            functools.partial(
                PhysicalPlan, partitioner=Partitioner({"count": 0.5})
            ),
        )
        load = resolve_workload("wordcount")
        generator = CampaignGenerator(
            PROFILES["mixed"],
            CampaignTargets.from_graph(load.graph_factory()),
            seed=1,
        )
        (spec,) = [
            cell
            for cell in load.runner(1.0).cell_specs(generator, [0])
            if cell.controller == "ds2"
        ]
        picked = []

        def recording_lane_runs(plan, name):
            picked.append(lane_runs(plan, name))
            return picked[-1]

        with monkeypatch.context() as patch:
            patch.setattr(objects, "lane_runs", recording_lane_runs)
            laned = run_campaign_cell(spec)
        assert any(
            len(runs) == 2 and runs[1][1] > 1 for runs in picked
        )
        with per_instance():
            assert run_campaign_cell(spec) == laned


def _corrupt(sim, corruption):
    """Apply one corruption: ``("pushed", operator, port, first)`` adds
    1000 to that queue's pushed counter, ``("backlog", operator,
    first)`` makes that fire backlog -1. ``first`` names the run of
    :func:`lane_runs` starting at that instance, or None for every
    instance; every lane inside it is corrupted, so a lane and the
    instances it stands for hold the same state."""
    kind, name, *where = corruption
    first = where[-1]
    if first is None:
        span = range(sim.plan.parallelism_of(name))
    else:
        (count,) = [
            count for start, count in lane_runs(sim.plan, name)
            if start == first
        ]
        span = range(first, first + count)
    for lane in sim._engine._lanes[name]:
        if lane.iid.index not in span:
            continue
        if kind == "pushed":
            lane.ports[where[0]]._pushed += 1000.0
        else:
            lane.fire_backlog = -1.0


class TestInvariantViolations:
    """With several corrupt queues and backlogs, lanes and instances
    name the first violation in the same order: operators
    topologically, instances by index, an instance's ports before its
    fire backlog. An indexed corruption is on an operator with a hot
    key, whose runs start at instances 0 and 1."""

    CASES = {
        "q3-two-join-queues": (
            "Q3",
            [
                ("pushed", "incremental_join", "person_filter", 1),
                ("pushed", "incremental_join", "auctions", 0),
            ],
        ),
        "q8-backlog-before-later-instance": (
            "Q8",
            [
                ("pushed", "window_join", "persons", 1),
                ("pushed", "window_join", "auctions", 1),
                ("backlog", "window_join", 0),
            ],
        ),
        "q8-port-before-same-instance-backlog": (
            "Q8",
            [
                ("backlog", "window_join", 1),
                ("pushed", "window_join", "auctions", 1),
            ],
        ),
        "q8-uniform-lane": (
            "Q8",
            [
                ("backlog", "window_join", None),
                ("pushed", "window_join", "persons", None),
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_violation_matches(self, case, per_instance):
        query, corruptions = self.CASES[case]
        graph = get_query(query).flink_graph()
        hot = {
            name: 0.5
            for _, name, *where in corruptions
            if where[-1] is not None
        }

        def run():
            sim = Simulator(
                PhysicalPlan(
                    graph,
                    {name: 4 for name in graph.names},
                    partitioner=Partitioner(hot),
                ),
                FlinkRuntime(),
                EngineConfig(tick=0.25),
            )
            sim.run_for(10.0)
            for corruption in corruptions:
                _corrupt(sim, corruption)
            with pytest.raises(EngineError) as raised:
                sim._engine.check_invariants()
            return str(raised.value)

        assert_matches_per_instance(per_instance, run)


def state_fingerprint(sim):
    """Every queue, fire-backlog and window-buffer value per instance
    (operators in topological order, a queue block port-major,
    instances by index), plus the StateModel bytes per operator, as
    float hex strings: equal fingerprints are equal bit for bit."""
    order = sim.graph.topological_order()
    cells = [[], [], [], [], []]
    for name in order:
        instances = sim._instances[name]
        for port in sim.graph.upstream(name):
            queues = [inst.ports[port] for inst in instances]
            cells[0] += [queue.length for queue in queues]
            cells[1] += [queue.total_pushed for queue in queues]
            cells[2] += [queue.total_popped for queue in queues]
        cells[3] += [inst.fire_backlog for inst in instances]
        cells[4] += [
            0.0 if inst.window is None else inst.window.buffered
            for inst in instances
        ]
    cells.append([sim.state_model.state_bytes(name) for name in order])
    return [[value.hex() for value in values] for values in cells]


def bitwise_trace(sim, ticks, actions=None, every=10):
    """The repr of every TickStats (a repr tells -0.0 from 0.0) and,
    every ``every`` ticks, the state fingerprint and a collected
    window. ``actions`` maps a tick number to a callable run on the
    simulator before that tick; its result goes into the trace."""
    actions = actions or {}
    trace = []
    for tick in range(ticks):
        if tick in actions:
            trace.append(repr(actions[tick](sim)))
        trace.append(repr(sim.step()))
        if tick % every == every - 1:
            trace.append(state_fingerprint(sim))
            trace.append(repr(window_fingerprint(sim.collect_metrics())))
    return trace


def chain_graph(rate, costs, sink_cost=1e-9):
    """``src -> ops... -> snk``: one map per entry of ``costs`` (name
    to per-record processing cost)."""
    names = ["src", *costs, "snk"]
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(rate)),
            *(
                map_operator(name, costs=CostModel(processing_cost=cost))
                for name, cost in costs.items()
            ),
            sink("snk", costs=CostModel(processing_cost=sink_cost)),
        ],
        [Edge(up, down) for up, down in zip(names, names[1:])],
    )


def chain_sim(graph, parallelism, runtime, skew=None, **config):
    """``skew`` maps operators to a hot-key share (see
    :class:`~repro.dataflow.physical.Partitioner`)."""
    config.setdefault("tick", 0.1)
    return Simulator(
        PhysicalPlan(
            graph,
            parallelism,
            max_parallelism=16,
            partitioner=Partitioner(skew),
        ),
        runtime,
        EngineConfig(**config),
    )


def assert_chain_matches(per_instance, make_sim, ticks, actions=None):
    assert_matches_per_instance(
        per_instance, lambda: bitwise_trace(make_sim(), ticks, actions)
    )


@pytest.mark.parametrize("skew", sorted(SKEWS))
class TestChains:
    """Bounded chains whose wide operator runs as one or two lanes next
    to width-1 neighbours, compared bit for bit."""

    def test_source_into_wide_bounded_operator(self, skew, per_instance):
        """A width-1 source backpressured by a wide bounded operator."""
        graph = chain_graph(120_000.0, {"work": 1e-4})

        def make_sim():
            return chain_sim(
                graph,
                {"src": 1, "work": 8, "snk": 1},
                FlinkRuntime(),
                skew={"work": SKEWS[skew]},
                cost_jitter=0.1,
            )

        assert_chain_matches(per_instance, make_sim, 200)
        sim = make_sim()
        sim.run_for(20.0)
        assert "work" in sim.backpressured_operators()

    @staticmethod
    def _filling_sink(skew):
        graph = chain_graph(30_000.0, {"work": 1e-5}, sink_cost=1e-4)
        return chain_sim(
            graph,
            {"src": 1, "work": 8, "snk": 1},
            FlinkRuntime(),
            skew={"work": SKEWS[skew]},
        )

    def test_wide_operator_fills_bounded_sink(self, skew, per_instance):
        """Eight instances push into a full width-1 sink, where
        individual pushes clamp."""
        assert_chain_matches(
            per_instance, lambda: self._filling_sink(skew), 200
        )
        sim = self._filling_sink(skew)
        sim.run_for(20.0)
        assert sim.max_fill_fraction("snk") > 1.0 - 1e-9

    def test_overflow_into_width1_queue_raises_same_error(
        self, skew, per_instance
    ):
        """With the downstream limit broken, lanes and instances fail
        on the same push with the same message."""

        def run():
            sim = self._filling_sink(skew)
            sim.run_for(10.0)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    ObjectEngine,
                    "_downstream_limit",
                    staticmethod(lambda *_: math.inf),
                )
                with pytest.raises(EngineError) as raised:
                    sim.step()
            return str(raised.value)

        assert_matches_per_instance(per_instance, run)
        assert run().startswith("emission overflow into snk[0]")

    def test_width1_operators_in_a_chain(self, skew, per_instance):
        """Width-1 maps on both sides of a wide one: one fed by a
        width-1 source and emitting into a wide queue, and one fed by
        eight instances and emitting into a width-1 sink."""
        graph = chain_graph(
            25_000.0, {"pre": 1e-5, "work": 1e-4, "post": 5e-5}
        )

        def make_sim():
            return chain_sim(
                graph,
                {"src": 1, "pre": 1, "work": 8, "post": 1, "snk": 1},
                FlinkRuntime(),
                skew={"work": SKEWS[skew]},
                cost_jitter=0.1,
                track_record_latency=True,
            )

        assert_chain_matches(per_instance, make_sim, 200)

    def test_rescale_from_width1_and_back(self, skew, per_instance):
        graph = chain_graph(
            25_000.0, {"pre": 6e-5, "work": 1e-4, "post": 1e-5}
        )

        def make_sim():
            return chain_sim(
                graph,
                {"src": 1, "pre": 1, "work": 8, "post": 1, "snk": 1},
                _free_flink(),
                skew={"pre": SKEWS[skew], "work": SKEWS[skew]},
            )

        assert_chain_matches(
            per_instance,
            make_sim,
            240,
            actions={
                60: lambda sim: sim.rescale({"pre": 3, "src": 2}),
                150: lambda sim: sim.rescale({"pre": 1, "src": 1}),
            },
        )


if HAVE_HYPOTHESIS:

    @given(
        widths=st.tuples(*[st.sampled_from((1, 2, 8))] * 4),
        rate=st.sampled_from((5_000.0, 40_000.0)),
        hot=st.sampled_from(((), ("a",), ("b", "snk"))),
        rescaled=st.sampled_from((1, 3, 8)),
        timely=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_chain_widths(
        per_instance, widths, rate, hot, rescaled, timely
    ):
        """Any mix of widths 1, 2 and 8 along a chain, with hot keys on
        none, one or two operators, through a rescale of ``b`` and a
        zero-cost crash; bounded (Flink) or, at one common width,
        demand-driven (Timely)."""
        graph = chain_graph(rate, {"a": 2e-5, "b": 1e-4})
        if timely:
            parallelism = dict.fromkeys(graph.names, widths[0])
            rescale = dict.fromkeys(graph.names, rescaled)
        else:
            parallelism = dict(zip(graph.names, widths))
            rescale = {"b": rescaled}

        def make_sim():
            return chain_sim(
                graph,
                parallelism,
                _free_timely() if timely else _free_flink(),
                skew={name: 0.5 for name in hot},
                cost_jitter=0.1,
            )

        assert_chain_matches(
            per_instance,
            make_sim,
            60,
            actions={
                20: lambda sim: sim.rescale(rescale),
                40: lambda sim: sim.fail_instance("b", 0),
            },
        )
