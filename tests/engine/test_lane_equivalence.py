"""Lanes vs one lane per instance: the engine's equivalence oracle.

The engine steps each maximal run of consecutive instances with equal
input weights as one lane (:func:`repro.engine.objects.lane_runs`).
Its reference semantics is one lane per instance, which the
``per_instance`` fixture substitutes by patching ``lane_runs`` for the
deployments made inside its context. Both must give *bit-identical*
TickStats, MetricsWindows, accessor values, per-instance state and
errors, through rescales and instance crashes. Equality here is exact
(``==`` on floats, or their bits), not approximate. The redeploy and
chain cells compare the engine's whole state view
(:meth:`~repro.engine.objects.ObjectEngine.state`) at every tick, and
a mismatch names the first tick and field that differ.

Every cell runs with an even plan and with a hot key: an operator
whose instance 0 takes a larger share of its input, so it runs as two
lanes (the hot instance, then the rest). On Timely a hot key cuts every
operator the same way.
"""

import contextlib
import functools
import math
from typing import Any, NamedTuple, Tuple

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
from repro.faults.events import InstanceCrash, MetricDropout
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

    def checked_deploy(engine, plan, now):
        deploy(engine, plan, now)
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
    the trace must not depend on the lane layout. The first
    :class:`TickDigest` that differs fails with its tick and the path of
    its first differing field."""
    lanes = run()
    with per_instance():
        reference = run()
    for laned, expected in zip(lanes, reference):
        if isinstance(laned, TickDigest) and laned != expected:
            assert isinstance(expected, TickDigest)
            assert laned.tick == expected.tick
            for (path, value), (other_path, other) in zip(
                laned.fields, expected.fields
            ):
                if (path, value) != (other_path, other):
                    pytest.fail(
                        f"state differs at tick {laned.tick}: lanes "
                        f"{path} = {value}, per instance {other_path} "
                        f"= {other}"
                    )
        assert laned == expected
    assert len(lanes) == len(reference)


class TickDigest(NamedTuple):
    """The state digest after ``tick`` steps (see
    :func:`state_digest`)."""

    tick: int
    fields: Tuple[Tuple[Tuple[Any, ...], Any], ...]


def state_digest(sim, tick):
    """The simulator's state as ``(field path, value)`` pairs, each
    float as its bits (``float.hex``): the virtual time; every port's
    length, pushed and popped, every window's buffered, next fire and
    last check and every fire backlog, operators in topological order
    and instances by index, from the engine's state view; each source
    backlog; the cost-noise RNG state; and the StateModel bytes per
    operator. Equal digests are equal bit for bit."""
    view = sim._engine.state()
    fields = [(("time",), sim.time.hex())]
    for name, instances in view.operators.items():
        for index, instance in enumerate(instances):
            for port, queue in instance.ports.items():
                fields += [
                    ((name, index, port, field), value.hex())
                    for field, value in zip(queue._fields, queue)
                ]
            if instance.window is not None:
                fields += [
                    ((name, index, "window", field), value.hex())
                    for field, value in zip(
                        instance.window._fields, instance.window
                    )
                ]
            fields.append(
                ((name, index, "fire_backlog"), instance.fire_backlog.hex())
            )
    fields += [
        (("source_backlog", name), value.hex())
        for name, value in view.source_backlogs.items()
    ]
    fields.append((("rng",), view.rng))
    fields += [
        (("state_bytes", name), sim.state_model.state_bytes(name).hex())
        for name in view.operators
    ]
    return TickDigest(tick, tuple(fields))


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

    def test_state_views_match(self, simulators):
        """The engine's state view holds the same queues, window state
        and fire backlogs per instance with and without lanes."""
        lanes, reference = simulators
        for sim in simulators:
            sim.run_for(20.0)
        assert state_digest(lanes, 0) == state_digest(reference, 0)


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
                trace.append(state_digest(sim, len(trace)))
            trace.append(accessor_fingerprint(sim))
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

        def step():
            trace.append(injector.step())
            trace.append(state_digest(sim, len(trace)))

        for until, updates in ((60.0, self.WIDE), (250.0, self.NARROW)):
            while sim.time < until:
                step()
            trace.append(window_fingerprint(injector.collect_metrics()))
            outage = injector.rescale(updates)
            assert outage > 0
            trace.append(outage)
            layouts.append(lane_counts(sim)["count"])
            while sim.in_outage:
                step()
            layouts.append(lane_counts(sim)["count"])
        while sim.time < 400.0:
            step()
        trace.append(window_fingerprint(injector.collect_metrics()))
        trace.append(injector.crash_outages)
        return trace, layouts

    def test_redeploy_at_outage_end_with_pending_crash(self, per_instance):
        trace, layouts = self._outage_run()
        # The lanes change when the outage ends, not at the request.
        assert layouts == [[1], [1, 7], [1, 7], [1, 2]]
        crashes = trace[-1]
        assert len(crashes) == 1 and crashes[0][0] == 70.0
        assert_matches_per_instance(
            per_instance, lambda: self._outage_run()[0]
        )

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


@pytest.mark.parametrize("skew", sorted(SKEWS))
class TestDropoutRelayout:
    """Every lane adds to its rows' metrics lists directly, and
    re-resolves them when the metrics layout moves. A dropout of
    half a lane splits its rows (and they stay split after it ends),
    then a rescale and a zero-cost crash each register and share new
    rows; the lanes must match the per-instance run at every tick and
    in every collected window."""

    PARALLELISM = {"source": 4, "flatmap": 4, "count": 4, "sink": 1}

    def _run(self, skew):
        graph = heron_wordcount_graph()
        sim = Simulator(
            PhysicalPlan(
                graph,
                self.PARALLELISM,
                max_parallelism=16,
                partitioner=hot_key(skew, "count"),
            ),
            _free_flink(),
            EngineConfig(tick=0.5, cost_jitter=0.1),
        )
        layout = lane_counts(sim)
        # Both dropouts begin and end between the decisions at 10 and
        # 20 s.
        schedule = FaultSchedule(
            [
                MetricDropout(
                    time=12.0, duration=5.0, operator="flatmap", fraction=0.5
                ),
                MetricDropout(
                    time=12.5, duration=4.0, operator="count", fraction=0.5
                ),
                InstanceCrash(time=45.0, operator="count", index=1),
            ]
        )
        injector = FaultInjector(sim, schedule)
        trace = [layout]
        while sim.time < 60.0:
            trace.append(repr(injector.step()))
            trace.append(state_digest(sim, len(trace)))
            if sim.time % 10.0 == 0.0:
                trace.append(
                    repr(window_fingerprint(injector.collect_metrics()))
                )
                if sim.time == 30.0:
                    trace.append(injector.rescale({"flatmap": 6, "count": 6}))
        assert injector.crash_outages == [(45.0, 0.0)]
        return trace

    def test_matches_per_instance(self, skew, per_instance):
        trace = self._run(skew)
        assert trace[0]["flatmap"] == [4]
        assert_matches_per_instance(per_instance, lambda: self._run(skew)[1:])

    def _timely_run(self, skew, lists=None):
        """Q5 on 6 Timely workers, collected every 5 s, with a dropout
        of half of hot_items from 6 to 8.5 s: it begins and ends
        between two collections. The state digest and the accessors
        (utilization reads the metrics rows) are taken on every tick;
        ``lists`` receives the number of metrics lists on each tick."""
        sim = _timely_q5(_free_timely(), SKEWS[skew])
        schedule = FaultSchedule(
            [
                MetricDropout(
                    time=6.0, duration=2.5, operator="hot_items",
                    fraction=0.5,
                ),
            ]
        )
        injector = FaultInjector(sim, schedule)
        trace = []
        while sim.time < 15.0 - 1e-9:
            trace.append(repr(injector.step()))
            trace.append(state_digest(sim, len(trace)))
            trace.append(accessor_fingerprint(sim))
            if lists is not None:
                lists.append(len(sim.metrics_manager._lists))
            if round(sim.time, 6) % 5.0 == 0.0:
                trace.append(
                    repr(window_fingerprint(injector.collect_metrics()))
                )
        return trace

    def test_dropout_ending_between_collections_on_timely(
        self, skew, per_instance
    ):
        """The dropout splits a lane's shared rows at its boundary
        rather than into one list per row, and the split rows stay
        exact after it ends."""
        lists = []
        self._timely_run(skew, lists)
        # Before the dropout: one list per lane. During and after it:
        # at most one more per operator lane the boundary cuts.
        assert lists[0] == sum(len(v) for v in lane_counts(
            _timely_q5(_free_timely(), SKEWS[skew])
        ).values())
        assert max(lists) <= lists[0] + 1
        assert max(lists) > lists[0]
        assert_matches_per_instance(
            per_instance, lambda: self._timely_run(skew)
        )


@pytest.mark.parametrize("runtime", ["flink", "timely"])
class TestOneLaneDropout:
    """A dropout that silences half of a one-lane source and half of a
    one-lane window operator splits their metrics rows into two lists,
    so both take the general path of their step until a zero-cost
    crash redeploys them as one lane whose rows are one list again.
    The lanes must match the per-instance run at every tick, through
    both switches."""

    @staticmethod
    def _sim(runtime):
        if runtime == "flink":
            graph = get_query("Q5").flink_graph()
            parallelism = {"bids": 4, "hot_items": 4, "sink": 1}
            engine_runtime = _free_flink()
        else:
            graph = get_query("Q5").timely_graph()
            parallelism = {name: 4 for name in graph.names}
            engine_runtime = _free_timely()
        return Simulator(
            PhysicalPlan(graph, parallelism),
            engine_runtime,
            EngineConfig(tick=0.25, cost_jitter=0.1),
        )

    def _run(self, runtime, paths=None):
        """Q5 with half of bids silenced from 3 to 6 s and half of
        hot_items from 3.5 to 5.5 s, and a zero-cost crash of hot_items
        at 8 s; collected every 2 s. ``paths`` receives, on each tick,
        which operators took their one-lane path."""
        sim = self._sim(runtime)
        schedule = FaultSchedule(
            [
                MetricDropout(
                    time=3.0, duration=3.0, operator="bids", fraction=0.5
                ),
                MetricDropout(
                    time=3.5, duration=2.0, operator="hot_items",
                    fraction=0.5,
                ),
                InstanceCrash(time=8.0, operator="hot_items", index=1),
            ]
        )
        injector = FaultInjector(sim, schedule)
        trace = []
        while sim.time < 12.0 - 1e-9:
            trace.append(repr(injector.step()))
            trace.append(state_digest(sim, len(trace)))
            if paths is not None:
                paths.append(
                    {op[1] for op in sim._engine._program if op[10]}
                )
            if round(sim.time, 6) % 2.0 == 0.0:
                trace.append(
                    repr(window_fingerprint(injector.collect_metrics()))
                )
        assert injector.crash_outages == [(8.0, 0.0)]
        return trace

    def test_matches_per_instance(self, runtime, per_instance):
        paths = []
        self._run(runtime, paths)
        solo = {"bids", "hot_items"}
        # paths[k] is the tick from 0.25 * k s: before the dropouts,
        # inside both, after both ended (the rows stay split) and after
        # the crash.
        assert solo <= paths[0]
        assert solo.isdisjoint(paths[15])
        assert solo.isdisjoint(paths[31])
        assert solo <= paths[-1]
        assert_matches_per_instance(per_instance, lambda: self._run(runtime))


def state_totals(view):
    """Per operator of a state view: the records queued per port, the
    window-buffered records and the fire backlog, each summed over the
    instances with :func:`math.fsum` (not the engine's carry code)."""
    totals = {}
    for name, instances in view.operators.items():
        ports = {
            port: math.fsum(i.ports[port].length for i in instances)
            for port in instances[0].ports
        }
        buffered = math.fsum(
            i.window.buffered for i in instances if i.window is not None
        )
        backlog = math.fsum(i.fire_backlog for i in instances)
        totals[name] = (ports, buffered, backlog)
    return totals


class TestRedeployConservation:
    """A redeploy keeps every queued, window-buffered and backlogged
    record and spreads each total over the new instances by their input
    weights. Lanes and the per-instance reference share the carry code,
    so the equivalence oracle cannot see a bug common to both; this
    checks the state view directly, in both layouts."""

    #: Graph and the operator that carries a 20% hot key: even at four
    #: instances, a hot instance and a run of seven at eight.
    CELLS = {
        "wordcount": (flink_wordcount_graph, "count"),
        "q5-windowed": (lambda: get_query("Q5").flink_graph(), "hot_items"),
        "q3-join": (
            lambda: get_query("Q3").flink_graph(),
            "incremental_join",
        ),
    }

    #: Even to skewed, a zero-cost crash of the skewed plan, and back.
    REDEPLOYS = (
        lambda sim, name: sim.rescale({name: 8}),
        lambda sim, name: sim.fail_instance(name, 1),
        lambda sim, name: sim.rescale({name: 4}),
    )

    def _check(self, cell):
        graph_factory, hot = self.CELLS[cell]
        graph = graph_factory()
        parallelism = {name: 2 for name in graph.names}
        parallelism[hot] = 4
        sim = Simulator(
            PhysicalPlan(
                graph,
                parallelism,
                max_parallelism=16,
                partitioner=Partitioner({hot: 0.2}),
            ),
            _free_flink(),
            EngineConfig(tick=0.5, track_record_latency=False),
        )
        runs = [lane_runs(sim.plan, hot)]
        for redeploy in self.REDEPLOYS:
            sim.run_for(15.25)
            before = state_totals(sim._engine.state())
            ports, buffered, backlog = before[hot]
            assert all(total > 0 for total in ports.values())
            if cell == "q5-windowed":
                assert buffered > 0 and backlog > 0
            assert redeploy(sim, hot) == 0.0
            view = sim._engine.state()
            after = state_totals(view)
            for name, (ports, buffered, backlog) in before.items():
                assert after[name] == (
                    pytest.approx(ports, rel=1e-12),
                    pytest.approx(buffered, rel=1e-12),
                    pytest.approx(backlog, rel=1e-12),
                ), name
                weights = sim.plan.input_weights(name)
                instances = view.operators[name]
                assert len(instances) == len(weights)
                for instance, weight in zip(instances, weights):
                    for port, queue in instance.ports.items():
                        assert queue.length == pytest.approx(
                            ports[port] * weight, rel=1e-12
                        )
                    if instance.window is not None:
                        assert instance.window.buffered == pytest.approx(
                            buffered * weight, rel=1e-12
                        )
                    assert instance.fire_backlog == pytest.approx(
                        backlog * weight, rel=1e-12
                    )
            runs.append(lane_runs(sim.plan, hot))
        assert runs == [[(0, 4)], [(0, 1), (1, 7)], [(0, 1), (1, 7)], [(0, 4)]]

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_lanes_conserve_records(self, cell):
        self._check(cell)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_per_instance_conserves_records(self, cell, per_instance):
        with per_instance():
            self._check(cell)


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


def bitwise_trace(sim, ticks, actions=None, every=10):
    """The repr of every TickStats (a repr tells -0.0 from 0.0) and the
    state digest after every tick, and every ``every`` ticks a
    collected window. ``actions`` maps a tick number to a callable run
    on the simulator before that tick; its result goes into the
    trace."""
    actions = actions or {}
    trace = []
    for tick in range(ticks):
        if tick in actions:
            trace.append(repr(actions[tick](sim)))
        trace.append(repr(sim.step()))
        trace.append(state_digest(sim, tick + 1))
        if tick % every == every - 1:
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
