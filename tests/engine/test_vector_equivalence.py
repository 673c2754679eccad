"""Object vs vector engine backend equivalence.

The ``vector`` (struct-of-arrays) backend must be *bit-identical* to
the ``object`` backend — same TickStats, same MetricsWindows, same
observability accessor values, same errors — through rescales and
instance crashes. Equality here is exact (``==`` on floats), not
approximate: the vector backend replays the object backend's float64
operations operation for operation (see ``docs/engine.md``).

These tests drive full campaigns over the representative cells: the
smoke wordcount pipeline, the windowed Nexmark Q5 job (Flink and Heron
runtimes), the two-input Q3 join, a Timely deployment (shared-worker
water-filling budgets), and the narrow crash-replay shape of the chaos
experiment on all three runtimes.

Under default selection the backend is picked per deployment by the
plan's widest operator in object-engine lanes (an evenly partitioned
operator is one lane), so a rescale of a skewed operator across
:data:`VECTOR_MIN_WIDTH` switches backends mid-run; the switching tests
check that such a run equals both pinned runs.
"""

import dataclasses
import functools
import math
import random

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
from repro.engine.npcompat import HAVE_NUMPY
from repro.engine.objects import ObjectEngine
from repro.engine.recovery import PeerSyncRecovery
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine import simulator as simulator_module
from repro.engine.simulator import EngineConfig, Simulator
from repro.engine import vectorized
from repro.engine.vectorized import (
    ENGINE_ENV,
    VECTOR_MIN_WIDTH,
    resolve_backend,
    width_backend,
)
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

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector backend requires numpy"
)


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


def assert_backends_identical(make_sim, ticks, rescale=None, fail=None):
    traces = []
    for backend in ("object", "vector"):
        # Identical jitter streams for both backends.
        random.seed(20180621)  # repro: allow[REPRO102] — deliberate: same jitter both backends
        traces.append(
            run_campaign(make_sim(backend), ticks, rescale, fail)
        )
    assert traces[0] == traces[1]


class TestCampaignEquivalence:
    def test_wordcount_flink(self):
        graph = flink_wordcount_graph()
        parallelism = flink_wordcount_initial_parallelism()
        names = list(parallelism)

        def make_sim(backend):
            plan = PhysicalPlan(graph, parallelism, max_parallelism=24)
            return Simulator(
                plan,
                FlinkRuntime(),
                EngineConfig(tick=0.5, cost_jitter=0.1),
                backend=backend,
            )

        assert_backends_identical(
            make_sim,
            ticks=120,
            rescale={names[1]: max(1, parallelism[names[1]] - 4)},
            fail=(names[2], 0),
        )

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, HeronRuntime]
    )
    def test_nexmark_q5_windowed(self, runtime_cls):
        query = get_query("Q5")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 32)

        def make_sim(backend):
            plan = PhysicalPlan(graph, parallelism, max_parallelism=36)
            return Simulator(
                plan,
                runtime_cls(),
                EngineConfig(
                    tick=0.25,
                    track_record_latency=True,
                    cost_jitter=0.1,
                ),
                backend=backend,
            )

        assert_backends_identical(
            make_sim,
            ticks=150,
            rescale={"hot_items": 20},
            fail=("hot_items", 3),
        )

    def test_nexmark_q3_join_flink(self):
        """A two-input join: the multi-port pop path."""
        query = get_query("Q3")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 6)

        def make_sim(backend):
            plan = PhysicalPlan(graph, parallelism, max_parallelism=36)
            return Simulator(
                plan,
                FlinkRuntime(),
                EngineConfig(tick=0.25, cost_jitter=0.1),
                backend=backend,
            )

        assert_backends_identical(
            make_sim,
            ticks=150,
            rescale={"incremental_join": 3},
            fail=("incremental_join", 1),
        )

    @pytest.mark.parametrize(
        "runtime_cls", [FlinkRuntime, TimelyRuntime, HeronRuntime]
    )
    def test_crash_replay_shape(self, runtime_cls):
        """Heron wordcount at uniform parallelism 2 under a crash-only
        fault schedule: the chaos experiment's recovery replay."""
        graph = heron_wordcount_graph()
        schedule = CampaignGenerator(
            PROFILES["crashes"], CampaignTargets.from_graph(graph), seed=3
        ).schedule(0)
        traces = []
        for backend in ("object", "vector"):
            sim = Simulator(
                PhysicalPlan(graph, {name: 2 for name in graph.names}),
                runtime_cls(),
                EngineConfig(
                    tick=1.0,
                    track_record_latency=False,
                    source_catchup_factor=1.3,
                ),
                backend=backend,
            )
            injector = FaultInjector(sim, schedule)
            trace = []
            while sim.time < 400.0:
                trace.append(injector.step())
                if sim.time % 50.0 == 0.0:
                    trace.append(accessor_fingerprint(sim))
                    trace.append(window_fingerprint(sim.collect_metrics()))
            trace.append(injector.crash_outages)
            traces.append(trace)
        assert traces[0][-1], "the schedule crashed nothing"
        assert traces[0] == traces[1]

    def test_nexmark_q3_timely(self):
        query = get_query("Q3")
        graph = query.timely_graph()
        parallelism = {name: 4 for name in graph.names}

        def make_sim(backend):
            plan = PhysicalPlan(graph, parallelism, max_parallelism=8)
            return Simulator(
                plan, TimelyRuntime(), EngineConfig(tick=0.25),
                backend=backend,
            )

        assert_backends_identical(make_sim, ticks=150)


class TestAccessorEquivalence:
    """Satellite contract: the observability accessors report the same
    values mid-campaign on both backends (not only at collections)."""

    @pytest.fixture()
    def simulators(self):
        query = get_query("Q5")
        graph = query.flink_graph()
        parallelism = query.initial_parallelism(graph, 16)
        sims = []
        for backend in ("object", "vector"):
            plan = PhysicalPlan(graph, parallelism, max_parallelism=36)
            sims.append(
                Simulator(
                    plan,
                    FlinkRuntime(),
                    EngineConfig(tick=0.25, track_record_latency=True),
                    backend=backend,
                )
            )
        return sims

    def test_accessors_identical_every_tick(self, simulators):
        object_sim, vector_sim = simulators
        for _ in range(200):
            object_sim.step()
            vector_sim.step()
            assert accessor_fingerprint(
                object_sim
            ) == accessor_fingerprint(vector_sim)

    def test_utilization_nonzero_under_load(self, simulators):
        object_sim, vector_sim = simulators
        for sim in simulators:
            sim.run_for(30.0)
        utilization = vector_sim.utilization("hot_items")
        assert 0.0 < utilization <= 1.0
        assert utilization == object_sim.utilization("hot_items")

    def test_unknown_operator_rejected_identically(self, simulators):
        for sim in simulators:
            with pytest.raises(EngineError):
                sim.queue_length("nope")
            with pytest.raises(EngineError):
                sim.max_fill_fraction("nope")

    def test_materialized_instances_match(self, simulators):
        """Poking Simulator._instances (as older tests do) sees the
        same queues and window state on both backends."""
        object_sim, vector_sim = simulators
        for sim in simulators:
            sim.run_for(20.0)
        for name in object_sim.graph.topological_order():
            object_instances = object_sim._instances[name]
            vector_instances = vector_sim._instances[name]
            assert len(object_instances) == len(vector_instances)
            for obj, vec in zip(object_instances, vector_instances):
                assert obj.iid == vec.iid
                assert obj.fire_backlog == vec.fire_backlog
                assert obj.total_queue_length == vec.total_queue_length
                assert (obj.window is None) == (vec.window is None)
                if obj.window is not None:
                    assert obj.window.buffered == vec.window.buffered
                    assert obj.window.next_fire == vec.window.next_fire


#: A hot key on wordcount's count operator: instance 0 takes half its
#: input, so at two or more instances each one is a lane of its own.
HOT_COUNT = Partitioner({"count": 0.5})


def _uniform_plan(width, partitioner=None):
    graph = heron_wordcount_graph()
    return PhysicalPlan(
        graph,
        {name: width for name in graph.names},
        partitioner=partitioner,
    )


class TestBackendSelection:
    def test_default_picks_by_width(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_backend(None) is None
        narrow = _uniform_plan(VECTOR_MIN_WIDTH - 1, HOT_COUNT)
        wide = _uniform_plan(VECTOR_MIN_WIDTH, HOT_COUNT)
        assert width_backend(narrow) == "object"
        assert width_backend(wide) == "vector"

    def test_even_operators_count_one_lane(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert width_backend(_uniform_plan(512)) == "object"

    def test_widest_operator_decides(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        graph = heron_wordcount_graph()
        plan = PhysicalPlan(
            graph,
            {"flatmap": 1, "count": VECTOR_MIN_WIDTH},
            partitioner=HOT_COUNT,
        )
        sim = Simulator(plan, HeronRuntime(), EngineConfig(tick=0.5))
        assert sim.backend == "vector"

    def test_default_without_numpy_is_object(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
        assert width_backend(_uniform_plan(64, HOT_COUNT)) == "object"

    def test_pin_overrides_width(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "object")
        assert resolve_backend(None) == "object"
        assert resolve_backend("vector") == "vector"
        wide = Simulator(
            _uniform_plan(VECTOR_MIN_WIDTH, HOT_COUNT), HeronRuntime(),
            EngineConfig(tick=0.5),
        )
        assert wide.backend == "object"
        narrow = Simulator(
            _uniform_plan(1), HeronRuntime(), EngineConfig(tick=0.5),
            backend="vector",
        )
        assert narrow.backend == "vector"

    def test_env_selects_vector(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_backend(None) == "vector"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_backend("object") == "object"

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError):
            resolve_backend("gpu")

    def test_simulator_reports_backend(self):
        graph = flink_wordcount_graph()
        plan = PhysicalPlan(
            graph,
            flink_wordcount_initial_parallelism(),
            max_parallelism=24,
        )
        sim = Simulator(
            plan, FlinkRuntime(), EngineConfig(tick=0.5),
            backend="vector",
        )
        assert sim.backend == "vector"


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


def _switching_runtime():
    """Flink with a free reconfiguration mechanism: rescales and crash
    recoveries redeploy at once (``state / inf`` is exactly 0)."""
    return FlinkRuntime(
        savepoint=SavepointModel(
            base_seconds=0.0,
            snapshot_bandwidth=math.inf,
            redeploy_seconds=0.0,
        )
    )


def _switching_timely():
    """Timely with a free savepoint and a free peer re-sync: rescales
    and crash recoveries redeploy at once."""
    return TimelyRuntime(
        savepoint=_switching_runtime().savepoint_model(),
        recovery=PeerSyncRecovery(
            base_seconds=0.0,
            sync_bandwidth=math.inf,
            rejoin_seconds=0.0,
        ),
    )


def _narrow_wordcount(runtime, backend=None, **config):
    """Wordcount with a hot key on count, so a rescale of count
    crosses the lane threshold."""
    graph = heron_wordcount_graph()
    plan = PhysicalPlan(
        graph,
        {"source": 2, "flatmap": 1, "count": 1, "sink": 1},
        max_parallelism=24,
        partitioner=HOT_COUNT,
    )
    return Simulator(
        plan, runtime, EngineConfig(**config), backend=backend
    )


#: A hot key on Q5's windowed operator.
HOT_ITEMS = Partitioner({"hot_items": 0.5})


def _narrow_q5(runtime, backend=None, **config):
    graph = get_query("Q5").flink_graph()
    plan = PhysicalPlan(
        graph,
        {"bids": 1, "hot_items": 4, "sink": 1},
        max_parallelism=36,
        partitioner=HOT_ITEMS,
    )
    return Simulator(
        plan, runtime, EngineConfig(**config), backend=backend
    )


def _timely_q5(runtime, backend=None, **config):
    """Windowed Q5 on 4 Timely workers, with epoch latency on and a hot
    key on hot_items: the per-worker water-fill then gives every
    operator unequal budgets, so the object engine runs no lane."""
    graph = get_query("Q5").timely_graph()
    plan = PhysicalPlan(
        graph, {name: 4 for name in graph.names}, partitioner=HOT_ITEMS
    )
    return Simulator(
        plan,
        runtime,
        EngineConfig(epoch_seconds=1.0, **config),
        backend=backend,
    )


def _timely_q5_workers(workers):
    """Every operator of Timely Q5 at ``workers`` instances."""
    return {name: workers for name in get_query("Q5").timely_graph().names}


class TestBackendSwitching:
    """Under default selection every deployment picks its backend, and
    a run that switches must equal both pinned runs bit for bit. Each
    cell has a hot key on the operator it rescales, which crosses the
    lane threshold."""

    WIDE = {"flatmap": 4, "count": VECTOR_MIN_WIDTH}
    NARROW = {"flatmap": 2, "count": 3}

    #: (narrow simulator, runtime, wide rescale, narrow rescale,
    #: crashed operator): wordcount, windowed Q5 whose carry includes
    #: window buffers and fire backlogs, and Q5 on Timely, whose
    #: demand-driven budgets are granted every tick, moving every
    #: operator from 4 workers to 8 and then to 3.
    CELLS = {
        "wordcount": (
            _narrow_wordcount, _switching_runtime, WIDE, NARROW, "count"
        ),
        "q5": (
            _narrow_q5,
            _switching_runtime,
            {"hot_items": VECTOR_MIN_WIDTH + 4},
            {"hot_items": 3},
            "hot_items",
        ),
        "timely-q5": (
            _timely_q5,
            _switching_timely,
            _timely_q5_workers(VECTOR_MIN_WIDTH),
            _timely_q5_workers(3),
            "hot_items",
        ),
    }

    def _run(self, cell, backend):
        make_sim, runtime, wide, narrow, crashed = self.CELLS[cell]
        sim = make_sim(
            runtime(),
            backend,
            tick=0.5,
            cost_jitter=0.1,
            track_record_latency=True,
        )
        trace, backends = [], [sim.backend]

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
        backends.append(sim.backend)
        phase()
        # A zero-cost crash redeploys the same (wide) plan.
        trace.append(sim.fail_instance(crashed, 3))
        backends.append(sim.backend)
        phase()
        trace.append(sim.rescale(narrow))
        backends.append(sim.backend)
        phase()
        trace.append(sim.record_latency.distribution.quantile(0.99))
        if sim.epoch_latency is not None:
            trace.append(sim.epoch_latency.distribution.quantile(0.99))
        return trace, backends

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_switch_up_and_down_matches_both_pins(self, cell, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        default, backends = self._run(cell, None)
        assert backends == ["object", "vector", "vector", "object"]
        for pin in ("object", "vector"):
            pinned, pinned_backends = self._run(cell, pin)
            assert set(pinned_backends) == {pin}
            assert pinned == default

    def _outage_run(self, backend):
        """Flink with real savepoint outages: the wide plan is pending
        while a crash extends the outage, and applies when it ends."""
        sim = _narrow_wordcount(
            FlinkRuntime(),
            backend,
            tick=1.0,
            track_record_latency=False,
            source_catchup_factor=1.3,
        )
        schedule = FaultSchedule([InstanceCrash(time=70.0, operator="count")])
        injector = FaultInjector(sim, schedule)
        trace, backends = [], []
        for until, updates in ((60.0, self.WIDE), (250.0, self.NARROW)):
            while sim.time < until:
                trace.append(injector.step())
            trace.append(window_fingerprint(injector.collect_metrics()))
            outage = injector.rescale(updates)
            assert outage > 0
            trace.append(outage)
            backends.append(sim.backend)
            while sim.in_outage:
                trace.append(injector.step())
            backends.append(sim.backend)
            trace.append(instances_fingerprint(sim))
            trace.append(sim.state_model.total_bytes)
        while sim.time < 400.0:
            trace.append(injector.step())
        trace.append(window_fingerprint(injector.collect_metrics()))
        return trace, backends, injector.crash_outages

    def test_switch_at_outage_end_with_pending_crash(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        trace, backends, crashes = self._outage_run(None)
        # The backend changes when the outage ends, not at the request.
        assert backends == ["object", "vector", "vector", "object"]
        assert len(crashes) == 1 and crashes[0][0] == 70.0
        for pin in ("object", "vector"):
            assert self._outage_run(pin) == (trace, [pin] * 4, crashes)

    def test_env_after_construction_switches_nothing(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        sim = _narrow_wordcount(_switching_runtime(), tick=0.5)
        monkeypatch.setenv(ENGINE_ENV, "vector")
        sim.run_for(5.0)
        sim.rescale(self.NARROW)
        assert sim.backend == "object"
        monkeypatch.setenv(ENGINE_ENV, "object")
        sim.rescale(self.WIDE)
        assert sim.backend == "vector"

        monkeypatch.setenv(ENGINE_ENV, "object")
        pinned = _narrow_wordcount(_switching_runtime(), tick=0.5)
        monkeypatch.delenv(ENGINE_ENV)
        pinned.run_for(5.0)
        pinned.rescale(self.WIDE)
        assert pinned.backend == "object"

    def test_chaos_cell_scorecard_independent_of_backend(
        self, monkeypatch
    ):
        """The ds2 cell of mixed campaign 0, with a hot key on count,
        scales count past VECTOR_MIN_WIDTH lanes, so by default it
        switches backends mid-run."""
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        monkeypatch.setattr(
            harness,
            "PhysicalPlan",
            functools.partial(PhysicalPlan, partitioner=HOT_COUNT),
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

        def recording_width_backend(plan):
            picked.append(vectorized.width_backend(plan))
            return picked[-1]

        monkeypatch.setattr(
            simulator_module, "width_backend", recording_width_backend
        )
        default = run_campaign_cell(spec)
        assert {"object", "vector"} <= set(picked)
        for pin in ("object", "vector"):
            pinned = dataclasses.replace(spec, engine_backend=pin)
            assert run_campaign_cell(pinned) == default


def _corrupt(sim, corruption):
    """Apply one corruption to either backend's live state: ``("pushed",
    operator, port, index)`` adds 1000 to that queue's pushed counter,
    ``("backlog", operator, index)`` makes that fire backlog -1. Index
    None corrupts every instance: on the object backend, the one lane
    of an evenly partitioned operator; an index names a lane of its
    own."""
    kind, name, *where = corruption
    index = where[-1]
    if sim.backend == "object":
        lanes = sim._engine._lanes[name]
        if index is None:
            (lane,) = lanes
        else:
            (lane,) = [lane for lane in lanes if lane.iid.index == index]
            assert lane.count == 1
        if kind == "pushed":
            lane.ports[where[0]]._pushed += 1000.0
        else:
            lane.fire_backlog = -1.0
        return
    op = sim._engine._ops[name]
    column = slice(None) if index is None else index
    if kind == "pushed":
        op.q_pushed[op.port_index[where[0]], column] += 1000.0
    else:
        op.fire_backlog[column] = -1.0


class TestInvariantViolations:
    """With several corrupt queues and backlogs, both backends name the
    first violation in the same order: operators topologically,
    instances by index, an instance's ports before its fire backlog.
    The corrupted operator of an indexed case has a hot key, so each of
    its instances is a lane of its own on the object backend."""

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
                ("pushed", "window_join", "auctions", 2),
                ("backlog", "window_join", 0),
            ],
        ),
        "q8-port-before-same-instance-backlog": (
            "Q8",
            [
                ("backlog", "window_join", 1),
                ("pushed", "window_join", "auctions", 1),
                ("pushed", "window_join", "persons", 3),
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
    def test_first_violation_matches(self, case):
        query, corruptions = self.CASES[case]
        graph = get_query(query).flink_graph()
        hot = {
            name: 0.5
            for _, name, *where in corruptions
            if where[-1] is not None
        }
        messages = []
        for backend in ("object", "vector"):
            sim = Simulator(
                PhysicalPlan(
                    graph,
                    {name: 4 for name in graph.names},
                    partitioner=Partitioner(hot),
                ),
                FlinkRuntime(),
                EngineConfig(tick=0.25),
                backend=backend,
            )
            sim.run_for(10.0)
            for corruption in corruptions:
                _corrupt(sim, corruption)
            with pytest.raises(EngineError) as raised:
                sim._engine.check_invariants()
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def assert_arena_aliased(sim):
    """Every state array of every operator is a view into the current
    deployment's arena (an empty queue block shares no memory, so
    portless operators skip the queue fields)."""
    import numpy as np

    engine = sim._engine
    assert sim.backend == "vector"
    arena = engine._arena
    for op in engine._ops.values():
        fields = [
            ("fire_backlog", arena.fire_backlog),
            ("counters", arena.counters),
        ]
        if op.ports:
            fields += [
                ("q_len", arena.q_len),
                ("q_pushed", arena.q_pushed),
                ("q_popped", arena.q_popped),
            ]
        if op.win_buffered is not None:
            fields.append(("win_buffered", arena.win_buffered))
        for field, buffer in fields:
            assert np.shares_memory(getattr(op, field), buffer), (
                op.name,
                field,
            )


class TestArena:
    def test_views_survive_every_redeploy(self, monkeypatch):
        """Deploy, a non-staggered window fire, a rescale that switches
        object to vector, and a crash recovery all leave the operator
        state aliased to the arena."""
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        sim = _narrow_q5(_switching_runtime(), "vector", tick=0.5)
        assert_arena_aliased(sim)
        sim = _narrow_q5(_switching_runtime(), tick=0.5)
        sim.run_for(5.0)
        assert sim.backend == "object"
        sim.rescale({"hot_items": VECTOR_MIN_WIDTH + 4})
        assert sim.backend == "vector"
        assert_arena_aliased(sim)
        window = sim._engine._ops["hot_items"]
        assert not window.spec.window.staggered
        next_fire = window.win_next_fire
        sim.run_for(5.0)
        assert window.win_next_fire > next_fire
        assert float(window.fire_backlog.max()) > 0
        assert_arena_aliased(sim)
        before = sim._engine._arena
        sim.fail_instance("hot_items", 3)
        assert sim._engine._arena is not before
        assert_arena_aliased(sim)
        sim.run_for(5.0)
        assert_arena_aliased(sim)

    def test_record_block_once_per_active_tick(self, monkeypatch):
        """One record_block per active vector tick, whatever the
        operator count, and none during a rescale outage."""
        from repro.engine.metrics_manager import MetricsManager

        calls = []
        record_block = MetricsManager.record_block

        def spy(self, start, stop, counters):
            calls.append((start, stop))
            return record_block(self, start, stop, counters)

        monkeypatch.setattr(MetricsManager, "record_block", spy)
        graph = get_query("Q3").flink_graph()
        sim = Simulator(
            PhysicalPlan(
                graph, {name: 4 for name in graph.names}, max_parallelism=36
            ),
            FlinkRuntime(),
            EngineConfig(tick=0.25),
            backend="vector",
        )
        active = 0
        for tick in range(200):
            if tick == 60:
                assert sim.rescale({"incremental_join": 6}) > 0
            active += not sim.step().in_outage
        assert 0 < active < 200
        assert len(calls) == active
        widths = {sum(sim.plan.parallelism.values())}
        widths.add(4 * len(graph.names))
        assert {stop for _, stop in calls} == widths
        assert {start for start, _ in calls} == {0}


def arena_fingerprint(sim):
    """Every queue, fire-backlog and window-buffer cell in the arena's
    layout (operators in topological order, a queue block port-major,
    instances by index), plus the StateModel bytes per operator, as
    float hex strings: equal fingerprints are equal bit for bit. An
    object-backend run is laid out the same way."""
    order = sim.graph.topological_order()
    if sim.backend == "vector":
        arena = sim._engine._arena
        cells = [
            buffer.tolist()
            for buffer in (
                arena.q_len,
                arena.q_pushed,
                arena.q_popped,
                arena.fire_backlog,
                arena.win_buffered,
            )
        ]
    else:
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
    """The repr of every TickStats (a repr tells -0.0 from 0.0, and a
    numpy scalar from a float) and, every ``every`` ticks, the arena
    fingerprint and a collected window. ``actions`` maps a tick number
    to a callable run on the simulator before that tick; its result
    goes into the trace."""
    actions = actions or {}
    trace = []
    for tick in range(ticks):
        if tick in actions:
            trace.append(repr(actions[tick](sim)))
        trace.append(repr(sim.step()))
        if tick % every == every - 1:
            trace.append(arena_fingerprint(sim))
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


def chain_sim(graph, parallelism, runtime, backend, skew=None, **config):
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
        backend=backend,
    )


class TestScalarPaths:
    """Width-1 sources, width-1 single-port operators and the pushes
    into width-1 queues run as float code in the vector backend; each
    case pins both backends and compares the runs bit for bit."""

    @staticmethod
    def _run_both(make_sim, ticks, actions=None):
        """Run ``make_sim(backend)`` on both backends; return the
        vector simulator and assert the traces are identical."""
        traces, sims = [], []
        for backend in ("object", "vector"):
            sims.append(make_sim(backend))
            traces.append(bitwise_trace(sims[-1], ticks, actions))
        assert traces[0] == traces[1]
        return sims[1]

    @staticmethod
    def _scalar_ops(sim):
        return {
            name for name, op in sim._engine._ops.items() if op.scalar
        }

    def test_source_into_wide_bounded_operator(self):
        """A width-1 source backpressured by a wide bounded operator."""
        graph = chain_graph(120_000.0, {"work": 1e-4})

        def make_sim(backend):
            return chain_sim(
                graph,
                {"src": 1, "work": 8, "snk": 1},
                FlinkRuntime(),
                backend,
                cost_jitter=0.1,
            )

        sim = self._run_both(make_sim, 200)
        assert self._scalar_ops(sim) == {"src", "snk"}
        assert "work" in sim.backpressured_operators()

    def _filling_sink(self, backend):
        graph = chain_graph(30_000.0, {"work": 1e-5}, sink_cost=1e-4)
        return chain_sim(
            graph, {"src": 1, "work": 8, "snk": 1}, FlinkRuntime(), backend
        )

    def test_wide_operator_fills_bounded_sink(self):
        """Eight instances push into a full width-1 sink, where
        individual pushes clamp."""
        sim = self._run_both(self._filling_sink, 200)
        assert sim.max_fill_fraction("snk") > 1.0 - 1e-9

    def test_overflow_into_width1_queue_raises_same_error(
        self, monkeypatch
    ):
        """With the downstream limit broken, both backends fail on the
        same push with the same message."""
        messages = []
        for backend in ("object", "vector"):
            sim = self._filling_sink(backend)
            sim.run_for(10.0)
            with monkeypatch.context() as patch:
                for owner in (ObjectEngine, vectorized.VectorEngine):
                    patch.setattr(
                        owner,
                        "_downstream_limit",
                        staticmethod(lambda *_: math.inf),
                    )
                with pytest.raises(EngineError) as raised:
                    sim.step()
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("emission overflow into snk[0]")

    def test_width1_operators_in_a_chain(self):
        """Width-1 maps on both sides of a wide one: a scalar operator
        fed by a scalar source and emitting into a wide queue, and one
        fed by eight instances and emitting into a width-1 sink."""
        graph = chain_graph(
            25_000.0, {"pre": 1e-5, "work": 1e-4, "post": 5e-5}
        )

        def make_sim(backend):
            return chain_sim(
                graph,
                {"src": 1, "pre": 1, "work": 8, "post": 1, "snk": 1},
                FlinkRuntime(),
                backend,
                cost_jitter=0.1,
                track_record_latency=True,
            )

        sim = self._run_both(make_sim, 200)
        assert self._scalar_ops(sim) == {"src", "pre", "post", "snk"}
        assert sim.backpressured_operators()

    def test_width1_sink_on_timely(self):
        """Unbounded queues and demand-driven budgets: one Timely
        worker runs every operator."""
        graph = chain_graph(20_000.0, {"work": 3e-5}, sink_cost=2e-5)

        def make_sim(backend):
            return chain_sim(
                graph,
                {name: 1 for name in graph.names},
                TimelyRuntime(),
                backend,
                epoch_seconds=1.0,
            )

        sim = self._run_both(make_sim, 200)
        assert self._scalar_ops(sim) == set(graph.names)
        assert sim.queue_length("work") > 0

    def test_width1_join_stays_on_arrays(self):
        graph = get_query("Q3").flink_graph()

        def make_sim(backend):
            return chain_sim(
                graph,
                {name: 1 for name in graph.names},
                FlinkRuntime(),
                backend,
                tick=0.25,
                cost_jitter=0.1,
            )

        sim = self._run_both(make_sim, 200)
        assert self._scalar_ops(sim) == set(graph.names) - {
            "incremental_join"
        }

    def test_rescale_from_width1_and_back(self):
        graph = chain_graph(
            25_000.0, {"pre": 6e-5, "work": 1e-4, "post": 1e-5}
        )
        scalar_sets = []

        def rescale(updates):
            def action(sim):
                outage = sim.rescale(updates)
                if sim.backend == "vector":
                    scalar_sets.append(self._scalar_ops(sim))
                return outage

            return action

        def make_sim(backend):
            return chain_sim(
                graph,
                {"src": 1, "pre": 1, "work": 8, "post": 1, "snk": 1},
                _switching_runtime(),
                backend,
            )

        self._run_both(
            make_sim,
            240,
            actions={
                60: rescale({"pre": 2, "src": 2}),
                150: rescale({"pre": 1, "src": 1}),
            },
        )
        assert scalar_sets == [
            {"post", "snk"},
            {"src", "pre", "post", "snk"},
        ]

    if HAVE_HYPOTHESIS:

        @given(
            widths=st.tuples(*[st.sampled_from((1, 2, 8))] * 4),
            rate=st.sampled_from((5_000.0, 40_000.0)),
            hot=st.sampled_from(((), ("a",), ("b", "snk"))),
            rescaled=st.sampled_from((1, 3, 8)),
        )
        @settings(max_examples=15, deadline=None)
        def test_property_chain_widths(self, widths, rate, hot, rescaled):
            """Any mix of widths 1, 2 and 8 along a bounded chain, with
            hot keys on none, one or two operators (so the object
            backend mixes lanes with per-instance operators), through
            a rescale of ``b`` and a zero-cost crash."""
            graph = chain_graph(rate, {"a": 2e-5, "b": 1e-4})

            def make_sim(backend):
                return chain_sim(
                    graph,
                    dict(zip(graph.names, widths)),
                    _switching_runtime(),
                    backend,
                    skew={name: 0.5 for name in hot},
                    cost_jitter=0.1,
                )

            self._run_both(
                make_sim,
                60,
                actions={
                    20: lambda sim: sim.rescale({"b": rescaled}),
                    40: lambda sim: sim.fail_instance("b", 0),
                },
            )
