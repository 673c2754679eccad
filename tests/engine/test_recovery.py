"""Unit tests of the per-runtime crash-recovery cost models."""

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.recovery import (
    ContainerRestartRecovery,
    PeerSyncRecovery,
    RecoveryModel,
    SavepointRecovery,
)
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    TimelyRuntime,
)
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError

#: A wordcount-sized job: 4 GB of counter state on the stateful
#: operator, spread over 4 workers.
STATE = {"src": 0.0, "count": 4e9, "snk": 0.0}
PARALLELISM = {"src": 2, "count": 4, "snk": 1}


class TestSavepointRecovery:
    def test_matches_papers_flink_band(self):
        """Section 5.3: Flink savepoint-and-restore outages for the
        wordcount job land in the 30-50 s band at a few GB of state."""
        outage = SavepointRecovery().outage_seconds(
            STATE, PARALLELISM, "count"
        )
        assert 30.0 <= outage <= 50.0

    def test_charges_total_state_not_the_crashed_slice(self):
        model = SavepointRecovery()
        spread = {"a": 1e9, "b": 3e9}
        lumped = {"a": 4e9, "b": 0.0}
        assert model.outage_seconds(
            spread, {"a": 2, "b": 2}, "a"
        ) == model.outage_seconds(lumped, {"a": 2, "b": 2}, "b")

    def test_same_cost_as_rescaling(self):
        """Flink crash recovery *is* a savepoint restore, so it costs
        exactly what the rescale mechanism charges."""
        savepoint = SavepointModel()
        recovery = SavepointRecovery(savepoint)
        assert recovery.outage_seconds(
            STATE, PARALLELISM, "count"
        ) == pytest.approx(savepoint.outage_seconds(4e9))


class TestPeerSyncRecovery:
    def test_charges_one_workers_shard(self):
        model = PeerSyncRecovery()
        outage = model.outage_seconds(STATE, PARALLELISM, "count")
        expected = (
            model.base_seconds
            + (4e9 / 4) / model.sync_bandwidth
            + model.rejoin_seconds
        )
        assert outage == pytest.approx(expected)

    def test_more_workers_means_cheaper_recovery(self):
        model = PeerSyncRecovery()
        few = model.outage_seconds(STATE, {"count": 2}, "count")
        many = model.outage_seconds(STATE, {"count": 16}, "count")
        assert many < few

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(EngineError):
            PeerSyncRecovery(sync_bandwidth=0.0)


class TestContainerRestartRecovery:
    def test_nearly_constant_in_total_state(self):
        """Only the crashed instance's own slice replays, so doubling
        *other* operators' state leaves the outage unchanged."""
        model = ContainerRestartRecovery()
        small = model.outage_seconds(STATE, PARALLELISM, "count")
        bigger = dict(STATE, src=8e9)
        assert model.outage_seconds(
            bigger, PARALLELISM, "count"
        ) == pytest.approx(small)

    def test_stateless_crash_costs_the_restart_constant(self):
        model = ContainerRestartRecovery()
        assert model.outage_seconds(
            STATE, PARALLELISM, "src"
        ) == pytest.approx(model.restart_seconds)

    def test_rejects_negative_restart(self):
        with pytest.raises(EngineError):
            ContainerRestartRecovery(restart_seconds=-1.0)


class TestDistinctness:
    def test_three_mechanisms_three_costs(self):
        """The acceptance bar: at wordcount-like state sizes the three
        runtimes' recovery outages are clearly distinct — full restore
        > container restart > peer re-sync of one shard."""
        flink = SavepointRecovery().outage_seconds(
            STATE, PARALLELISM, "count"
        )
        timely = PeerSyncRecovery().outage_seconds(
            STATE, PARALLELISM, "count"
        )
        heron = ContainerRestartRecovery().outage_seconds(
            STATE, PARALLELISM, "count"
        )
        assert flink > heron > timely
        # Not merely ordered: separated by a meaningful margin.
        assert flink > 1.5 * heron
        assert heron > 1.2 * timely


class TestRuntimeWiring:
    def test_default_models_per_runtime(self):
        assert isinstance(
            FlinkRuntime().recovery_model(), SavepointRecovery
        )
        assert isinstance(
            TimelyRuntime().recovery_model(), PeerSyncRecovery
        )
        assert isinstance(
            HeronRuntime().recovery_model(), ContainerRestartRecovery
        )

    def test_flink_recovery_uses_the_runtimes_savepoint(self):
        savepoint = SavepointModel(
            base_seconds=1.0, snapshot_bandwidth=1e9,
            redeploy_seconds=2.0,
        )
        model = FlinkRuntime(savepoint=savepoint).recovery_model()
        assert isinstance(model, SavepointRecovery)
        assert model.savepoint == savepoint

    def test_explicit_override_wins(self):
        custom = ContainerRestartRecovery(restart_seconds=99.0)
        assert FlinkRuntime(recovery=custom).recovery_model() is custom
        assert TimelyRuntime(recovery=custom).recovery_model() is custom
        assert HeronRuntime(recovery=custom).recovery_model() is custom


def _chain_simulator(runtime):
    graph = LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator(
                "op",
                costs=CostModel(processing_cost=1e-4),
                state_bytes_per_record=64,
            ),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )
    return Simulator(
        PhysicalPlan(graph, {"src": 2, "op": 2, "snk": 2}),
        runtime,
        EngineConfig(tick=0.5, track_record_latency=False),
    )


class TestFailInstanceRouting:
    def test_crash_outage_comes_from_the_recovery_model(self):
        """fail_instance consults the runtime's recovery model, not the
        savepoint model — on Heron a crash costs the container restart
        (~12 s), far below the savepoint-and-redeploy constant."""
        sim = _chain_simulator(HeronRuntime())
        sim.run_for(30.0)
        outage = sim.fail_instance("op", 0)
        restart = ContainerRestartRecovery().restart_seconds
        assert outage == pytest.approx(restart, rel=0.2)
        savepoint_floor = (
            HeronRuntime().savepoint_model().outage_seconds(0.0)
        )
        assert outage < savepoint_floor

    def test_crash_cost_ordering_across_runtimes(self):
        outages = {}
        for name, runtime in (
            ("flink", FlinkRuntime()),
            ("timely", TimelyRuntime()),
            ("heron", HeronRuntime()),
        ):
            sim = _chain_simulator(runtime)
            sim.run_for(30.0)
            outages[name] = sim.fail_instance("op", 0)
        assert outages["flink"] > outages["heron"] > outages["timely"]

    @pytest.mark.parametrize("index", [0.5, 1.0, float("nan"), True, False])
    def test_non_int_index_rejected(self, index):
        """A float, NaN or bool names no instance: the crash is refused
        before it charges an outage."""
        sim = _chain_simulator(FlinkRuntime())
        sim.run_for(5.0)
        with pytest.raises(EngineError, match="must be an int"):
            sim.fail_instance("op", index)
        assert sim.crash_count == 0
        assert not sim.in_outage


class TestAbstractContract:
    def test_cannot_instantiate_the_base(self):
        with pytest.raises(TypeError):
            RecoveryModel()  # type: ignore[abstract]
