"""Fast chaos smoke campaign (tier-1 CI).

One small profile × two sampled campaigns on the Heron wordcount,
plus the per-runtime recovery comparison at reduced scale — enough to
catch wiring regressions in the campaign subsystem without the cost of
the full ``repro run chaos`` batch (which lives in benchmarks).
"""

import pytest

from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.experiments import chaos
from repro.experiments.chaos import (
    RECOVERY_CAMPAIGNS,
    RecoveryCellSpec,
    chaos_report,
    recovery_distributions,
    resolve_profile,
    run_chaos,
    run_recovery_cell,
)
from repro.errors import FaultInjectionError
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
    _cell_label,
)
from repro.faults.events import InstanceCrash
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.workloads.wordcount import FLATMAP, heron_wordcount_graph


@pytest.fixture(scope="module")
def smoke_result():
    return run_chaos(
        profile="smoke", campaigns=2, seed=1, include_recovery=False
    )


class TestSmokeCampaign:
    def test_full_matrix_is_scored(self, smoke_result):
        assert smoke_result.profile == "smoke"
        assert smoke_result.campaigns == 2
        # 2 campaigns × 3 controllers.
        assert len(smoke_result.scorecards) == 6
        assert set(smoke_result.aggregates) == {
            "ds2",
            "ds2-legacy",
            "dhalion",
        }

    def test_faults_actually_fired(self, smoke_result):
        """Every campaign injects at least one fault into every run —
        otherwise the scorecards measure a healthy job."""
        assert all(
            card.downtime_fraction > 0
            for card in smoke_result.scorecards
        )

    def test_hardened_ds2_is_not_beaten(self, smoke_result):
        ds2 = smoke_result.aggregates["ds2"].mean_score
        assert ds2 <= smoke_result.aggregates["ds2-legacy"].mean_score
        assert ds2 < smoke_result.aggregates["dhalion"].mean_score
        assert smoke_result.ranking()[0] == "ds2"

    def test_replay_is_byte_identical(self, smoke_result):
        replay = run_chaos(
            profile="smoke", campaigns=2, seed=1, include_recovery=False
        )
        assert replay.scorecards == smoke_result.scorecards
        assert chaos_report(replay) == chaos_report(smoke_result)

    def test_report_mentions_every_controller(self, smoke_result):
        report = chaos_report(smoke_result)
        for name in ("ds2", "ds2-legacy", "dhalion"):
            assert name in report


class TestRecoveryComparison:
    def test_runtimes_have_distinct_distributions(self):
        samples = recovery_distributions(campaigns=1, seed=1)
        assert set(samples) == {"flink", "timely", "heron"}
        means = {
            runtime: sum(values) / len(values)
            for runtime, values in samples.items()
        }
        # Full savepoint restore > container restart > peer re-sync.
        assert means["flink"] > means["heron"] > means["timely"]
        # Same crash schedule everywhere: equal sample counts.
        counts = {len(values) for values in samples.values()}
        assert len(counts) == 1


def _full_horizon_outages(runtime, schedule, tick):
    """The replay loop as it was before the early stop: one uniform
    2-instance wordcount, stepped to the profile's full duration."""
    graph = heron_wordcount_graph()
    simulator = Simulator(
        plan=PhysicalPlan(
            graph=graph, parallelism={name: 2 for name in graph.names}
        ),
        runtime=runtime,
        config=EngineConfig(
            tick=tick, track_record_latency=False, source_catchup_factor=1.3
        ),
    )
    injector = FaultInjector(simulator, schedule)
    while simulator.time < PROFILES["crashes"].duration:
        injector.step()
    return [outage for _, outage in injector.crash_outages]


def _full_horizon_distributions(seed, tick):
    graph = heron_wordcount_graph()
    generator = CampaignGenerator(
        PROFILES["crashes"], CampaignTargets.from_graph(graph), seed=seed
    )
    outages = {}
    for label, runtime in (
        ("flink", FlinkRuntime()),
        ("timely", TimelyRuntime()),
        ("heron", HeronRuntime()),
    ):
        outages[label] = []
        for campaign in range(RECOVERY_CAMPAIGNS):
            outages[label].extend(
                _full_horizon_outages(
                    runtime, generator.schedule(campaign), tick
                )
            )
    return outages


class TestRecoveryReplayExactness:
    """Stopping each replay cell at its last one-shot event must not
    change a single outage sample."""

    @pytest.mark.parametrize("tick", [1.0, 2.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_horizon_replay(self, seed, tick):
        # List equality: same samples in the same fold order, so the
        # report's float sum, min and max are bit-identical too.
        assert recovery_distributions(
            seed=seed, tick=tick
        ) == _full_horizon_distributions(seed, tick)

    @pytest.mark.parametrize("tick", [1.0, 2.0])
    def test_crash_after_final_tick_never_fires(self, monkeypatch, tick):
        duration = PROFILES["crashes"].duration
        late = duration - 0.5  # after the last tick starts at duration - tick
        schedule = FaultSchedule(
            [
                InstanceCrash(time=300.0, operator=FLATMAP, index=1),
                InstanceCrash(time=late, operator=FLATMAP, index=0),
            ],
            seed=5,
        )

        class _FixedGenerator:
            def __init__(self, *args, **kwargs):
                pass

            def schedule(self, campaign):
                return schedule

        monkeypatch.setattr(chaos, "CampaignGenerator", _FixedGenerator)
        for label, runtime in (
            ("flink", FlinkRuntime()),
            ("timely", TimelyRuntime()),
            ("heron", HeronRuntime()),
        ):
            outages = run_recovery_cell(
                RecoveryCellSpec(seed=1, campaign=0, runtime=label, tick=tick)
            )
            assert len(outages) == 1
            assert list(outages) == _full_horizon_outages(
                runtime, schedule, tick
            )

    def test_replay_cell_key_and_label(self):
        spec = RecoveryCellSpec(seed=4, campaign=2, runtime="timely", tick=1.0)
        assert spec.key == (4, 2, "recovery:timely")
        assert _cell_label(spec.key) == (
            "(seed=4, campaign=2, recovery replay on 'timely')"
        )


class TestProfileResolution:
    def test_known_profile_resolves(self):
        assert resolve_profile("mixed").name == "mixed"

    def test_unknown_profile_raises(self):
        with pytest.raises(FaultInjectionError, match="unknown chaos"):
            resolve_profile("volcano")
