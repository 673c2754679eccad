"""The FaultInjector shim against a live simulator.

Every test drives a real :class:`Simulator` through the injector the
same way the control loop would — the shim's contract is that an
uninjected schedule leaves behaviour byte-identical and each fault type
perturbs exactly its own channel.
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
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.state import SavepointModel
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import EngineError, ReconfigurationError
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
)


def small_graph(rate=1000.0):
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(rate)),
            map_operator("op", costs=CostModel(processing_cost=1e-4)),
            sink("snk"),
        ],
        [Edge("src", "op"), Edge("op", "snk")],
    )


def make_injector(
    schedule,
    source_parallelism=2,
    op_parallelism=2,
    savepoint=None,
):
    graph = small_graph()
    plan = PhysicalPlan(
        graph, {"src": source_parallelism, "op": op_parallelism}
    )
    simulator = Simulator(
        plan,
        FlinkRuntime(savepoint=savepoint or SavepointModel.instant()),
        EngineConfig(tick=0.5, track_record_latency=False),
    )
    return FaultInjector(simulator, schedule)


class TestProxying:
    def test_delegates_untouched_surface(self):
        injector = make_injector(FaultSchedule([]))
        assert injector.time == 0.0
        assert injector.plan.parallelism["op"] == 2
        assert injector.graph.sources() == ("src",)
        assert injector.in_outage is False

    def test_empty_schedule_is_transparent(self):
        plain = make_injector(FaultSchedule([])).simulator
        shimmed = make_injector(FaultSchedule([]))
        for _ in range(20):
            plain.step()
            shimmed.step()
        assert (
            plain.collect_metrics() == shimmed.collect_metrics()
        )


class TestRunFor:
    """``run_for`` and ``run_until`` step through the injector, so every
    tick fires its due faults and syncs the dropouts, as the control
    loop's ticks do."""

    def test_crash_fires_at_its_own_tick(self):
        schedule = FaultSchedule([
            InstanceCrash(time=1.0, operator="op", index=1),
        ])
        injector = make_injector(schedule)
        injector.run_for(5.0)
        assert injector.crash_count == 1
        assert injector.crash_outages == [(1.0, 0.0)]
        assert injector.time == 5.0

    def test_run_until_fires_crash(self):
        schedule = FaultSchedule([InstanceCrash(time=2.0, operator="op")])
        injector = make_injector(schedule)
        injector.run_until(3.0)
        assert [time for time, _ in injector.crash_outages] == [2.0]

    def test_dropout_silences_its_instances(self):
        schedule = FaultSchedule([
            MetricDropout(
                time=1.0, duration=100.0, operator="src", fraction=0.5
            ),
        ])
        injector = make_injector(schedule)
        injector.run_for(5.0)
        assert injector.metrics_manager.suppressed == {
            InstanceId("src", 0)
        }

    @pytest.mark.parametrize("seconds", [-1.0, math.nan, math.inf])
    def test_run_for_rejects_bad_seconds(self, seconds):
        with pytest.raises(EngineError, match="seconds must be finite"):
            make_injector(FaultSchedule([])).run_for(seconds)

    def test_run_until_rejects_bad_times(self):
        injector = make_injector(FaultSchedule([]))
        injector.run_for(1.0)
        with pytest.raises(EngineError, match="time must be finite"):
            injector.run_until(math.nan)
        with pytest.raises(EngineError, match="backwards"):
            injector.run_until(0.5)


class TestMetricDropout:
    def test_suppressed_instances_omitted_and_completeness_reported(self):
        schedule = FaultSchedule([
            MetricDropout(
                time=0.0, duration=100.0, operator="src", fraction=0.5
            ),
        ])
        injector = make_injector(schedule)
        injector.run_for(10.0)
        window = injector.collect_metrics()
        assert window.completeness_of("src") == 0.5
        assert window.completeness_of("op") == 1.0
        assert len(window.instances_of("src")) == 1
        # Registered parallelism still knows the true deployment.
        assert window.registered_parallelism_of("src") == 2

    def test_source_telemetry_depressed(self):
        schedule = FaultSchedule([
            MetricDropout(
                time=0.0, duration=100.0, operator="src", fraction=0.5
            ),
        ])
        injector = make_injector(schedule)
        injector.step()  # sync suppression
        # Monitored target rate halves with half the reporters silent.
        assert injector.source_target_rates()["src"] == pytest.approx(
            500.0
        )
        injector.run_for(10.0)
        window = injector.collect_metrics()
        clean = make_injector(FaultSchedule([]))
        clean.run_for(10.5)
        reference = clean.collect_metrics()
        assert window.source_observed_rates["src"] == pytest.approx(
            reference.source_observed_rates["src"] * 0.5, rel=0.05
        )

    def test_counters_held_and_delivered_after_dropout(self):
        # Ends at t=15, mid second window, so the t=10 collection is
        # still suppressed and the t=20 one sees the catch-up report.
        schedule = FaultSchedule([
            MetricDropout(
                time=0.0, duration=15.0, operator="src", fraction=0.5
            ),
        ])
        injector = make_injector(schedule)
        injector.run_for(10.0)
        during = injector.collect_metrics()
        assert InstanceId("src", 0) not in during.instances
        injector.run_for(10.0)
        after = injector.collect_metrics()
        catchup = after.instances[InstanceId("src", 0)]
        # The silenced reporter catches up: its counters span both
        # windows, not just the last one.
        assert catchup.observed_time == pytest.approx(20.0)
        assert after.completeness_of("src") == 1.0

    def test_full_dropout_suppresses_every_instance(self):
        schedule = FaultSchedule([
            MetricDropout(time=0.0, duration=100.0, operator="op"),
        ])
        injector = make_injector(schedule)
        injector.run_for(10.0)
        window = injector.collect_metrics()
        assert window.instances_of("op") == []
        assert window.completeness_of("op") == 0.0


class _PerTickSync(FaultInjector):
    """The reference: recomputes the silenced set on every sync rather
    than only when a dropout boundary or a redeploy is crossed."""

    def _sync_suppression(self):
        self._dropout_span = (math.inf, -math.inf)
        super()._sync_suppression()


class TestDropoutSync:
    """The dropout sync skips recomputing between boundaries; tick by
    tick it must match recomputing on every call."""

    def _run(self, injector_class, schedule, savepoint, rescale_at):
        from repro.telemetry import Tracer, tracing

        tracer = Tracer()
        suppressed = []
        with tracing(tracer):
            simulator = make_injector(
                schedule, savepoint=savepoint
            ).simulator
            injector = injector_class(simulator, schedule)
            while injector.time < 12.0 - 1e-9:
                now = injector.time
                if now == rescale_at:
                    injector.rescale({"op": 5})
                if now % 2.0 == 0.0:
                    injector.collect_metrics()
                injector.step()
                # What the sync at ``now`` left (a redeploy at the end
                # of this tick has not been re-synced yet).
                suppressed.append(
                    (
                        now,
                        sorted(injector.metrics_manager.suppressed),
                        injector.plan.parallelism["op"],
                    )
                )
        events = [
            (event.time, event.data)
            for event in tracer.events("fault.MetricDropout")
        ]
        return suppressed, events

    def _assert_matches_per_tick(self, schedule, savepoint, rescale_at):
        fast = self._run(FaultInjector, schedule, savepoint, rescale_at)
        reference = self._run(_PerTickSync, schedule, savepoint, rescale_at)
        assert fast == reference
        return fast

    def test_boundaries_on_ticks(self):
        """Start and end at exact tick times (the tick is 0.5 s)."""
        schedule = FaultSchedule([
            MetricDropout(
                time=2.0, duration=3.0, operator="op", fraction=0.5
            ),
            MetricDropout(time=5.0, duration=1.5, operator="src"),
        ])
        suppressed, events = self._assert_matches_per_tick(
            schedule, SavepointModel.instant(), rescale_at=None
        )
        by_time = {time: dark for time, dark, _ in suppressed}
        assert by_time[1.5] == []
        assert by_time[2.0] == [InstanceId("op", 0)]
        assert by_time[5.0] == [InstanceId("src", 0), InstanceId("src", 1)]
        assert by_time[6.5] == []
        assert [time for time, _ in events] == [2.0, 5.0, 6.5]

    @pytest.mark.parametrize(
        "savepoint",
        [SavepointModel.instant(), SavepointModel(1.0, 200e6, 0.5)],
        ids=["zero-outage", "outage"],
    )
    def test_dropout_spanning_a_rescale(self, savepoint):
        """A redeploy clears the suppressed set; the sync re-applies it
        against the new parallelism (round(0.5 * 5) = 2 of 5)."""
        schedule = FaultSchedule([
            MetricDropout(
                time=1.0, duration=8.0, operator="op", fraction=0.5
            ),
        ])
        suppressed, events = self._assert_matches_per_tick(
            schedule, savepoint, rescale_at=3.0
        )
        assert suppressed[-1][2] == 5
        during = [dark for time, dark, _ in suppressed if time == 8.5]
        assert during == [[InstanceId("op", 0), InstanceId("op", 1)]]
        assert len(events) >= 3


class _EveryTick(_PerTickSync):
    """The reference for the due-time gate: fires one-shots and syncs
    the dropouts on every tick."""

    def step(self):
        self._fire_one_shots()
        self._sync_suppression()
        return self._sim.step()


class TestDueGate:
    """``step`` skips its fault checks until the next one-shot, the end
    of the dropout span or a redeploy; tick by tick it must match
    checking every tick."""

    def _run(self, injector_class, savepoint):
        from repro.telemetry import Tracer, tracing

        schedule = FaultSchedule([
            InstanceCrash(time=1.0, operator="op", index=1),
            RescaleFailure(time=2.0, mode="abort"),
            MetricDropout(
                time=3.0, duration=4.0, operator="op", fraction=0.5
            ),
            InstanceCrash(time=4.25, operator="src"),
            MetricDropout(
                time=6.0, duration=1.25, operator="src", fraction=0.5
            ),
        ])
        # The first request is rejected; the other two redeploy during
        # a dropout, which must then be re-applied.
        rescales = {2.5: 4, 5.0: 3, 6.5: 5}
        tracer = Tracer()
        trace = []
        with tracing(tracer):
            simulator = make_injector(
                schedule, savepoint=savepoint
            ).simulator
            injector = injector_class(simulator, schedule)
            while injector.time < 12.0 - 1e-9:
                now = injector.time
                if now in rescales:
                    try:
                        injector.rescale({"op": rescales[now]})
                    except ReconfigurationError as error:
                        trace.append(str(error))
                if now % 2.0 == 0.0:
                    trace.append(repr(injector.collect_metrics()))
                trace.append(repr(injector.step()))
                trace.append(sorted(injector.metrics_manager.suppressed))
        trace.extend(injector.injection_log)
        trace.extend(injector.crash_outages)
        trace.extend(
            (event.kind, event.time, event.data)
            for event in tracer.events()
        )
        return trace

    @pytest.mark.parametrize(
        "savepoint",
        [SavepointModel.instant(), SavepointModel(1.0, 200e6, 0.5)],
        ids=["zero-outage", "outage"],
    )
    def test_matches_checking_every_tick(self, savepoint):
        fast = self._run(FaultInjector, savepoint)
        assert fast == self._run(_EveryTick, savepoint)
        assert "reconfiguration aborted: savepoint refused" in fast


class TestMetricCorruption:
    def _window(self, seed):
        schedule = FaultSchedule([
            MetricCorruption(
                time=0.0, duration=100.0, operator="op", amplitude=0.4
            ),
        ], seed=seed)
        injector = make_injector(schedule)
        injector.run_for(10.0)
        return injector.collect_metrics()

    def test_scales_record_counts_not_timings(self):
        corrupted = self._window(seed=1)
        clean_injector = make_injector(FaultSchedule([]))
        clean_injector.run_for(10.0)
        clean = clean_injector.collect_metrics()
        for iid in clean.instances_of("op"):
            a = corrupted.instances[iid]
            b = clean.instances[iid]
            assert a.records_pulled != b.records_pulled
            assert a.useful_time == b.useful_time
            assert a.observed_time == b.observed_time

    def test_deterministic_per_seed(self):
        assert self._window(seed=3) == self._window(seed=3)
        assert self._window(seed=3) != self._window(seed=4)


class TestMetricLag:
    def test_redelivers_stale_window_then_merges(self):
        schedule = FaultSchedule([
            MetricLag(time=10.0, duration=25.0),  # active 10..35
        ])
        injector = make_injector(schedule)
        injector.run_for(10.0)
        # Lag starts exactly at this collection; with nothing delivered
        # yet to repeat, the newest window leaks through.
        fresh = injector.collect_metrics()
        assert fresh.end == pytest.approx(10.0)
        injector.run_for(10.0)
        stale = injector.collect_metrics()  # t=20, lag active
        assert stale == fresh  # re-delivered, old timestamps and all
        injector.run_for(10.0)
        assert injector.collect_metrics() == fresh  # t=30, still lagging
        injector.run_for(10.0)
        merged = injector.collect_metrics()  # t=40, lag over
        # The backlog arrives as one catch-up window spanning the lag.
        assert merged.start == pytest.approx(10.0)
        assert merged.end == pytest.approx(40.0)


class TestInstanceCrash:
    def test_crash_costs_recovery_outage_and_truncates_window(self):
        schedule = FaultSchedule([
            InstanceCrash(time=5.0, operator="op", index=0),
        ])
        injector = make_injector(
            schedule,
            savepoint=SavepointModel(
                base_seconds=4.0,
                snapshot_bandwidth=1e12,
                redeploy_seconds=0.0,
            ),
        )
        injector.run_for(10.0)
        assert injector.crash_count == 1
        window = injector.collect_metrics()
        assert window.truncated
        assert window.outage_fraction > 0.0
        # The plan itself is untouched by a crash.
        assert injector.plan.parallelism["op"] == 2

    def test_crash_index_clamped_to_parallelism(self):
        schedule = FaultSchedule([
            InstanceCrash(time=1.0, operator="op", index=99),
        ])
        injector = make_injector(schedule)
        injector.run_for(5.0)
        assert injector.crash_count == 1

    def test_crash_of_unknown_operator_skipped(self):
        schedule = FaultSchedule([
            InstanceCrash(time=1.0, operator="ghost"),
        ])
        injector = make_injector(schedule)
        injector.run_for(5.0)
        assert injector.crash_count == 0
        assert any(
            "unknown operator" in msg
            for _, msg in injector.injection_log
        )


class TestRescaleFailure:
    def test_abort_rejects_without_outage(self):
        schedule = FaultSchedule([
            RescaleFailure(time=0.0, mode="abort", count=1),
        ])
        injector = make_injector(schedule)
        injector.run_for(2.0)
        with pytest.raises(ReconfigurationError):
            injector.rescale({"op": 4})
        assert injector.plan.parallelism["op"] == 2
        assert not injector.in_outage
        # The failure is consumed: the next attempt goes through.
        assert injector.rescale({"op": 4}) == 0.0
        assert injector.plan.parallelism["op"] == 4

    def test_timeout_charges_outage_and_keeps_old_plan(self):
        schedule = FaultSchedule([
            RescaleFailure(time=0.0, mode="timeout", count=1),
        ])
        injector = make_injector(
            schedule,
            savepoint=SavepointModel(
                base_seconds=5.0,
                snapshot_bandwidth=1e12,
                redeploy_seconds=0.0,
            ),
        )
        injector.run_for(2.0)
        with pytest.raises(ReconfigurationError):
            injector.rescale({"op": 4})
        assert injector.in_outage
        injector.run_for(6.0)
        # After the wasted outage the old configuration is running.
        assert not injector.in_outage
        assert injector.plan.parallelism["op"] == 2

    def test_count_limits_consecutive_failures(self):
        schedule = FaultSchedule([
            RescaleFailure(time=0.0, mode="abort", count=2),
        ])
        injector = make_injector(schedule)
        injector.run_for(2.0)
        assert injector.armed_rescale_failures == 2
        for _ in range(2):
            with pytest.raises(ReconfigurationError):
                injector.rescale({"op": 4})
        assert injector.armed_rescale_failures == 0
        assert injector.rescale({"op": 4}) == 0.0


class TestHealthCorruption:
    """Corrupts the coarse health channel baselines consume, not the
    record counters DS2 reads."""

    def _injector(self, schedule, rate=9000.0):
        graph = small_graph(rate)
        plan = PhysicalPlan(graph, {"src": 2, "op": 1})
        simulator = Simulator(
            plan,
            FlinkRuntime(savepoint=SavepointModel.instant()),
            EngineConfig(tick=0.5, track_record_latency=False),
        )
        return FaultInjector(simulator, schedule)

    def _window(self, seed, rate=9000.0):
        schedule = FaultSchedule([
            HealthCorruption(
                time=0.0, duration=100.0, operator="op", amplitude=0.9
            ),
        ], seed=seed)
        injector = self._injector(schedule, rate)
        injector.run_for(10.0)
        return injector.collect_metrics()

    def test_perturbs_health_not_counters(self):
        clean_injector = self._injector(FaultSchedule([]))
        clean_injector.run_for(10.0)
        clean = clean_injector.collect_metrics()
        corrupted = self._window(seed=1)
        assert (
            corrupted.health["op"].queue_fill
            != clean.health["op"].queue_fill
        )
        assert (
            corrupted.health["op"].pending_records
            != clean.health["op"].pending_records
        )
        # DS2's channel is untouched: record counters and timings of
        # every instance are byte-identical.
        assert corrupted.instances == clean.instances
        # Other operators' health is untouched too.
        assert corrupted.health["src"] == clean.health["src"]
        assert corrupted.health["snk"] == clean.health["snk"]

    def test_backpressure_flag_recomputed(self):
        # Overload the operator so its queue is genuinely full; the
        # corruption (seed 2 draws a strong downward factor) pulls the
        # reported fill below the Flink threshold, masking the real
        # backpressure — the flag follows the corrupted fill.
        clean_injector = self._injector(FaultSchedule([]), rate=12000.0)
        clean_injector.run_for(10.0)
        clean = clean_injector.collect_metrics()
        assert clean.health["op"].backpressure is True
        corrupted = self._window(seed=2, rate=12000.0)
        entry = corrupted.health["op"]
        assert entry.queue_fill < 0.8
        assert entry.backpressure is False

    def test_deterministic_per_seed(self):
        assert self._window(seed=3) == self._window(seed=3)
        assert self._window(seed=3) != self._window(seed=4)

    def test_trace_events_and_log_note(self):
        from repro.telemetry import Tracer, tracing

        schedule = FaultSchedule([
            HealthCorruption(
                time=0.0, duration=100.0, operator="op", amplitude=0.9
            ),
        ], seed=1)
        tracer = Tracer()
        with tracing(tracer):
            injector = self._injector(schedule)
            injector.run_for(10.0)
            injector.collect_metrics()
        events = tracer.events("fault.HealthCorruption")
        assert events
        data = events[0].data
        assert data["operator"] == "op"
        assert {"queue_fill", "backpressure", "was_backpressure"} \
            <= set(data)
        assert any(
            "corrupted health signals" in note
            for _, note in injector.injection_log
        )
