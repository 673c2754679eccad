"""Unit tests for the MetricsManager aggregation (section 4.1)."""

import pytest

from repro.dataflow.physical import InstanceId
from repro.engine.metrics_manager import MetricsManager
from repro.errors import MetricsError


@pytest.fixture
def manager():
    m = MetricsManager()
    m.register_instances([InstanceId("op", 0), InstanceId("op", 1)])
    return m


class TestRecording:
    def test_accumulates_between_collections(self, manager):
        iid = InstanceId("op", 0)
        manager.record(iid, pulled=10, pushed=5, useful=0.05, waiting=0.05)
        manager.record(iid, pulled=10, pushed=5, useful=0.05, waiting=0.05)
        manager.advance(0.1)
        manager.advance(0.1)
        window = manager.collect()
        counters = window.instances[iid]
        assert counters.records_pulled == 20.0
        assert counters.useful_time == pytest.approx(0.1)
        assert counters.observed_time == pytest.approx(0.2)

    def test_unregistered_instance_rejected(self, manager):
        with pytest.raises(MetricsError):
            manager.record(
                InstanceId("ghost", 0), pulled=1, pushed=1,
                useful=0.0, waiting=0.0,
            )

    def test_negative_counters_rejected(self, manager):
        with pytest.raises(MetricsError):
            manager.record(
                InstanceId("op", 0), pulled=-1, pushed=0,
                useful=0.0, waiting=0.0,
            )


class TestLaneRows:
    def test_record_rows_equals_record_row_per_row(self):
        """One record_rows call over a lane's rows adds what a
        record_row call per row adds, bit for bit."""
        ids = [InstanceId("op", index) for index in range(3)]
        managers = [MetricsManager(), MetricsManager()]
        for manager in managers:
            manager.register_instances(ids)
        values = (0.1, 0.2, 0.30000000000000004, 1 / 3)
        for _ in range(7):
            managers[0].record_rows(0, 2, *values)
            for row in range(2):
                managers[1].record_row(row, *values)
        for manager in managers:
            manager.advance(0.5)
        windows = [manager.collect() for manager in managers]
        assert windows[0] == windows[1]
        assert windows[0].instances[ids[2]].records_pulled == 0.0


class TestCollection:
    def test_collect_resets_counters(self, manager):
        iid = InstanceId("op", 0)
        manager.record(iid, pulled=10, pushed=10, useful=0.1, waiting=0.0)
        manager.advance(0.1)
        first = manager.collect()
        manager.advance(0.1)
        second = manager.collect()
        assert first.instances[iid].records_pulled == 10.0
        assert second.instances[iid].records_pulled == 0.0

    def test_window_boundaries_advance(self, manager):
        manager.advance(1.0)
        first = manager.collect()
        manager.advance(2.0)
        second = manager.collect()
        assert first.start == 0.0 and first.end == 1.0
        assert second.start == 1.0 and second.end == 3.0

    def test_outage_fraction(self, manager):
        manager.advance(1.0, outage=True)
        manager.advance(1.0, outage=False)
        window = manager.collect()
        assert window.outage_fraction == pytest.approx(0.5)

    def test_outage_fraction_clamped(self, manager):
        manager.advance(1.0, outage=True)
        window = manager.collect()
        assert window.outage_fraction == 1.0

    def test_useful_clamped_to_observed(self, manager):
        # Floating-point accumulation may nudge useful just past the
        # window; the collector clamps instead of raising.
        iid = InstanceId("op", 0)
        manager.record(iid, pulled=1, pushed=1, useful=0.1000001,
                       waiting=0.0)
        manager.advance(0.1)
        window = manager.collect()
        assert window.instances[iid].useful_time <= 0.1 + 1e-12

    def test_register_replaces_instances(self, manager):
        manager.register_instances([InstanceId("new", 0)])
        manager.advance(1.0)
        window = manager.collect()
        assert list(window.instances) == [InstanceId("new", 0)]

    def test_source_rates_and_health_passthrough(self, manager):
        manager.advance(1.0)
        window = manager.collect(source_observed_rates={"src": 123.0})
        assert window.source_observed_rates["src"] == 123.0

    def test_negative_advance_rejected(self, manager):
        with pytest.raises(MetricsError):
            manager.advance(-0.1)


class TestSuppression:
    def test_suppressing_unregistered_instance_rejected(self, manager):
        with pytest.raises(MetricsError):
            manager.set_suppressed([InstanceId("ghost", 0)])

    def test_completeness_tracks_suppression(self, manager):
        assert manager.completeness() == {"op": 1.0}
        manager.set_suppressed([InstanceId("op", 0)])
        assert manager.completeness() == {"op": 0.5}
        manager.set_suppressed([])
        assert manager.completeness() == {"op": 1.0}

    def test_suppressed_instance_omitted_from_window(self, manager):
        manager.set_suppressed([InstanceId("op", 0)])
        manager.advance(1.0)
        window = manager.collect()
        assert InstanceId("op", 0) not in window.instances
        assert InstanceId("op", 1) in window.instances
        assert window.completeness_of("op") == 0.5
        assert window.registered_parallelism_of("op") == 2

    def test_counters_held_through_suppression(self, manager):
        iid = InstanceId("op", 0)
        manager.set_suppressed([iid])
        manager.record(iid, pulled=10, pushed=10, useful=0.5, waiting=0.5)
        manager.advance(1.0)
        manager.collect()  # suppressed: counters survive the reset
        manager.set_suppressed([])
        manager.record(iid, pulled=10, pushed=10, useful=0.5, waiting=0.5)
        manager.advance(1.0)
        catchup = manager.collect().instances[iid]
        # The catch-up report spans both windows.
        assert catchup.records_pulled == 20.0
        assert catchup.observed_time == pytest.approx(2.0)

    def test_register_clears_suppression(self, manager):
        manager.set_suppressed([InstanceId("op", 0)])
        manager.register_instances(
            [InstanceId("op", 0), InstanceId("op", 1)]
        )
        assert manager.suppressed == set()


class TestTruncation:
    def test_midwindow_reregistration_truncates(self, manager):
        manager.advance(1.0)  # in-flight observed time
        manager.register_instances([InstanceId("op", 0)])
        manager.advance(1.0)
        window = manager.collect()
        assert window.truncated
        # The flag is per-window: the next one is clean again.
        manager.advance(1.0)
        assert not manager.collect().truncated

    def test_boundary_reregistration_is_clean(self, manager):
        manager.advance(1.0)
        manager.collect()
        manager.register_instances([InstanceId("op", 0)])
        manager.advance(1.0)
        assert not manager.collect().truncated


class TestRedeployEdgeCases:
    """Redeploys racing suppression and recovery (ISSUE 4 satellites)."""

    def test_midwindow_redeploy_with_suppressed_reporters(self, manager):
        dark = InstanceId("op", 0)
        manager.set_suppressed([dark])
        manager.record(dark, pulled=10, pushed=10, useful=0.5,
                       waiting=0.5)
        manager.advance(1.0)
        # Redeploy mid-window while one reporter is dark: the window
        # must come back truncated, and the dark instance's held
        # counters must not leak into the new deployment.
        replacement = [
            InstanceId("op", 0),
            InstanceId("op", 1),
            InstanceId("op", 2),
        ]
        manager.register_instances(replacement)
        assert manager.suppressed == set()
        assert manager.completeness() == {"op": 1.0}
        manager.advance(1.0)
        window = manager.collect()
        assert window.truncated
        assert set(window.instances) == set(replacement)
        assert window.instances[dark].records_pulled == 0.0
        # Re-applied suppression against the new set makes the next
        # (clean) window incomplete instead.
        manager.set_suppressed([InstanceId("op", 2)])
        manager.advance(1.0)
        window = manager.collect()
        assert not window.truncated
        assert window.completeness_of("op") == pytest.approx(2 / 3)

    def test_recovered_reporter_restores_completeness(self, manager):
        dark = InstanceId("op", 0)
        live = InstanceId("op", 1)
        manager.set_suppressed([dark])
        for _ in range(2):
            manager.record(dark, pulled=5, pushed=5, useful=0.2,
                           waiting=0.3)
            manager.record(live, pulled=8, pushed=8, useful=0.4,
                           waiting=0.1)
            manager.advance(1.0)
            window = manager.collect()
            assert window.completeness_of("op") == 0.5
            assert dark not in window.instances
        # Recovery: suppression lifts, the held counters flush into
        # the next window, and completeness returns to 1.0.
        manager.set_suppressed([])
        assert manager.completeness() == {"op": 1.0}
        manager.record(dark, pulled=5, pushed=5, useful=0.2,
                       waiting=0.3)
        manager.advance(1.0)
        window = manager.collect()
        assert window.completeness_of("op") == 1.0
        catchup = window.instances[dark]
        assert catchup.records_pulled == 15.0
        assert catchup.useful_time == pytest.approx(0.6)
        assert catchup.observed_time == pytest.approx(3.0)
        # The flush is one-shot: the following window is ordinary.
        manager.advance(1.0)
        assert manager.collect().instances[dark].records_pulled == 0.0
