"""Validation of the declarative fault event types."""

import pytest

from repro.errors import FaultInjectionError, ReproError
from repro.faults import (
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
)


class TestCommonValidation:
    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_bad_time_rejected(self, time):
        with pytest.raises(FaultInjectionError):
            InstanceCrash(time=time, operator="op")

    def test_fault_error_is_repro_error(self):
        with pytest.raises(ReproError):
            raise FaultInjectionError("x")

    def test_events_are_immutable(self):
        event = InstanceCrash(time=1.0, operator="op")
        with pytest.raises(Exception):
            event.time = 2.0


class TestInstanceCrash:
    def test_valid(self):
        event = InstanceCrash(time=10.0, operator="flatmap", index=3)
        assert event.operator == "flatmap"
        assert event.index == 3

    def test_needs_operator(self):
        with pytest.raises(FaultInjectionError):
            InstanceCrash(time=10.0)

    def test_negative_index_rejected(self):
        with pytest.raises(FaultInjectionError):
            InstanceCrash(time=10.0, operator="op", index=-1)

    @pytest.mark.parametrize("index", [0.5, 1.0, float("nan"), True, "1"])
    def test_non_int_index_rejected(self, index):
        """NaN fails no ``< 0`` test, and a float or a bool names no
        instance: each is rejected when the event is built, not when
        the crash fires."""
        with pytest.raises(FaultInjectionError, match="must be an int"):
            InstanceCrash(time=10.0, operator="op", index=index)


class TestMetricDropout:
    def test_valid_interval(self):
        event = MetricDropout(
            time=5.0, duration=10.0, operator="src", fraction=0.5
        )
        assert event.end == 15.0
        assert event.active_at(5.0)
        assert event.active_at(14.9)
        assert not event.active_at(15.0)
        assert not event.active_at(4.9)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("inf")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(FaultInjectionError):
            MetricDropout(time=0.0, duration=duration, operator="src")

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(FaultInjectionError):
            MetricDropout(
                time=0.0, duration=1.0, operator="src",
                fraction=fraction,
            )

    def test_needs_operator(self):
        with pytest.raises(FaultInjectionError):
            MetricDropout(time=0.0, duration=1.0)


class TestMetricLag:
    def test_valid(self):
        event = MetricLag(time=0.0, duration=30.0)
        assert event.end == 30.0

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultInjectionError):
            MetricLag(time=0.0, duration=0.0)


class TestMetricCorruption:
    def test_valid(self):
        event = MetricCorruption(
            time=0.0, duration=5.0, operator="count", amplitude=0.3
        )
        assert event.amplitude == 0.3

    @pytest.mark.parametrize("amplitude", [0.0, 1.0, -0.1, 2.0])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(FaultInjectionError):
            MetricCorruption(
                time=0.0, duration=5.0, operator="count",
                amplitude=amplitude,
            )

    def test_needs_operator(self):
        with pytest.raises(FaultInjectionError):
            MetricCorruption(time=0.0, duration=5.0)


class TestRescaleFailure:
    def test_valid_modes(self):
        assert RescaleFailure(time=0.0).mode == "abort"
        assert RescaleFailure(time=0.0, mode="timeout").count == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultInjectionError):
            RescaleFailure(time=0.0, mode="explode")

    def test_bad_count_rejected(self):
        with pytest.raises(FaultInjectionError):
            RescaleFailure(time=0.0, count=0)


class TestHealthCorruption:
    def test_valid(self):
        event = HealthCorruption(
            time=0.0, duration=5.0, operator="count", amplitude=0.4
        )
        assert event.amplitude == 0.4

    def test_default_amplitude(self):
        event = HealthCorruption(
            time=0.0, duration=5.0, operator="count"
        )
        assert event.amplitude == 0.5

    @pytest.mark.parametrize("amplitude", [0.0, 1.0, -0.1, 2.0])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(FaultInjectionError):
            HealthCorruption(
                time=0.0, duration=5.0, operator="count",
                amplitude=amplitude,
            )

    def test_needs_operator(self):
        with pytest.raises(FaultInjectionError):
            HealthCorruption(time=0.0, duration=5.0)
