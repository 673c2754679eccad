"""FaultSchedule ordering, queries, and the --faults grammar."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    FaultSchedule,
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
    parse_faults,
)


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            InstanceCrash(time=50.0, operator="b"),
            MetricDropout(time=10.0, duration=5.0, operator="a"),
            RescaleFailure(time=30.0),
        ])
        assert [e.time for e in schedule.events] == [10.0, 30.0, 50.0]

    def test_rejects_non_events(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(["crash@10:a"])  # strings must be parsed

    def test_active_filters_by_kind(self):
        dropout = MetricDropout(time=10.0, duration=10.0, operator="a")
        lag = MetricLag(time=15.0, duration=10.0)
        schedule = FaultSchedule([dropout, lag])
        assert schedule.active(5.0) == []
        assert schedule.active(12.0) == [dropout]
        assert schedule.active(17.0) == [dropout, lag]
        assert schedule.active(17.0, MetricLag) == [lag]
        assert schedule.active(21.0) == [lag]

    def test_equality_includes_seed(self):
        events = [InstanceCrash(time=1.0, operator="a")]
        assert FaultSchedule(events, seed=1) == FaultSchedule(
            events, seed=1
        )
        assert FaultSchedule(events, seed=1) != FaultSchedule(
            events, seed=2
        )

    def test_rng_for_is_deterministic(self):
        event = MetricCorruption(
            time=0.0, duration=5.0, operator="a", amplitude=0.5
        )
        schedule = FaultSchedule([event], seed=42)
        first = schedule.rng_for(event, salt=10.0).random()
        again = schedule.rng_for(event, salt=10.0).random()
        other_salt = schedule.rng_for(event, salt=20.0).random()
        assert first == again
        assert first != other_salt

    def test_rng_depends_on_seed(self):
        event = MetricCorruption(
            time=0.0, duration=5.0, operator="a", amplitude=0.5
        )
        one = FaultSchedule([event], seed=1).rng_for(event).random()
        two = FaultSchedule([event], seed=2).rng_for(event).random()
        assert one != two


class TestParseFaults:
    def test_full_grammar(self):
        schedule = parse_faults(
            "crash@600:flatmap#2,"
            "dropout@300+180:source*0.5,"
            "lag@100+60,"
            "corrupt@50+25:count*0.3,"
            "rescale-fail@0:timeout*2",
            seed=9,
        )
        assert schedule.seed == 9
        by_type = {type(e).__name__: e for e in schedule.events}
        crash = by_type["InstanceCrash"]
        assert (crash.time, crash.operator, crash.index) == (
            600.0, "flatmap", 2,
        )
        dropout = by_type["MetricDropout"]
        assert (dropout.operator, dropout.duration, dropout.fraction) == (
            "source", 180.0, 0.5,
        )
        lag = by_type["MetricLag"]
        assert (lag.time, lag.duration) == (100.0, 60.0)
        corrupt = by_type["MetricCorruption"]
        assert (corrupt.operator, corrupt.amplitude) == ("count", 0.3)
        failure = by_type["RescaleFailure"]
        assert (failure.mode, failure.count) == ("timeout", 2)

    def test_defaults(self):
        schedule = parse_faults(
            "crash@10:op,dropout@0+5:src,rescale-fail@1"
        )
        by_type = {type(e).__name__: e for e in schedule.events}
        assert by_type["InstanceCrash"].index == 0
        assert by_type["MetricDropout"].fraction == 1.0
        assert by_type["RescaleFailure"].mode == "abort"
        assert by_type["RescaleFailure"].count == 1

    @pytest.mark.parametrize("spec", [
        "",
        "   ",
        "crash",
        "crash@",
        "crash@10",                # missing operator
        "dropout@10:src",          # missing duration
        "dropout@10+abc:src",      # duration not a number
        "lag@5",                   # missing duration
        "corrupt@5+5",             # missing operator
        "rescale-fail@x",          # time not a number
        "rescale-fail@0:explode",  # unknown mode
        "meteor@0",                # unknown kind
        "crash@-5:op",             # negative time
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultInjectionError):
            parse_faults(spec)


class TestParseCorruptHealth:
    def test_parse_with_amplitude(self):
        schedule = parse_faults("corrupt-health@10+60:worker*0.4")
        [event] = schedule.events
        assert isinstance(event, HealthCorruption)
        assert (event.time, event.duration) == (10.0, 60.0)
        assert event.operator == "worker"
        assert event.amplitude == 0.4

    def test_default_amplitude(self):
        [event] = parse_faults("corrupt-health@0+5:worker").events
        assert event.amplitude == 0.5

    def test_composes_with_other_kinds(self):
        schedule = parse_faults(
            "crash@600:flatmap,corrupt-health@50+25:count*0.3"
        )
        kinds = {type(e).__name__ for e in schedule.events}
        assert kinds == {"InstanceCrash", "HealthCorruption"}

    @pytest.mark.parametrize("spec", [
        "corrupt-health@5",           # missing duration
        "corrupt-health@5+5",         # missing operator
        "corrupt-health@5+5:op*1.5",  # amplitude out of range
        "corrupt-health@5+5:op*abc",  # amplitude not a number
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultInjectionError):
            parse_faults(spec)
