"""Unit tests for latency distributions and trackers."""

import pytest

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    flatmap,
    map_operator,
    session_window,
    sink,
    source,
    tumbling_window,
)
from repro.engine.latency import (
    EpochLatencyTracker,
    LatencyDistribution,
    RecordLatencyTracker,
    _residence_lag,
)
from repro.errors import EngineError


@pytest.fixture
def chain():
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(100.0)),
            map_operator("m", costs=CostModel(processing_cost=1e-3)),
            sink("snk"),
        ],
        [Edge("src", "m"), Edge("m", "snk")],
    )


class TestLatencyDistribution:
    def test_quantiles(self):
        dist = LatencyDistribution()
        for value in (1.0, 2.0, 3.0, 4.0):
            dist.add(value)
        assert dist.quantile(0.5) == 2.0
        assert dist.quantile(1.0) == 4.0
        assert dist.median() == 2.0

    def test_weighted_quantiles(self):
        dist = LatencyDistribution()
        dist.add(1.0, weight=99.0)
        dist.add(100.0, weight=1.0)
        assert dist.median() == 1.0
        assert dist.quantile(0.999) == 100.0

    def test_mean(self):
        dist = LatencyDistribution()
        dist.add(1.0, weight=1.0)
        dist.add(3.0, weight=3.0)
        assert dist.mean() == pytest.approx(2.5)

    def test_fraction_above(self):
        dist = LatencyDistribution()
        dist.add(0.5, weight=2.0)
        dist.add(1.5, weight=2.0)
        assert dist.fraction_above(1.0) == pytest.approx(0.5)
        assert dist.fraction_above(10.0) == 0.0

    def test_zero_weight_ignored(self):
        dist = LatencyDistribution()
        dist.add(1.0, weight=0.0)
        assert len(dist) == 0

    def test_empty_distribution_raises(self):
        with pytest.raises(EngineError):
            LatencyDistribution().median()
        with pytest.raises(EngineError):
            LatencyDistribution().mean()

    def test_negative_latency_rejected(self):
        with pytest.raises(EngineError):
            LatencyDistribution().add(-1.0)

    def test_invalid_quantile_rejected(self):
        dist = LatencyDistribution()
        dist.add(1.0)
        with pytest.raises(EngineError):
            dist.quantile(1.5)


class TestRecordLatencyTracker:
    def test_sums_delays_along_path(self, chain):
        tracker = RecordLatencyTracker(chain, pipeline_hop_delay=0.05)
        tracker.observe_tick(
            operator_delays={"src": 0.0, "m": 0.2, "snk": 0.1},
            sink_consumed={"snk": 10.0},
        )
        # src(0) -> m(+0.2 +hop) -> snk(+0.1 +hop) = 0.4.
        assert tracker.distribution.median() == pytest.approx(0.4)

    def test_takes_worst_upstream_path(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(1.0)),
                map_operator("fast", costs=CostModel(processing_cost=1e-6)),
                map_operator("slow", costs=CostModel(processing_cost=1e-6)),
                flatmap("merge", costs=CostModel(processing_cost=1e-6),
                        selectivity=1.0),
                sink("snk"),
            ],
            [
                Edge("src", "fast"),
                Edge("src", "slow"),
                Edge("fast", "merge"),
                Edge("slow", "merge"),
                Edge("merge", "snk"),
            ],
        )
        tracker = RecordLatencyTracker(graph, pipeline_hop_delay=0.0)
        tracker.observe_tick(
            operator_delays={"fast": 0.1, "slow": 5.0},
            sink_consumed={"snk": 1.0},
        )
        assert tracker.distribution.median() == pytest.approx(5.0)

    def test_no_samples_without_sink_consumption(self, chain):
        tracker = RecordLatencyTracker(chain, pipeline_hop_delay=0.0)
        tracker.observe_tick(
            operator_delays={"m": 1.0}, sink_consumed={"snk": 0.0}
        )
        assert len(tracker.distribution) == 0


class TestEpochLatencyTracker:
    def test_epoch_completes_when_sink_catches_up(self, chain):
        tracker = EpochLatencyTracker(chain, epoch_seconds=1.0)
        # 100 rec/s source; selectivity 1 through the map.
        now = 0.0
        for _ in range(10):
            now += 0.2
            tracker.observe_tick(
                now=now,
                source_emitted={"src": 20.0},
                sink_consumed={"snk": 20.0},
            )
        # Sink tracks the source exactly: epochs complete immediately.
        dist = tracker.distribution
        assert len(dist) >= 1
        assert dist.quantile(1.0) <= 0.2 + 1e-9

    def test_underprovisioned_epochs_grow(self, chain):
        tracker = EpochLatencyTracker(chain, epoch_seconds=1.0)
        now = 0.0
        # Sink only consumes half of what the source emits.
        for _ in range(100):
            now += 0.2
            tracker.observe_tick(
                now=now,
                source_emitted={"src": 20.0},
                sink_consumed={"snk": 10.0},
            )
        assert tracker.pending_epochs > 5

    def test_epoch_latency_measured_from_epoch_end(self, chain):
        tracker = EpochLatencyTracker(chain, epoch_seconds=1.0)
        # Emit 100 records in the first second, nothing afterwards;
        # the sink consumes them all between t=2 and t=3.
        tracker.observe_tick(
            now=1.0, source_emitted={"src": 100.0},
            sink_consumed={"snk": 0.0},
        )
        tracker.observe_tick(
            now=2.0, source_emitted={"src": 0.0},
            sink_consumed={"snk": 0.0},
        )
        tracker.observe_tick(
            now=3.0, source_emitted={"src": 0.0},
            sink_consumed={"snk": 100.0},
        )
        # Epoch 1 ended at t=1 and completed at t=3: latency 2 s.
        assert tracker.distribution.quantile(1.0) == pytest.approx(2.0)

    def test_invalid_epoch_seconds(self, chain):
        with pytest.raises(EngineError):
            EpochLatencyTracker(chain, epoch_seconds=0.0)


class TestResidenceLag:
    def test_no_windows_no_lag(self, chain):
        assert _residence_lag(chain, "snk") == 0.0

    def test_staggered_window_charges_full_interval(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(1.0)),
                session_window("w", length=10.0, gap=2.0,
                               fire_selectivity=0.1),
                sink("snk"),
            ],
            [Edge("src", "w"), Edge("w", "snk")],
        )
        assert _residence_lag(graph, "snk") == pytest.approx(12.0)

    def test_synchronized_window_charges_quarter_interval(self):
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(1.0)),
                tumbling_window("w", length=8.0, fire_selectivity=0.1),
                sink("snk"),
            ],
            [Edge("src", "w"), Edge("w", "snk")],
        )
        assert _residence_lag(graph, "snk") == pytest.approx(2.0)
