"""Unit tests for instrumentation metrics (Eq. 1-6 of the paper)."""

import pytest

from repro.dataflow.physical import InstanceId
from repro.errors import MetricsError
from repro.metrics import (
    InstanceCounters,
    MetricsWindow,
    OperatorHealth,
    merge_windows,
)
from tests.conftest import make_window


def counters(pulled, pushed, useful, observed=10.0):
    return InstanceCounters(
        records_pulled=pulled,
        records_pushed=pushed,
        useful_time=useful,
        waiting_time=observed - useful,
        observed_time=observed,
    )


class TestInstanceCounters:
    def test_true_rates_use_useful_time(self):
        c = counters(pulled=100.0, pushed=50.0, useful=2.0)
        assert c.true_processing_rate == pytest.approx(50.0)  # Eq. 1
        assert c.true_output_rate == pytest.approx(25.0)      # Eq. 2

    def test_observed_rates_use_window(self):
        c = counters(pulled=100.0, pushed=50.0, useful=2.0)
        assert c.observed_processing_rate == pytest.approx(10.0)  # Eq. 3
        assert c.observed_output_rate == pytest.approx(5.0)       # Eq. 4

    def test_observed_never_exceeds_true(self):
        # 0 <= Wu <= W implies observed <= true (paper section 3.2).
        c = counters(pulled=100.0, pushed=80.0, useful=3.7)
        assert c.observed_processing_rate <= c.true_processing_rate
        assert c.observed_output_rate <= c.true_output_rate

    def test_true_rate_undefined_without_useful_time(self):
        c = counters(pulled=0.0, pushed=0.0, useful=0.0)
        assert c.true_processing_rate is None
        assert c.true_output_rate is None

    def test_observed_rate_undefined_without_window(self):
        c = InstanceCounters(0.0, 0.0, 0.0, 0.0, 0.0)
        assert c.observed_processing_rate is None

    def test_cpu_utilization(self):
        assert counters(1, 1, useful=2.5).cpu_utilization == pytest.approx(
            0.25
        )
        assert InstanceCounters(0, 0, 0, 0, 0).cpu_utilization == 0.0

    def test_useful_cannot_exceed_window(self):
        with pytest.raises(MetricsError):
            InstanceCounters(
                records_pulled=1.0,
                records_pushed=1.0,
                useful_time=11.0,
                waiting_time=0.0,
                observed_time=10.0,
            )

    def test_negative_counters_rejected(self):
        with pytest.raises(MetricsError):
            InstanceCounters(-1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(MetricsError):
            InstanceCounters(0.0, 0.0, -1.0, 0.0, 1.0)

    def test_merged_accumulates(self):
        a = counters(100.0, 50.0, 2.0)
        b = counters(200.0, 100.0, 4.0)
        merged = a.merged(b)
        assert merged.records_pulled == 300.0
        assert merged.useful_time == 6.0
        assert merged.observed_time == 20.0


class TestOperatorHealth:
    def test_validation(self):
        with pytest.raises(MetricsError):
            OperatorHealth(
                queue_fill=-0.1, backpressure=False, pending_records=0.0
            )
        with pytest.raises(MetricsError):
            OperatorHealth(
                queue_fill=0.5, backpressure=False, pending_records=-1.0
            )
        with pytest.raises(MetricsError):
            OperatorHealth(
                queue_fill=0.5,
                backpressure=False,
                pending_records=0.0,
                backpressure_fraction=1.5,
            )


class TestMetricsWindow:
    def test_aggregated_true_rates_sum_instances(self):
        # Eq. 5/6: aggregated rate is the sum over instances.
        window = make_window({
            ("op", 0): (100.0, 200.0, 1.0),
            ("op", 1): (300.0, 600.0, 2.0),
        })
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(250.0)
        assert window.aggregated_true_output_rate(
            "op"
        ) == pytest.approx(500.0)

    def test_starved_instance_contributes_sibling_mean(self):
        # An instance that never ran has the same capacity as its
        # siblings; aggregation must not underestimate it.
        window = make_window({
            ("op", 0): (100.0, 100.0, 1.0),
            ("op", 1): (0.0, 0.0, 0.0),
        })
        assert window.aggregated_true_processing_rate(
            "op"
        ) == pytest.approx(200.0)

    def test_fully_idle_operator_is_unknown(self):
        window = make_window({
            ("op", 0): (0.0, 0.0, 0.0),
        })
        assert window.aggregated_true_processing_rate("op") is None

    def test_parallelism_of(self):
        window = make_window({
            ("op", 0): (1.0, 1.0, 0.1),
            ("op", 1): (1.0, 1.0, 0.1),
            ("other", 0): (1.0, 1.0, 0.1),
        })
        assert window.parallelism_of("op") == 2
        with pytest.raises(MetricsError):
            window.parallelism_of("ghost")

    def test_observed_rates(self):
        window = make_window({
            ("op", 0): (100.0, 50.0, 1.0),
            ("op", 1): (100.0, 50.0, 1.0),
        })
        assert window.observed_processing_rate("op") == pytest.approx(20.0)
        assert window.observed_output_rate("op") == pytest.approx(10.0)

    def test_selectivity(self):
        window = make_window({
            ("op", 0): (100.0, 2000.0, 1.0),
        })
        assert window.selectivity("op") == pytest.approx(20.0)

    def test_selectivity_undefined_without_input(self):
        window = make_window({("op", 0): (0.0, 0.0, 0.0)})
        assert window.selectivity("op") is None

    def test_cpu_utilization_mean(self):
        window = make_window({
            ("op", 0): (1.0, 1.0, 10.0),
            ("op", 1): (1.0, 1.0, 5.0),
        })
        assert window.cpu_utilization("op") == pytest.approx(0.75)

    def test_utilization_imbalance(self):
        window = make_window({
            ("op", 0): (1.0, 0.0, 10.0),   # saturated
            ("op", 1): (1.0, 0.0, 5.0),    # half idle
        })
        peak, ratio = window.utilization_imbalance("op")
        assert peak == pytest.approx(1.0)
        assert ratio == pytest.approx(1.0 / 0.75)

    def test_operators_listing(self):
        window = make_window({
            ("b", 0): (1.0, 1.0, 0.1),
            ("a", 0): (1.0, 1.0, 0.1),
        })
        assert window.operators() == ("a", "b")

    def test_invalid_bounds(self):
        with pytest.raises(MetricsError):
            MetricsWindow(start=10.0, end=5.0, instances={})
        with pytest.raises(MetricsError):
            MetricsWindow(
                start=0.0, end=1.0, instances={}, outage_fraction=2.0
            )


class TestMergeWindows:
    def test_merge_sums_counters(self):
        w1 = make_window({("op", 0): (100.0, 50.0, 1.0)}, start=0, end=10)
        w2 = make_window(
            {("op", 0): (200.0, 100.0, 2.0)}, start=10, end=20
        )
        merged = merge_windows([w1, w2])
        iid = InstanceId("op", 0)
        assert merged.instances[iid].records_pulled == 300.0
        assert merged.duration == 20.0

    def test_merge_orders_by_start(self):
        w1 = make_window({("op", 0): (1.0, 1.0, 0.1)}, start=10, end=20)
        w2 = make_window({("op", 0): (1.0, 1.0, 0.1)}, start=0, end=10)
        merged = merge_windows([w1, w2])
        assert merged.start == 0.0
        assert merged.end == 20.0

    def test_merge_empty_rejected(self):
        with pytest.raises(MetricsError):
            merge_windows([])
