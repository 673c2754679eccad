"""Unit tests for operator specs, cost models, and rate schedules."""

import math

import pytest

from repro.dataflow.operators import (
    CostModel,
    OperatorKind,
    OperatorSpec,
    RateSchedule,
    Selectivity,
    WindowKind,
    WindowSpec,
    filter_operator,
    flatmap,
    join,
    map_operator,
    session_window,
    sink,
    sliding_window,
    source,
    tumbling_window,
)
from repro.errors import GraphError


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Selectivity(ratio=NAN), ValueError),
        (lambda: Selectivity(ratio=INF), ValueError),
        (lambda: RateSchedule.constant(NAN), ValueError),
        (lambda: RateSchedule.constant(INF), ValueError),
        (lambda: RateSchedule.phases([(0.0, 1.0), (NAN, 2.0)]), ValueError),
        (lambda: RateSchedule.phases([(0.0, 1.0), (INF, 2.0)]), ValueError),
        (lambda: CostModel(processing_cost=NAN), ValueError),
        (lambda: CostModel(processing_cost=INF), ValueError),
        (
            lambda: CostModel(processing_cost=1e-6, serialization_cost=NAN),
            ValueError,
        ),
        (
            lambda: CostModel(processing_cost=1e-6, coordination_alpha=INF),
            ValueError,
        ),
        (
            lambda: WindowSpec(
                kind=WindowKind.TUMBLING, length=1.0, fire_selectivity=NAN
            ),
            ValueError,
        ),
        (
            lambda: WindowSpec(
                kind=WindowKind.SLIDING, length=INF, slide=1.0
            ),
            ValueError,
        ),
        (
            lambda: map_operator(
                "m", costs=CostModel(processing_cost=1e-6), rate_limit=NAN
            ),
            GraphError,
        ),
        (
            lambda: map_operator(
                "m", costs=CostModel(processing_cost=1e-6), rate_limit=INF
            ),
            GraphError,
        ),
        (
            lambda: map_operator(
                "m", costs=CostModel(processing_cost=1e-6),
                record_bytes=NAN,
            ),
            GraphError,
        ),
        (
            lambda: map_operator(
                "m", costs=CostModel(processing_cost=1e-6),
                state_bytes_per_record=INF,
            ),
            GraphError,
        ),
    ],
    ids=[
        "selectivity-nan",
        "selectivity-inf",
        "rate-nan",
        "rate-inf",
        "start-nan",
        "start-inf",
        "cost-nan",
        "cost-inf",
        "serialization-nan",
        "alpha-inf",
        "fire-selectivity-nan",
        "window-length-inf",
        "rate-limit-nan",
        "rate-limit-inf",
        "record-bytes-nan",
        "state-bytes-inf",
    ],
)
def test_non_finite_values_rejected_at_construction(build, error):
    with pytest.raises(error, match="finite"):
        build()


class TestCostModel:
    def test_base_cost_sums_three_activities(self):
        costs = CostModel(
            processing_cost=3e-6,
            deserialization_cost=1e-6,
            serialization_cost=2e-6,
        )
        assert costs.base_cost == pytest.approx(6e-6)

    def test_effective_cost_at_parallelism_one_is_base(self):
        costs = CostModel(processing_cost=1e-6, coordination_alpha=0.1)
        assert costs.effective_cost(1) == pytest.approx(costs.base_cost)

    def test_effective_cost_grows_with_parallelism(self):
        costs = CostModel(processing_cost=1e-6, coordination_alpha=0.02)
        assert costs.effective_cost(11) == pytest.approx(1.2e-6)

    def test_zero_alpha_means_perfect_scaling(self):
        costs = CostModel(processing_cost=1e-6)
        assert costs.effective_cost(100) == costs.effective_cost(1)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(processing_cost=-1e-6)
        with pytest.raises(ValueError):
            CostModel(processing_cost=1e-6, deserialization_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(processing_cost=1e-6, serialization_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(processing_cost=1e-6, coordination_alpha=-0.1)

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            CostModel(processing_cost=1e-6).effective_cost(0)

    def test_scaled_multiplies_each_component(self):
        costs = CostModel(
            processing_cost=2e-6,
            deserialization_cost=1e-6,
            serialization_cost=1e-6,
            coordination_alpha=0.05,
        )
        doubled = costs.scaled(2.0)
        assert doubled.base_cost == pytest.approx(8e-6)
        assert doubled.coordination_alpha == 0.05

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            CostModel(processing_cost=1e-6).scaled(-1.0)


class TestSelectivity:
    def test_outputs_for(self):
        assert Selectivity(ratio=20.0).outputs_for(5.0) == 100.0

    def test_zero_ratio_allowed(self):
        assert Selectivity(ratio=0.0).outputs_for(10.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Selectivity(ratio=-0.1)


class TestRateSchedule:
    def test_constant(self):
        schedule = RateSchedule.constant(500.0)
        assert schedule.rate_at(0.0) == 500.0
        assert schedule.rate_at(1e6) == 500.0
        assert schedule.max_rate == 500.0

    def test_phases(self):
        schedule = RateSchedule.phases([(0.0, 100.0), (60.0, 50.0)])
        assert schedule.rate_at(0.0) == 100.0
        assert schedule.rate_at(59.9) == 100.0
        assert schedule.rate_at(60.0) == 50.0
        assert schedule.rate_at(120.0) == 50.0
        assert schedule.max_rate == 100.0

    def test_three_phases(self):
        schedule = RateSchedule.phases(
            [(0.0, 1.0), (10.0, 3.0), (20.0, 2.0)]
        )
        assert schedule.rate_at(15.0) == 3.0
        assert schedule.rate_at(25.0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(steps=())

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            RateSchedule(steps=((1.0, 100.0),))

    def test_steps_must_increase(self):
        with pytest.raises(ValueError):
            RateSchedule(steps=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            RateSchedule(steps=((0.0, 1.0), (5.0, 2.0), (3.0, 1.0)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule(steps=((0.0, -5.0),))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule.constant(1.0).rate_at(-1.0)


class TestWindowSpec:
    def test_tumbling_fire_interval_is_length(self):
        spec = WindowSpec(kind=WindowKind.TUMBLING, length=10.0)
        assert spec.fire_interval == 10.0
        assert spec.replication == 1.0

    def test_sliding_fire_interval_is_slide(self):
        spec = WindowSpec(
            kind=WindowKind.SLIDING, length=10.0, slide=2.0
        )
        assert spec.fire_interval == 2.0
        assert spec.replication == 5.0

    def test_session_fire_interval_is_length_plus_gap(self):
        spec = WindowSpec(
            kind=WindowKind.SESSION, length=10.0, gap=2.0
        )
        assert spec.fire_interval == 12.0
        assert spec.replication == 1.0

    def test_sliding_requires_slide(self):
        with pytest.raises(ValueError):
            WindowSpec(kind=WindowKind.SLIDING, length=10.0)

    def test_slide_cannot_exceed_length(self):
        with pytest.raises(ValueError):
            WindowSpec(kind=WindowKind.SLIDING, length=5.0, slide=6.0)

    def test_session_requires_gap(self):
        with pytest.raises(ValueError):
            WindowSpec(kind=WindowKind.SESSION, length=10.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(
                kind=WindowKind.TUMBLING, length=1.0, assign_cost=-1.0
            )
        with pytest.raises(ValueError):
            WindowSpec(
                kind=WindowKind.TUMBLING, length=1.0, fire_cost=-1.0
            )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(kind=WindowKind.TUMBLING, length=0.0)


class TestOperatorSpec:
    def test_source_requires_rate(self):
        with pytest.raises(GraphError):
            OperatorSpec(name="s", kind=OperatorKind.SOURCE)

    def test_non_source_rejects_rate(self):
        with pytest.raises(GraphError):
            OperatorSpec(
                name="m",
                kind=OperatorKind.MAP,
                rate=RateSchedule.constant(1.0),
            )

    def test_window_kind_requires_window_spec(self):
        with pytest.raises(GraphError):
            OperatorSpec(name="w", kind=OperatorKind.WINDOW)

    def test_non_window_rejects_window_spec(self):
        with pytest.raises(GraphError):
            OperatorSpec(
                name="m",
                kind=OperatorKind.MAP,
                window=WindowSpec(kind=WindowKind.TUMBLING, length=1.0),
            )

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            OperatorSpec(name="", kind=OperatorKind.SINK)

    def test_invalid_rate_limit_rejected(self):
        with pytest.raises(GraphError):
            map_operator(
                "m", costs=CostModel(processing_cost=1e-6), rate_limit=0.0
            )

    def test_per_record_cost_plain(self):
        spec = map_operator("m", costs=CostModel(processing_cost=2e-6))
        assert spec.per_record_cost() == pytest.approx(2e-6)

    def test_per_record_cost_rate_limited(self):
        # A 100 records/s limit dominates a cheap CPU cost.
        spec = map_operator(
            "m", costs=CostModel(processing_cost=1e-6), rate_limit=100.0
        )
        assert spec.per_record_cost() == pytest.approx(0.01)

    def test_per_record_cost_window_amortizes_fires(self):
        spec = sliding_window(
            "w",
            length=10.0,
            slide=2.0,
            fire_selectivity=0.01,
            assign_cost=1e-6,
            fire_cost=2e-6,
        )
        # replication 5: each record is assigned and eventually fired
        # five times.
        assert spec.per_record_cost() == pytest.approx(5 * 3e-6)

    def test_long_run_selectivity_window(self):
        spec = sliding_window(
            "w", length=10.0, slide=2.0, fire_selectivity=0.01
        )
        assert spec.long_run_selectivity == pytest.approx(0.05)

    def test_long_run_selectivity_plain(self):
        spec = flatmap(
            "f", costs=CostModel(processing_cost=1e-6), selectivity=20.0
        )
        assert spec.long_run_selectivity == 20.0


class TestFactories:
    def test_source_factory(self):
        spec = source("s", rate=RateSchedule.constant(10.0))
        assert spec.is_source and not spec.is_sink

    def test_sink_factory_default_is_cheap(self):
        spec = sink("k")
        assert spec.is_sink
        assert spec.costs.base_cost <= 1e-8
        assert spec.selectivity.ratio == 0.0

    def test_filter_requires_valid_pass_ratio(self):
        with pytest.raises(GraphError):
            filter_operator(
                "f", costs=CostModel(processing_cost=1e-6), pass_ratio=1.5
            )

    def test_join_factory(self):
        spec = join(
            "j", costs=CostModel(processing_cost=1e-6), selectivity=0.1
        )
        assert spec.kind is OperatorKind.JOIN
        assert spec.state_bytes_per_record > 0

    def test_tumbling_window_factory(self):
        spec = tumbling_window("w", length=5.0, fire_selectivity=0.1)
        assert spec.window is not None
        assert spec.window.kind is WindowKind.TUMBLING
        assert not spec.window.staggered

    def test_session_window_is_staggered(self):
        spec = session_window(
            "w", length=10.0, gap=2.0, fire_selectivity=0.1
        )
        assert spec.window is not None
        assert spec.window.staggered
