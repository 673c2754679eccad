"""Unit tests for state accumulation and savepoint cost models."""

import math

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.state import SavepointModel, StateModel
from repro.errors import EngineError


@pytest.fixture
def stateful_graph():
    return LogicalGraph(
        [
            source("src", rate=RateSchedule.constant(10.0)),
            map_operator(
                "counter",
                costs=CostModel(processing_cost=1e-6),
                state_bytes_per_record=8.0,
            ),
            sink("snk"),
        ],
        [Edge("src", "counter"), Edge("counter", "snk")],
    )


class TestStateModel:
    def test_state_grows_with_records(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        state.record_processed("counter", 1000.0)
        assert state.state_bytes("counter") == pytest.approx(8000.0)
        assert state.total_bytes == pytest.approx(8000.0)

    def test_stateless_operator_stays_at_zero(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        state.record_processed("snk", 1000.0)
        assert state.state_bytes("snk") == 0.0

    def test_state_capped(self, stateful_graph):
        state = StateModel(graph=stateful_graph, max_state_bytes=100.0)
        state.record_processed("counter", 1e9)
        assert state.state_bytes("counter") == 100.0

    def test_negative_records_rejected(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        for records in (-1.0, math.nan):
            with pytest.raises(EngineError):
                state.record_processed("counter", records)
        assert state.state_bytes("counter") == 0.0

    def test_invalid_cap_rejected(self, stateful_graph):
        for cap in (0.0, -1.0, math.nan):
            with pytest.raises(EngineError):
                StateModel(graph=stateful_graph, max_state_bytes=cap)

    @pytest.mark.parametrize("cap", [4e9, 500.0])
    def test_block_with_counts_equals_expanded_calls(self, cap):
        """One record_processed_block call over lanes adds what a
        record_processed call per instance adds, bit for bit, also when
        the cap is reached partway through a lane."""
        graph = LogicalGraph(
            [
                source("src", rate=RateSchedule.constant(10.0)),
                map_operator(
                    "counter",
                    costs=CostModel(processing_cost=1e-6),
                    state_bytes_per_record=3.7,
                ),
                sink("snk"),
            ],
            [Edge("src", "counter"), Edge("counter", "snk")],
        )
        records = [0.1, 7.3, 0.0, 1 / 3]
        counts = [3, 8, 2, 5]
        block = StateModel(graph=graph, max_state_bytes=cap)
        expanded = StateModel(graph=graph, max_state_bytes=cap)
        for _ in range(4):
            block.record_processed_block("counter", records, counts)
            for value, count in zip(records, counts):
                for _ in range(count):
                    expanded.record_processed("counter", value)
        assert block.state_bytes("counter").hex() == (
            expanded.state_bytes("counter").hex()
        )

    if HAVE_HYPOTHESIS:

        @given(
            lanes=st.lists(
                st.tuples(
                    st.floats(
                        min_value=0.0,
                        max_value=1e4,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    st.integers(min_value=1, max_value=64),
                ),
                min_size=1,
                max_size=4,
            ),
            start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            cap=st.floats(min_value=1.0, max_value=1e7, allow_nan=False),
            per_record=st.sampled_from([0.1, 3.7, 8.0, 1 / 3]),
        )
        @settings(max_examples=300, deadline=None)
        def test_property_block_equals_expanded_calls(
            self, lanes, start, cap, per_record
        ):
            """Random lanes, a starting total (above the cap too, as a
            restore may leave it) and a cap reached before, inside or
            after the lanes: the block (which caps once per lane, after
            its adds) equals a capped record_processed call per
            instance, as float hex."""
            graph = LogicalGraph(
                [
                    source("src", rate=RateSchedule.constant(10.0)),
                    map_operator(
                        "counter",
                        costs=CostModel(processing_cost=1e-6),
                        state_bytes_per_record=per_record,
                    ),
                    sink("snk"),
                ],
                [Edge("src", "counter"), Edge("counter", "snk")],
            )
            records = [value for value, _ in lanes]
            counts = [count for _, count in lanes]
            block = StateModel(graph=graph, max_state_bytes=cap)
            expanded = StateModel(graph=graph, max_state_bytes=cap)
            for model in (block, expanded):
                model.restore({"counter": start})
            block.record_processed_block("counter", records, counts)
            for value, count in lanes:
                for _ in range(count):
                    expanded.record_processed("counter", value)
            assert block.state_bytes("counter").hex() == (
                expanded.state_bytes("counter").hex()
            )

    def test_block_rejects_negative_and_mismatched(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        for bad in (-1.0, math.nan):
            with pytest.raises(EngineError):
                state.record_processed_block("counter", [1.0, bad], [1, 2])
            with pytest.raises(EngineError):
                state.record_processed_block("counter", [bad], [1])
        with pytest.raises(EngineError):
            state.record_processed_block("counter", [1.0], [1, 2])
        assert state.state_bytes("counter") == 0.0

    def test_unknown_operator_rejected(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        with pytest.raises(EngineError):
            state.state_bytes("ghost")

    def test_snapshot_restore_roundtrip(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        state.record_processed("counter", 500.0)
        snapshot = state.snapshot()
        state.record_processed("counter", 500.0)
        state.restore(snapshot)
        assert state.state_bytes("counter") == pytest.approx(4000.0)

    def test_restore_validates(self, stateful_graph):
        state = StateModel(graph=stateful_graph)
        with pytest.raises(EngineError):
            state.restore({"ghost": 10.0})
        for bad in (-1.0, math.nan):
            with pytest.raises(EngineError):
                state.restore({"counter": bad})
        assert state.total_bytes == 0.0


class TestSavepointModel:
    def test_outage_scales_with_state(self):
        model = SavepointModel(
            base_seconds=10.0,
            snapshot_bandwidth=100e6,
            redeploy_seconds=20.0,
        )
        assert model.outage_seconds(0.0) == pytest.approx(30.0)
        assert model.outage_seconds(1e9) == pytest.approx(40.0)

    def test_default_matches_paper_scale(self):
        # The paper reports 30-50 s Flink outages for wordcount jobs
        # with a few GB of state.
        model = SavepointModel()
        assert 20.0 <= model.outage_seconds(1e9) <= 60.0

    def test_instant_model_is_free(self):
        model = SavepointModel.instant()
        assert model.outage_seconds(1e12) == pytest.approx(0.0, abs=1e-5)

    def test_negative_state_rejected(self):
        for total in (-1.0, math.nan):
            with pytest.raises(EngineError):
                SavepointModel().outage_seconds(total)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(EngineError):
            SavepointModel(base_seconds=-1.0)
        with pytest.raises(EngineError):
            SavepointModel(snapshot_bandwidth=0.0)
        with pytest.raises(EngineError):
            SavepointModel(redeploy_seconds=-1.0)
