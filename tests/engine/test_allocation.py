"""Unit tests for fair (water-filling) allocation."""

import math

import pytest

from repro.engine.allocation import fair_allocate, fill_lane
from repro.errors import EngineError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


class TestFairAllocate:
    def test_everyone_satisfied_when_total_suffices(self):
        assert fair_allocate(100.0, [10.0, 20.0, 30.0]) == [
            10.0,
            20.0,
            30.0,
        ]

    def test_infinite_total(self):
        assert fair_allocate(math.inf, [5.0, 7.0]) == [5.0, 7.0]

    def test_equal_split_under_contention(self):
        allocation = fair_allocate(30.0, [100.0, 100.0, 100.0])
        assert allocation == pytest.approx([10.0, 10.0, 10.0])

    def test_small_demand_releases_share(self):
        allocation = fair_allocate(30.0, [5.0, 100.0])
        assert allocation[0] == pytest.approx(5.0)
        assert allocation[1] == pytest.approx(25.0)

    def test_sum_never_exceeds_total(self):
        allocation = fair_allocate(17.0, [9.0, 9.0, 9.0])
        assert sum(allocation) == pytest.approx(17.0)

    def test_sum_never_exceeds_demand(self):
        allocation = fair_allocate(1000.0, [1.0, 2.0])
        assert sum(allocation) == pytest.approx(3.0)

    def test_no_allocation_exceeds_desire(self):
        allocation = fair_allocate(100.0, [5.0, 50.0, 200.0])
        for granted, desired in zip(allocation, [5.0, 50.0, 200.0]):
            assert granted <= desired + 1e-9

    def test_zero_and_negative_desires(self):
        allocation = fair_allocate(10.0, [0.0, -5.0, 20.0])
        assert allocation[0] == 0.0
        assert allocation[1] == 0.0
        assert allocation[2] == pytest.approx(10.0)

    def test_empty_desires(self):
        assert fair_allocate(10.0, []) == []

    def test_zero_total(self):
        assert fair_allocate(0.0, [5.0, 5.0]) == [0.0, 0.0]

    def test_negative_total_rejected(self):
        with pytest.raises(EngineError):
            fair_allocate(-1.0, [1.0])

    def test_three_tier_waterfill(self):
        # total 12 over demands (2, 5, 9): 2 is satisfied, remaining 10
        # splits as 5 each, so 5 is satisfied and 9 gets 5.
        allocation = fair_allocate(12.0, [2.0, 5.0, 9.0])
        assert allocation == pytest.approx([2.0, 5.0, 5.0])

    def test_counts_give_one_value_per_lane(self):
        # Lanes (2 x 3, 1 x 10) are the demands (2, 2, 2, 10): 2 + 2 + 2
        # is satisfied, and 10 takes what the lanes left.
        assert fair_allocate(9.0, [2.0, 10.0], [3, 1]) == [2.0, 3.0]

    @pytest.mark.parametrize(
        "total,desires,counts",
        [
            (math.nan, [1.0, 2.0], None),
            (math.nan, [], None),
            (-1.0, [1.0], [1]),
            (1.0, [1.0, 2.0], [1]),
            (1.0, [1.0], [1, 1]),
            (1.0, [1.0, 2.0], [1, 0]),
            (1.0, [1.0], [-3]),
            (math.nan, [1.0], None),
            (math.nan, [1.0], [4]),
            (1.0, [1.0], [0]),
            (1.0, [1.0], []),
        ],
        ids=[
            "nan-total",
            "nan-total-no-desires",
            "negative-total",
            "counts-too-short",
            "counts-too-long",
            "zero-count",
            "negative-count",
            "nan-total-one-desire",
            "nan-total-one-lane",
            "zero-count-one-desire",
            "no-counts-one-desire",
        ],
    )
    def test_bad_arguments_rejected(self, total, desires, counts):
        with pytest.raises(EngineError):
            fair_allocate(total, desires, counts)

    if HAVE_HYPOTHESIS:

        _LANE = st.tuples(
            st.one_of(
                st.floats(min_value=-1e6, max_value=1e9, allow_nan=False),
                st.just(0.0),
                st.just(-1.0),
                st.just(math.nan),
                st.floats(min_value=0.0, max_value=1e-12),
            ),
            st.integers(min_value=1, max_value=40),
        )

        @given(
            total=st.one_of(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                st.just(math.inf),
                st.just(0.0),
                st.just(1e-13),
                # Relative to the expanded sum of the drawn desires.
                st.sampled_from(["sum", "below-sum", "above-sum"]),
            ),
            lanes=st.one_of(
                st.lists(_LANE, max_size=8),
                # One entry: the water-fill's one-entry shortcut.
                _LANE.map(lambda lane: [lane]),
            ),
        )
        @settings(max_examples=500, deadline=None)
        def test_property_counts_match_expanded(self, total, lanes):
            """Each lane's value is, bit for bit, what the water-fill
            over the expanded list gives every demand of the lane. The
            expanded list also runs padded with a zero demand, so that
            a single demand is checked against the general water-fill
            rather than against the one-entry shortcut."""
            expanded_desires = [
                desire for desire, count in lanes for _ in range(count)
            ]
            if isinstance(total, str):
                edge = sum(max(0.0, desire) for desire in expanded_desires)
                total = {
                    "sum": edge,
                    "below-sum": max(0.0, math.nextafter(edge, -math.inf)),
                    "above-sum": math.nextafter(edge, math.inf),
                }[total]
            desires = [desire for desire, _ in lanes]
            counts = [count for _, count in lanes]
            expanded = fair_allocate(total, expanded_desires)
            padded = fair_allocate(total, expanded_desires + [0.0])
            counted = fair_allocate(total, desires, counts)
            lane_values = [
                value.hex()
                for value, count in zip(counted, counts)
                for _ in range(count)
            ]
            assert [value.hex() for value in expanded] == lane_values
            assert [value.hex() for value in padded[:-1]] == lane_values
            assert padded[-1] == 0.0


class TestFillLane:
    """:func:`fill_lane`, the engine's one-lane water-fill, is
    ``fair_allocate(total, [desire], [count])[0]`` bit for bit, and
    what the water-fill over ``count`` separate demands gives each."""

    @pytest.mark.parametrize("total", [-1.0, -math.inf, math.nan])
    def test_nan_or_negative_total_raises(self, total):
        with pytest.raises(EngineError, match="total must be >= 0"):
            fill_lane(total, 1.0, 3)

    if HAVE_HYPOTHESIS:

        @given(
            total=st.one_of(
                st.floats(min_value=0.0, allow_nan=False),
                st.sampled_from([0.0, 1e-13, math.inf]),
                # Relative to the expanded sum of the lane's demands.
                st.sampled_from(["sum", "below-sum", "above-sum"]),
            ),
            desire=st.one_of(
                st.floats(),
                st.sampled_from([math.nan, -1.0, 0.0, math.inf]),
                st.floats(min_value=0.0, max_value=1e-12),
            ),
            count=st.integers(min_value=1, max_value=64),
        )
        @settings(max_examples=1000, deadline=None)
        def test_property_equals_fair_allocate(self, total, desire, count):
            if isinstance(total, str):
                edge = sum([max(0.0, desire)] * count)
                total = {
                    "sum": edge,
                    "below-sum": max(0.0, math.nextafter(edge, -math.inf)),
                    "above-sum": math.nextafter(edge, math.inf),
                }[total]
            value = fill_lane(total, desire, count).hex()
            assert value == fair_allocate(total, [desire], [count])[0].hex()
            # The general water-fill, kept off the one-entry shortcut by
            # a zero demand.
            expanded = fair_allocate(total, [desire] * count + [0.0])
            assert [v.hex() for v in expanded[:-1]] == [value] * count
