"""Unit tests for fluid queues."""

import math

import pytest

from repro.engine.buffers import Queue
from repro.errors import EngineError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


class TestBoundedQueue:
    def test_push_within_capacity(self):
        queue = Queue(capacity=100.0)
        assert queue.push(60.0) == 60.0
        assert queue.length == 60.0
        assert queue.free_space == pytest.approx(40.0)

    def test_push_clipped_at_capacity(self):
        queue = Queue(capacity=100.0)
        accepted = queue.push(150.0)
        assert accepted == 100.0
        assert queue.length == 100.0
        assert queue.free_space == 0.0

    def test_fill_fraction(self):
        queue = Queue(capacity=200.0)
        queue.push(50.0)
        assert queue.fill_fraction == pytest.approx(0.25)

    def test_pop_limited_by_content(self):
        queue = Queue(capacity=100.0)
        queue.push(30.0)
        assert queue.pop(50.0) == 30.0
        assert queue.length == 0.0

    def test_force_push_ignores_capacity(self):
        queue = Queue(capacity=10.0)
        queue.force_push(25.0)
        assert queue.length == 25.0
        assert queue.free_space == 0.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError):
            Queue(capacity=0.0)

    def test_bounded_flag(self):
        assert Queue(capacity=1.0).bounded
        assert not Queue().bounded


class TestUnboundedQueue:
    def test_never_rejects(self):
        queue = Queue()
        assert queue.push(1e12) == 1e12
        assert queue.free_space == math.inf
        assert queue.fill_fraction == 0.0


class TestConservation:
    def test_pushed_minus_popped_equals_length(self):
        queue = Queue(capacity=100.0)
        queue.push(80.0)
        queue.pop(30.0)
        queue.push(40.0)
        queue.check_conservation()
        assert queue.total_pushed - queue.total_popped == pytest.approx(
            queue.length
        )

    def test_drain_empties(self):
        queue = Queue()
        queue.push(42.0)
        assert queue.drain() == 42.0
        assert queue.length == 0.0
        queue.check_conservation()

    def test_negative_operations_rejected(self):
        queue = Queue()
        with pytest.raises(EngineError):
            queue.push(-1.0)
        with pytest.raises(EngineError):
            queue.pop(-1.0)

    @pytest.mark.parametrize("operation", ["push", "force_push", "pop"])
    def test_nan_rejected(self, operation):
        queue = Queue(capacity=10.0)
        with pytest.raises(EngineError):
            getattr(queue, operation)(math.nan)
        assert queue.length == 0.0
        assert queue.total_pushed == 0.0
        assert queue.total_popped == 0.0

    @pytest.mark.parametrize("operation", ["push", "force_push"])
    def test_infinite_push_rejected(self, operation):
        """An infinite push would drain to a NaN length (inf - inf)."""
        queue = Queue()
        with pytest.raises(EngineError, match="finite"):
            getattr(queue, operation)(math.inf)
        assert queue.length == 0.0
        assert queue.total_pushed == 0.0
        queue.check_conservation()

    def test_nan_length_fails_conservation(self):
        """A NaN drift is a violation, not a pass: every comparison
        with NaN is false, so the check is written ``not drift <=
        bound``."""
        queue = Queue()
        queue.push(5.0)
        queue._length = math.nan
        with pytest.raises(EngineError, match="conservation violated"):
            queue.check_conservation()

    def test_push_count_must_be_positive(self):
        with pytest.raises(EngineError):
            Queue().push(1.0, 0)

    def test_repr(self):
        assert "inf" in repr(Queue())
        assert "10" in repr(Queue(capacity=10.0))


def _hex_state(queue, accepted):
    return (
        queue.length.hex(),
        queue.total_pushed.hex(),
        queue.total_popped.hex(),
        accepted.hex(),
    )


def _repeated_push(capacity, start, records, count):
    """``count`` single pushes, the smallest amount accepted."""
    queue = Queue(capacity)
    queue.force_push(start)
    accepted = min(queue.push(records) for _ in range(count))
    return _hex_state(queue, accepted)


def _counted_push(capacity, start, records, count):
    queue = Queue(capacity)
    queue.force_push(start)
    return _hex_state(queue, queue.push(records, count))


class TestCountedPush:
    """``push(records, count)`` is ``count`` single pushes, bit for
    bit."""

    @pytest.mark.parametrize(
        "capacity, start, records, count",
        [
            (10.0, 0.0, 3.0, 5),  # fills partway: 3, 3, 3, 1, 0
            (10.0, 0.1, 0.7, 20),  # fills partway, inexact sums
            (10.0, 10.0, 1.0, 3),  # full from the start
            (1e6, 0.0, 0.1, 9),  # never fills
            (None, 0.3, 0.1, 9),  # unbounded
        ],
    )
    def test_matches_single_pushes(self, capacity, start, records, count):
        assert _counted_push(capacity, start, records, count) == (
            _repeated_push(capacity, start, records, count)
        )

    def test_fills_partway(self):
        queue = Queue(capacity=10.0)
        assert queue.push(3.0, 5) == 0.0
        assert queue.length == 10.0
        assert queue.total_pushed == 10.0


if HAVE_HYPOTHESIS:

    _amounts = st.floats(
        min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
    )

    @given(
        capacity=st.one_of(
            st.none(),
            st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        ),
        start=_amounts,
        records=_amounts,
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_counted_push_matches_single_pushes(
        capacity, start, records, count
    ):
        """Bounded queues that fill up partway, before or not at all,
        and unbounded queues: the same length, totals and return value,
        compared as float hex."""
        assert _counted_push(capacity, start, records, count) == (
            _repeated_push(capacity, start, records, count)
        )


def _lane_fill(start, records, pushes):
    """The queue length after ``pushes`` whole pushes of ``records``
    from ``start``, added one at a time as the queue adds them."""
    length = start
    for _ in range(pushes):
        length += records
    return length


if HAVE_HYPOTHESIS:

    @given(
        start=_amounts,
        records=st.floats(
            min_value=1e-3, max_value=1e3, allow_nan=False
        ),
        count=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_property_counted_push_at_the_fit_boundaries(
        start, records, count, data
    ):
        """Capacities at and around the fill level after ``k`` whole
        pushes, ``k`` from 0 to ``count``: exact fits of the whole lane,
        and queues that clip in the middle of it. The counted push
        (which adds whole pushes when the first and the last fit) must
        equal ``count`` single pushes, each the clipped loop, as float
        hex."""
        fits = data.draw(st.integers(min_value=0, max_value=count))
        capacity = _lane_fill(start, records, fits)
        ulps = data.draw(st.integers(min_value=-2, max_value=2))
        direction = math.inf if ulps > 0 else -math.inf
        for _ in range(abs(ulps)):
            capacity = math.nextafter(capacity, direction)
        if not capacity > 0:
            capacity = records
        assert _counted_push(capacity, start, records, count) == (
            _repeated_push(capacity, start, records, count)
        )

    @given(
        capacity=st.one_of(
            st.none(),
            st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        ),
        start=_amounts,
        records=st.sampled_from([math.nan, math.inf, -math.inf, -1.0]),
        count=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_counted_push_rejects_nan_and_inf(
        capacity, start, records, count
    ):
        """A NaN, infinite or negative counted push raises and leaves
        the queue as it was."""
        queue = Queue(capacity)
        queue.force_push(start)
        before = _hex_state(queue, 0.0)
        with pytest.raises(EngineError, match="finite and >= 0"):
            queue.push(records, count)
        assert _hex_state(queue, 0.0) == before
