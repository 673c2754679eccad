"""Tests for the terminal visualization helpers."""

import pytest

from repro.engine.latency import LatencyDistribution
from repro.errors import ReproError
from repro.viz import cdf_chart, strip_chart


@pytest.fixture
def ramp_series():
    return [(float(t), float(t)) for t in range(100)]


@pytest.fixture
def distribution():
    dist = LatencyDistribution()
    for v in range(1, 101):
        dist.add(v / 100.0)
    return dist


class TestStripChart:
    def test_dimensions(self, ramp_series):
        chart = strip_chart(ramp_series, width=40, height=8)
        lines = chart.splitlines()
        # 8 rows + separator + time axis.
        assert len(lines) == 10
        assert lines[-2] == "-" * 40

    def test_ramp_shape(self, ramp_series):
        chart = strip_chart(ramp_series, width=40, height=8)
        rows = chart.splitlines()[:8]
        # The top row has fewer filled cells than the bottom row.
        assert rows[0].count("#") < rows[-1].count("#")

    def test_title_and_label(self, ramp_series):
        chart = strip_chart(
            ramp_series, title="My Chart", y_label="rec/s"
        )
        assert chart.startswith("My Chart")
        assert "(y: rec/s)" in chart

    def test_fixed_y_max(self):
        # A series at half the pinned scale fills ~half the height.
        series = [(float(t), 50.0) for t in range(10)]
        chart = strip_chart(series, width=20, height=10, y_max=100.0)
        rows = chart.splitlines()[:10]
        filled = sum(1 for row in rows if "#" in row)
        assert 4 <= filled <= 6

    def test_empty_series(self):
        assert strip_chart([]) == "(no samples)"

    def test_too_small_rejected(self, ramp_series):
        with pytest.raises(ReproError):
            strip_chart(ramp_series, width=5, height=1)


class TestCdfChart:
    def test_renders_with_target_marker(self, distribution):
        chart = cdf_chart(distribution, target=0.5, title="CDF")
        assert chart.startswith("CDF")
        assert "|" in chart or "#" in chart

    def test_empty(self):
        assert cdf_chart(LatencyDistribution()) == "(no samples)"

    def test_monotone_fill(self, distribution):
        chart = cdf_chart(distribution, width=30, height=6)
        rows = [
            line for line in chart.splitlines() if "#" in line
        ]
        fills = [row.count("#") for row in rows]
        # Higher cumulative fractions are reached further right:
        # the top row (100%) has the fewest filled columns.
        assert fills == sorted(fills)

