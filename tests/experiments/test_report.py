"""Unit tests for report formatting."""

import pytest

from repro.engine.latency import LatencyDistribution
from repro.errors import ReproError
from repro.experiments.report import (
    format_rate,
    format_steps,
    format_table,
    latency_summary,
)


class TestFormatTable:
    def test_alignment_and_header_separator(self):
        text = format_table(
            ("name", "value"),
            [("a", 1), ("long-name", 22)],
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-+-" in lines[1]
        # All lines have the same width.
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        text = format_table(("x",), [("1",)], title="My Table")
        assert text.startswith("My Table")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ReproError):
            format_table(("a", "b"), [("only-one",)])


class TestFormatters:
    def test_format_rate(self):
        assert format_rate(2_000_000.0) == "2.00M"
        assert format_rate(500_000.0) == "500K"
        assert format_rate(12.3) == "12.3"

    def test_format_steps(self):
        assert format_steps([12, 16]) == "12→16"
        assert format_steps([]) == "stable"

    def test_latency_summary(self):
        dist = LatencyDistribution()
        for v in (0.1, 0.2, 0.3):
            dist.add(v)
        text = latency_summary(dist)
        assert "p50=" in text and "p99=" in text

    def test_latency_summary_empty(self):
        assert latency_summary(LatencyDistribution()) == "no samples"
