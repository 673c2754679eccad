"""Tests bridging the record-level semantics and the fluid dataflows.

The simulated dataflows' selectivity constants must agree with what the
actual query logic produces on a generated event stream; otherwise
DS2's Eq. 8 would propagate wrong ideal rates through the graph.
"""

import pytest

from repro.workloads.nexmark.validation import (
    SelectivityCheck,
    measure_selectivities,
    worst_relative_error,
)


@pytest.fixture(scope="module")
def checks():
    return measure_selectivities(events_count=50_000, seed=42)


class TestSelectivityConsistency:
    def test_all_queries_checked(self, checks):
        assert {c.query for c in checks} == {"Q1", "Q2", "Q3"}

    def test_configured_matches_measured(self, checks):
        for check in checks:
            assert check.relative_error < 0.15, (
                f"{check.query}/{check.operator}: configured "
                f"{check.configured} vs measured {check.measured}"
            )

    def test_worst_error_reported(self, checks):
        worst = worst_relative_error(checks)
        assert worst == max(c.relative_error for c in checks)

    def test_q1_is_exactly_one(self, checks):
        q1 = next(c for c in checks if c.query == "Q1")
        assert q1.measured == 1.0

    def test_relative_error_guards_zero(self):
        check = SelectivityCheck(
            query="X", operator="o", configured=0.0, measured=0.25
        )
        assert check.relative_error == 0.25
