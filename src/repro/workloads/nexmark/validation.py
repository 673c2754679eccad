"""Cross-validation of simulated dataflows against query semantics.

The simulated Nexmark dataflows encode each operator's *selectivity* as
a constant. Those constants are not arbitrary: they must match what the
actual query logic produces on a real event stream, or DS2's Eq. 8
would propagate the wrong ideal rates. This module measures the
selectivities by running the reference query implementations over a
generated stream, and compares them against the dataflow constants —
the bridge between the record-level and fluid layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.workloads.nexmark.generator import (
    GeneratorConfig,
    NexmarkGenerator,
)
from repro.workloads.nexmark.model import Bid, Person
from repro.workloads.nexmark.queries import (
    Q2_PASS_RATIO,
    Q3_PERSON_PASS,
    get_query,
)
from repro.workloads.nexmark.semantics import (
    q1_currency_conversion,
    q2_selection,
)


@dataclass(frozen=True)
class SelectivityCheck:
    """One operator's configured vs semantics-measured selectivity."""

    query: str
    operator: str
    configured: float
    measured: float

    @property
    def relative_error(self) -> float:
        if self.configured == 0:
            return abs(self.measured)
        return abs(self.measured - self.configured) / self.configured


def measure_selectivities(
    events_count: int = 50_000, seed: int = 42
) -> List[SelectivityCheck]:
    """Run the reference query semantics over a generated stream and
    compare measured selectivities with the simulated dataflows'."""
    # Hot-auction skew concentrates bids on a handful of auction ids,
    # which distorts density-based selectivities (Q2's id-modulo
    # filter); the spec-level check uses an unskewed stream.
    generator = NexmarkGenerator(
        GeneratorConfig(
            seed=seed, events_per_second=1000.0, hot_auction_ratio=0.0
        )
    )
    events = generator.take(events_count)
    persons = [e for e in events if isinstance(e, Person)]
    bids = [e for e in events if isinstance(e, Bid)]

    checks: List[SelectivityCheck] = []

    # Q1: map, selectivity exactly 1.
    converted = q1_currency_conversion(bids)
    q1 = get_query("Q1").flink_graph()
    checks.append(SelectivityCheck(
        query="Q1",
        operator="currency_mapper",
        configured=q1.operator("currency_mapper").long_run_selectivity,
        measured=len(converted) / len(bids),
    ))

    # Q2: filter pass ratio ~ 1/123.
    selected = q2_selection(bids)
    checks.append(SelectivityCheck(
        query="Q2",
        operator="selection",
        configured=Q2_PASS_RATIO,
        measured=len(selected) / len(bids),
    ))

    # Q3: the person filter keeps 3 of the 10 generator states.
    local = [p for p in persons if p.state in ("OR", "ID", "CA")]
    checks.append(SelectivityCheck(
        query="Q3",
        operator="person_filter",
        configured=Q3_PERSON_PASS,
        measured=len(local) / len(persons),
    ))
    return checks


def worst_relative_error(checks: List[SelectivityCheck]) -> float:
    """The largest configured-vs-measured discrepancy."""
    return max(check.relative_error for check in checks)


__all__ = [
    "SelectivityCheck",
    "measure_selectivities",
    "worst_relative_error",
]
