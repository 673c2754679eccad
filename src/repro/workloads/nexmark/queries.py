"""Simulated dataflows for the six Nexmark queries of the paper.

Each :class:`NexmarkQuery` builds a logical graph for either the
Flink-style or the Timely-style runtime, with per-record costs
*calibrated* so the optimal parallelism of the query's main operator
matches what the paper reports (Figure 8: Q1=16, Q2=14, Q3=20, Q5=16,
Q8=10, Q11=28 on Flink; 4 workers for every query on Timely), at the
source rates of Table 3.

Calibration is not circular: the paper's testbed fixes per-record costs
implicitly through its hardware, and any cost produces *some* optimum —
choosing costs that land on the published optima simply pins the
simulated hardware to the paper's. Everything DS2 is evaluated on —
how many steps it takes to find the optimum from arbitrary starting
points, whether it overshoots, how latency behaves around the optimum —
remains emergent behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    filter_operator,
    join,
    map_operator,
    session_window,
    sink,
    sliding_window,
    source,
    tumbling_window,
)
from repro.errors import ReproError

#: Instrumentation overheads of the two runtimes (must match
#: ``FlinkRuntime.instrumentation_overhead`` / ``TimelyRuntime``'s).
FLINK_OVERHEAD = 0.08
TIMELY_OVERHEAD = 0.15

#: Coordination overhead used across the Nexmark operators; non-zero so
#: scaling is sub-linear and DS2 needs its refinement steps (Table 4).
ALPHA = 0.02


def calibrated_cost(
    rate: float,
    target_raw: float,
    alpha: float = ALPHA,
    instrumentation_overhead: float = FLINK_OVERHEAD,
) -> float:
    """Per-record cost making ``ceil(target_raw)`` the optimum.

    Solves ``rate * cost * (1 + alpha * (p_ref - 1)) * (1 + overhead) =
    target_raw`` for the base cost, where ``p_ref = ceil(target_raw)``
    is the parallelism the operator will run with once converged.
    Passing e.g. ``15.5`` pins the raw requirement half an instance
    inside parallelism 16's ceiling bucket, robust to measurement noise
    in either direction.
    """
    if rate <= 0:
        raise ReproError("rate must be > 0")
    if target_raw <= 0:
        raise ReproError("target_raw must be > 0")
    p_ref = max(1, math.ceil(target_raw))
    coordination = 1.0 + alpha * (p_ref - 1)
    return target_raw / (
        rate * coordination * (1.0 + instrumentation_overhead)
    )


def _split(total: float, deser_fraction: float = 0.1) -> CostModel:
    """Split a total per-record cost into (de)serialization and
    processing components."""
    overhead = total * deser_fraction
    return CostModel(
        processing_cost=total - 2 * overhead,
        deserialization_cost=overhead,
        serialization_cost=overhead,
        coordination_alpha=ALPHA,
    )


@dataclass(frozen=True)
class NexmarkQuery:
    """One Nexmark query: its dataflows, rates, and reference optima.

    Attributes:
        name: Query id, e.g. ``"Q5"``.
        description: What the query computes.
        main_operator: The operator whose parallelism the paper reports.
        flink_rates: Source rates on Flink (Table 3), records/s.
        timely_rates: Source rates on Timely (Table 3), records/s.
        indicated_flink: Optimal main-operator parallelism per the
            paper's Figure 8 captions.
        indicated_timely: Optimal total worker count on Timely
            (Figure 9: 4 for every query).
        _flink_builder / _timely_builder: Graph factories.
    """

    name: str
    description: str
    main_operator: str
    flink_rates: Mapping[str, float]
    timely_rates: Mapping[str, float]
    indicated_flink: int
    indicated_timely: int
    _flink_builder: Callable[[Mapping[str, float]], LogicalGraph]
    _timely_builder: Callable[[Mapping[str, float]], LogicalGraph]

    def flink_graph(
        self, rates: Optional[Mapping[str, float]] = None
    ) -> LogicalGraph:
        """The Flink-calibrated dataflow (optionally with overridden
        source rates)."""
        return self._flink_builder(dict(rates or self.flink_rates))

    def timely_graph(
        self, rates: Optional[Mapping[str, float]] = None
    ) -> LogicalGraph:
        """The Timely-calibrated dataflow."""
        return self._timely_builder(dict(rates or self.timely_rates))

    def initial_parallelism(
        self, graph: LogicalGraph, initial: int
    ) -> Dict[str, int]:
        """A starting configuration: every scalable operator at
        ``initial`` instances (sources and sinks at 1), as in the
        paper's Table 4 sweep."""
        plan = {name: 1 for name in graph.names}
        for name in graph.scalable_operators():
            plan[name] = initial
        return plan


# ----------------------------------------------------------------------
# Q1 — currency conversion (stateless map)
# ----------------------------------------------------------------------

def _q1_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    bid_rate = rates["bids"]
    mapper_cost = calibrated_cost(
        bid_rate, target, instrumentation_overhead=overhead
    )
    operators = [
        source("bids", rate=RateSchedule.constant(bid_rate),
               record_bytes=100.0),
        map_operator("currency_mapper", costs=_split(mapper_cost),
                     record_bytes=100.0),
        sink("sink"),
    ]
    edges = [Edge("bids", "currency_mapper"),
             Edge("currency_mapper", "sink")]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Q2 — selection (stateless filter)
# ----------------------------------------------------------------------

#: Beam's Q2 keeps bids whose auction id divides 123.
Q2_PASS_RATIO = 1.0 / 123.0


def _q2_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    bid_rate = rates["bids"]
    filter_cost = calibrated_cost(
        bid_rate, target, instrumentation_overhead=overhead
    )
    operators = [
        source("bids", rate=RateSchedule.constant(bid_rate),
               record_bytes=100.0),
        filter_operator("selection", costs=_split(filter_cost),
                        pass_ratio=Q2_PASS_RATIO, record_bytes=100.0),
        sink("sink"),
    ]
    edges = [Edge("bids", "selection"), Edge("selection", "sink")]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Q3 — local item suggestion (stateful incremental two-input join)
# ----------------------------------------------------------------------

#: Fraction of persons in {OR, ID, CA} (3 of the 10 generator states).
Q3_PERSON_PASS = 0.3
#: Fraction of auctions in category 10 (1 of 10 categories), applied as
#: the join's output selectivity together with the match probability.
Q3_JOIN_SELECTIVITY = 0.05


def _q3_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    auction_rate = rates["auctions"]
    person_rate = rates["persons"]
    join_input_rate = auction_rate + person_rate * Q3_PERSON_PASS
    join_cost = calibrated_cost(
        join_input_rate, target, instrumentation_overhead=overhead
    )
    # The person filter is cheap; size it at ~12% of the main operator.
    filter_cost = calibrated_cost(
        person_rate, max(0.4, target * 0.12),
        instrumentation_overhead=overhead,
    )
    operators = [
        source("persons", rate=RateSchedule.constant(person_rate),
               record_bytes=200.0),
        source("auctions", rate=RateSchedule.constant(auction_rate),
               record_bytes=500.0),
        filter_operator("person_filter", costs=_split(filter_cost),
                        pass_ratio=Q3_PERSON_PASS, record_bytes=200.0),
        join("incremental_join", costs=_split(join_cost),
             selectivity=Q3_JOIN_SELECTIVITY,
             state_bytes_per_record=64.0, record_bytes=300.0),
        sink("sink"),
    ]
    edges = [
        Edge("persons", "person_filter"),
        Edge("person_filter", "incremental_join"),
        Edge("auctions", "incremental_join"),
        Edge("incremental_join", "sink"),
    ]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Q5 — hot items (sliding window)
# ----------------------------------------------------------------------

Q5_WINDOW = 10.0
#: The two-second slide is deliberately misaligned with the 1 s
#: event-time epochs: every other epoch must wait for the next window
#: boundary, producing the load spikes section 5.5 discusses for Q5
#: (a fraction of epochs misses the 1 s target by a bounded amount no
#: matter how many workers are added).
Q5_SLIDE = 2.0
Q5_FIRE_SELECTIVITY = 0.001


def _q5_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    bid_rate = rates["bids"]
    total_cost = calibrated_cost(
        bid_rate, target, instrumentation_overhead=overhead
    )
    replication = Q5_WINDOW / Q5_SLIDE
    assign = 0.6 * total_cost / replication
    fire = 0.4 * total_cost / replication
    operators = [
        source("bids", rate=RateSchedule.constant(bid_rate),
               record_bytes=100.0),
        sliding_window(
            "hot_items",
            length=Q5_WINDOW,
            slide=Q5_SLIDE,
            fire_selectivity=Q5_FIRE_SELECTIVITY,
            assign_cost=assign,
            fire_cost=fire,
            costs=CostModel(processing_cost=0.0,
                            coordination_alpha=ALPHA),
            state_bytes_per_record=16.0,
        ),
        sink("sink"),
    ]
    edges = [Edge("bids", "hot_items"), Edge("hot_items", "sink")]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Q8 — monitor new users (tumbling window join)
# ----------------------------------------------------------------------

Q8_WINDOW = 10.0
Q8_FIRE_SELECTIVITY = 0.01


def _q8_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    auction_rate = rates["auctions"]
    person_rate = rates["persons"]
    input_rate = auction_rate + person_rate
    total_cost = calibrated_cost(
        input_rate, target, instrumentation_overhead=overhead
    )
    assign = 0.6 * total_cost
    fire = 0.4 * total_cost
    operators = [
        source("persons", rate=RateSchedule.constant(person_rate),
               record_bytes=200.0),
        source("auctions", rate=RateSchedule.constant(auction_rate),
               record_bytes=500.0),
        tumbling_window(
            "window_join",
            length=Q8_WINDOW,
            fire_selectivity=Q8_FIRE_SELECTIVITY,
            assign_cost=assign,
            fire_cost=fire,
            costs=CostModel(processing_cost=0.0,
                            coordination_alpha=ALPHA),
            state_bytes_per_record=48.0,
        ),
        sink("sink"),
    ]
    edges = [
        Edge("persons", "window_join"),
        Edge("auctions", "window_join"),
        Edge("window_join", "sink"),
    ]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Q11 — user sessions (session window)
# ----------------------------------------------------------------------

Q11_SESSION_LENGTH = 10.0
Q11_GAP = 2.0
Q11_FIRE_SELECTIVITY = 0.05
#: Q11 converges across a wide parallelism range (8..28); a gentler
#: coordination slope keeps the climb within the paper's three steps.
Q11_ALPHA = 0.012


def _q11_graph(
    rates: Mapping[str, float], overhead: float, target: float
) -> LogicalGraph:
    bid_rate = rates["bids"]
    total_cost = calibrated_cost(
        bid_rate, target, alpha=Q11_ALPHA,
        instrumentation_overhead=overhead,
    )
    assign = 0.6 * total_cost
    fire = 0.4 * total_cost
    operators = [
        source("bids", rate=RateSchedule.constant(bid_rate),
               record_bytes=100.0),
        session_window(
            "user_sessions",
            length=Q11_SESSION_LENGTH,
            gap=Q11_GAP,
            fire_selectivity=Q11_FIRE_SELECTIVITY,
            assign_cost=assign,
            fire_cost=fire,
            costs=CostModel(processing_cost=0.0,
                            coordination_alpha=Q11_ALPHA),
            state_bytes_per_record=24.0,
        ),
        sink("sink"),
    ]
    edges = [Edge("bids", "user_sessions"), Edge("user_sessions", "sink")]
    return LogicalGraph(operators, edges)


# ----------------------------------------------------------------------
# Query registry
# ----------------------------------------------------------------------

def _make_query(
    name: str,
    description: str,
    main_operator: str,
    flink_rates: Dict[str, float],
    timely_rates: Dict[str, float],
    indicated_flink: int,
    builder: Callable[..., LogicalGraph],
    indicated_timely: int = 4,
    timely_main_raw: float = 3.4,
) -> NexmarkQuery:
    """Assemble a query whose Flink graph targets ``indicated_flink``
    for the main operator and whose Timely graph targets a *total* of
    ``indicated_timely`` workers (the main operator claiming a raw
    requirement of ``timely_main_raw`` of them; the rest covers the
    query's secondary operators so the summed optimum lands exactly on
    ``indicated_timely``)."""
    flink_builder = lambda rates: builder(  # noqa: E731
        rates, FLINK_OVERHEAD, indicated_flink - 0.5
    )
    timely_builder = lambda rates: builder(  # noqa: E731
        rates, TIMELY_OVERHEAD, timely_main_raw
    )
    return NexmarkQuery(
        name=name,
        description=description,
        main_operator=main_operator,
        flink_rates=flink_rates,
        timely_rates=timely_rates,
        indicated_flink=indicated_flink,
        indicated_timely=indicated_timely,
        _flink_builder=flink_builder,
        _timely_builder=timely_builder,
    )


#: Table 3 of the paper: target source rates (records/s).
ALL_QUERIES: Tuple[NexmarkQuery, ...] = (
    _make_query(
        "Q1", "Currency conversion (map)", "currency_mapper",
        flink_rates={"bids": 4_000_000},
        timely_rates={"bids": 5_000_000},
        indicated_flink=16,
        builder=_q1_graph,
    ),
    _make_query(
        "Q2", "Selection (filter)", "selection",
        flink_rates={"bids": 4_000_000},
        timely_rates={"bids": 5_000_000},
        indicated_flink=14,
        builder=_q2_graph,
    ),
    _make_query(
        "Q3", "Local item suggestion (incremental join)",
        "incremental_join",
        flink_rates={"auctions": 500_000, "persons": 100_000},
        timely_rates={"auctions": 3_000_000, "persons": 800_000},
        indicated_flink=20,
        builder=_q3_graph,
        timely_main_raw=3.0,
    ),
    _make_query(
        "Q5", "Hot items (sliding window)", "hot_items",
        flink_rates={"bids": 500_000},
        timely_rates={"bids": 2_000_000},
        indicated_flink=16,
        builder=_q5_graph,
    ),
    _make_query(
        "Q8", "Monitor new users (tumbling window join)", "window_join",
        flink_rates={"auctions": 420_000, "persons": 120_000},
        timely_rates={"auctions": 4_000_000, "persons": 4_000_000},
        indicated_flink=10,
        builder=_q8_graph,
    ),
    _make_query(
        "Q11", "User sessions (session window)", "user_sessions",
        flink_rates={"bids": 1_000_000},
        timely_rates={"bids": 9_000_000},
        indicated_flink=28,
        builder=_q11_graph,
    ),
)

_BY_NAME = {q.name: q for q in ALL_QUERIES}


def get_query(name: str) -> NexmarkQuery:
    """Look up a query by id (``"Q1"`` ... ``"Q11"``)."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise ReproError(
            f"unknown Nexmark query {name!r}; "
            f"available: {sorted(_BY_NAME)}"
        ) from None


__all__ = [
    "ALL_QUERIES",
    "ALPHA",
    "NexmarkQuery",
    "calibrated_cost",
    "get_query",
]
