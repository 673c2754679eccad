"""Logical and physical dataflow representations.

This package models streaming computations the way the DS2 paper does
(section 3.1): a *logical* directed acyclic graph whose vertices are
operators and whose edges are data dependencies, plus a *physical*
execution plan that maps each operator to a number of parallel instances
connected by data channels.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dataflow.graph import Edge, LogicalGraph
    from repro.dataflow.operators import (
        CostModel,
        OperatorKind,
        OperatorSpec,
        RateSchedule,
        Selectivity,
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
    from repro.dataflow.physical import (
        Channel,
        InstanceId,
        Partitioner,
        PhysicalPlan,
        skewed_weights,
        uniform_weights,
    )
    from repro.dataflow.state import SavepointModel, StateModel

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dataflow.graph": ("Edge", "LogicalGraph"),
    "repro.dataflow.operators": (
        "CostModel", "OperatorKind", "OperatorSpec", "RateSchedule",
        "Selectivity", "WindowSpec", "filter_operator", "flatmap", "join",
        "map_operator", "session_window", "sink", "sliding_window", "source",
        "tumbling_window",
    ),
    "repro.dataflow.physical": (
        "Channel", "InstanceId", "Partitioner", "PhysicalPlan",
        "skewed_weights", "uniform_weights",
    ),
    "repro.dataflow.state": ("SavepointModel", "StateModel"),
})

__all__ = [
    "Edge",
    "LogicalGraph",
    "CostModel",
    "OperatorKind",
    "OperatorSpec",
    "RateSchedule",
    "Selectivity",
    "WindowSpec",
    "source",
    "sink",
    "map_operator",
    "flatmap",
    "filter_operator",
    "join",
    "tumbling_window",
    "sliding_window",
    "session_window",
    "Channel",
    "InstanceId",
    "Partitioner",
    "PhysicalPlan",
    "uniform_weights",
    "skewed_weights",
    "SavepointModel",
    "StateModel",
]
