"""Physical execution plans.

A :class:`PhysicalPlan` maps every operator of a logical graph to a
number of parallel instances (the graph ``G' = (V', E')`` of section 3.1)
and describes how output records are partitioned across the instances of
each downstream operator. Skewed partitioning weights reproduce the data
imbalance experiment of section 4.2.3.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dataflow.graph import LogicalGraph
from repro.errors import PlanError


@dataclass(frozen=True, order=True)
class InstanceId:
    """Identifier of one parallel instance of a logical operator."""

    operator: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise PlanError("instance index must be >= 0")

    def __str__(self) -> str:
        return f"{self.operator}[{self.index}]"


@dataclass(frozen=True)
class Channel:
    """A data channel between an upstream instance and a downstream
    instance, carrying ``weight`` share of the upstream instance's
    output destined for the downstream operator."""

    upstream: InstanceId
    downstream: InstanceId
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise PlanError("channel weight must be in [0, 1]")


def _integral_parallelism(name: str, value: object) -> int:
    """``value`` as an ``int``, or a :class:`PlanError` naming the
    operator when it is not an integer (a bool, NaN or 2.5 is not)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise PlanError(
        f"parallelism for {name!r} must be an integer, got {value!r}"
    )


def uniform_weights(parallelism: int) -> Tuple[float, ...]:
    """Even key distribution across ``parallelism`` instances."""
    if parallelism < 1:
        raise PlanError("parallelism must be >= 1")
    return tuple(1.0 / parallelism for _ in range(parallelism))


def skewed_weights(parallelism: int, skew: float) -> Tuple[float, ...]:
    """Key distribution where one hot instance receives ``skew`` fraction
    of the records and the rest share the remainder evenly.

    ``skew=0.5`` means instance 0 receives 50% of all records. With
    ``parallelism == 1`` the single instance receives everything. Matches
    the 20%/50%/70% skew settings of the paper's section 4.2.3.
    """
    if parallelism < 1:
        raise PlanError("parallelism must be >= 1")
    if not 0.0 <= skew <= 1.0:
        raise PlanError("skew must be in [0, 1]")
    if parallelism == 1:
        return (1.0,)
    base = 1.0 / parallelism
    hot = max(skew, base)
    rest = (1.0 - hot) / (parallelism - 1)
    return (hot,) + tuple(rest for _ in range(parallelism - 1))


class Partitioner:
    """Produces per-downstream-instance weights for an operator's output.

    The default is hash-partitioning with a uniform key distribution.
    A skew level can be attached per downstream operator to model hot
    keys.
    """

    def __init__(self, skew_by_operator: Optional[Mapping[str, float]] = None):
        self._skew: Dict[str, float] = dict(skew_by_operator or {})
        for op, level in self._skew.items():
            if not 0.0 <= level <= 1.0:
                raise PlanError(
                    f"skew level for {op!r} must be in [0, 1], got {level}"
                )

    def skew_for(self, operator: str) -> float:
        """The skew level configured for ``operator`` (0 = uniform)."""
        return self._skew.get(operator, 0.0)

    def weights(self, operator: str, parallelism: int) -> Tuple[float, ...]:
        """Share of records routed to each instance of ``operator``."""
        skew = self.skew_for(operator)
        if skew <= 1.0 / max(parallelism, 1):
            return uniform_weights(parallelism)
        return skewed_weights(parallelism, skew)


class PhysicalPlan:
    """Parallelism assignment for every operator of a logical graph.

    Plans are immutable; rescaling produces a new plan via
    :meth:`with_parallelism`. ``max_parallelism`` models the slot limit
    of the deployment (the paper uses 36 slots for Flink).
    """

    def __init__(
        self,
        graph: LogicalGraph,
        parallelism: Mapping[str, int],
        partitioner: Optional[Partitioner] = None,
        max_parallelism: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._partitioner = partitioner or Partitioner()
        self._max_parallelism = max_parallelism
        resolved: Dict[str, int] = {}
        for name in graph.names:
            value = _integral_parallelism(name, parallelism.get(name, 1))
            if value < 1:
                raise PlanError(
                    f"parallelism for {name!r} must be >= 1, got {value}"
                )
            spec = graph.operator(name)
            if not spec.data_parallel and value != 1:
                raise PlanError(
                    f"operator {name!r} is not data-parallel and must "
                    f"run with parallelism 1, got {value}"
                )
            if max_parallelism is not None and value > max_parallelism:
                raise PlanError(
                    f"parallelism for {name!r} is {value}, above the "
                    f"slot limit {max_parallelism}"
                )
            resolved[name] = value
        unknown = set(parallelism) - set(graph.names)
        if unknown:
            raise PlanError(f"parallelism given for unknown operators "
                            f"{sorted(unknown)}")
        self._parallelism: Dict[str, int] = resolved

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> LogicalGraph:
        return self._graph

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def max_parallelism(self) -> Optional[int]:
        return self._max_parallelism

    @property
    def parallelism(self) -> Dict[str, int]:
        """Parallelism per operator (copy)."""
        return dict(self._parallelism)

    def parallelism_of(self, operator: str) -> int:
        try:
            return self._parallelism[operator]
        except KeyError:
            raise PlanError(f"unknown operator {operator!r}") from None

    def instances(self, operator: str) -> Tuple[InstanceId, ...]:
        """All instances of an operator."""
        p = self.parallelism_of(operator)
        return tuple(InstanceId(operator, k) for k in range(p))

    def all_instances(self) -> Tuple[InstanceId, ...]:
        """All instances of all operators in topological order."""
        result: List[InstanceId] = []
        for name in self._graph.topological_order():
            result.extend(self.instances(name))
        return tuple(result)

    @property
    def total_instances(self) -> int:
        return sum(self._parallelism.values())

    def input_weights(self, operator: str) -> Tuple[float, ...]:
        """Share of the operator's total input routed to each of its
        instances (reflecting the configured key skew)."""
        return self._partitioner.weights(
            operator, self.parallelism_of(operator)
        )

    def channels(self) -> Tuple[Channel, ...]:
        """All data channels of the physical graph."""
        result: List[Channel] = []
        for edge in self._graph.edges:
            weights = self.input_weights(edge.downstream)
            for up in self.instances(edge.upstream):
                for down, weight in zip(
                    self.instances(edge.downstream), weights
                ):
                    result.append(
                        Channel(upstream=up, downstream=down, weight=weight)
                    )
        return tuple(result)

    # ------------------------------------------------------------------
    # Rescaling
    # ------------------------------------------------------------------

    def with_parallelism(
        self, updates: Mapping[str, int]
    ) -> "PhysicalPlan":
        """A new plan with the given operators' parallelism replaced."""
        merged = dict(self._parallelism)
        for name, value in updates.items():
            if name not in self._parallelism:
                raise PlanError(f"unknown operator {name!r}")
            merged[name] = value
        return PhysicalPlan(
            graph=self._graph,
            parallelism=merged,
            partitioner=self._partitioner,
            max_parallelism=self._max_parallelism,
        )

    def clamped(self, updates: Mapping[str, int]) -> "PhysicalPlan":
        """Like :meth:`with_parallelism` but clamps values into the valid
        range instead of raising, which is what a deployment would do
        when a controller requests more slots than exist."""
        clamped: Dict[str, int] = {}
        for name, value in updates.items():
            if name not in self._parallelism:
                raise PlanError(f"unknown operator {name!r}")
            value = max(1, _integral_parallelism(name, value))
            if self._max_parallelism is not None:
                value = min(value, self._max_parallelism)
            if not self._graph.operator(name).data_parallel:
                value = 1
            clamped[name] = value
        return self.with_parallelism(clamped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicalPlan):
            return NotImplemented
        return (
            self._graph is other._graph
            and self._parallelism == other._parallelism
        )

    def __repr__(self) -> str:
        return f"PhysicalPlan({self._parallelism})"


__all__ = [
    "Channel",
    "InstanceId",
    "Partitioner",
    "PhysicalPlan",
    "skewed_weights",
    "uniform_weights",
]
