"""Logical dataflow graphs.

A :class:`LogicalGraph` is the directed acyclic graph ``G = (V, E)`` of
section 3.1 of the DS2 paper: vertices are operators, edges are data
dependencies. Vertices with no incoming edges are sources, vertices with
no outgoing edges are sinks. The graph is static — scaling decisions
change only the physical plan, never the logical graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.dataflow.operators import OperatorKind, OperatorSpec
from repro.errors import GraphError


@dataclass(frozen=True)
class Edge:
    """A directed data dependency between two operators."""

    upstream: str
    downstream: str

    def __post_init__(self) -> None:
        if self.upstream == self.downstream:
            raise GraphError(
                f"self-loop on operator {self.upstream!r} is not allowed"
            )


class LogicalGraph:
    """An immutable logical dataflow DAG.

    Build a graph by passing operator specs and edges; validation happens
    at construction time (uniqueness of names, edge endpoints exist,
    acyclicity, sources/sinks are structurally consistent with their
    operator kinds).

    The operator ordering exposed by :meth:`topological_order` satisfies
    the paper's convention: operators are numbered so that if ``o_i``
    outputs to ``o_j`` then ``i < j``, with all sources first.
    """

    def __init__(
        self,
        operators: Sequence[OperatorSpec],
        edges: Sequence[Edge],
    ) -> None:
        names = [op.name for op in operators]
        if len(set(names)) != len(names):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise GraphError(f"duplicate operator names: {duplicates}")
        self._operators: Dict[str, OperatorSpec] = {
            op.name: op for op in operators
        }
        seen_edges = set()
        for edge in edges:
            if edge.upstream not in self._operators:
                raise GraphError(
                    f"edge references unknown operator {edge.upstream!r}"
                )
            if edge.downstream not in self._operators:
                raise GraphError(
                    f"edge references unknown operator {edge.downstream!r}"
                )
            key = (edge.upstream, edge.downstream)
            if key in seen_edges:
                raise GraphError(f"duplicate edge {key}")
            seen_edges.add(key)
        self._edges: Tuple[Edge, ...] = tuple(edges)
        self._downstream: Dict[str, List[str]] = {n: [] for n in names}
        self._upstream: Dict[str, List[str]] = {n: [] for n in names}
        for edge in self._edges:
            self._downstream[edge.upstream].append(edge.downstream)
            self._upstream[edge.downstream].append(edge.upstream)
        self._topo_order = self._compute_topological_order()
        self._validate_kinds()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _compute_topological_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm, with sources ordered first and ties broken
        by insertion order for determinism."""
        in_degree = {
            name: len(up) for name, up in self._upstream.items()
        }
        insertion_rank = {
            name: rank for rank, name in enumerate(self._operators)
        }
        # Sources first (paper convention: operators 0..n-1 are sources).
        ready = deque(
            sorted(
                (name for name, deg in in_degree.items() if deg == 0),
                key=lambda n: (
                    not self._operators[n].is_source,
                    insertion_rank[n],
                ),
            )
        )
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            newly_ready = []
            for succ in self._downstream[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    newly_ready.append(succ)
            for succ in sorted(newly_ready, key=lambda n: insertion_rank[n]):
                ready.append(succ)
        if len(order) != len(self._operators):
            remaining = sorted(set(self._operators) - set(order))
            raise GraphError(f"graph contains a cycle involving {remaining}")
        # The paper also requires all sources to come first; verify that
        # no non-source precedes a source in our order.
        first_non_source = None
        for index, name in enumerate(order):
            if not self._operators[name].is_source:
                first_non_source = index
                break
        if first_non_source is not None:
            for name in order[first_non_source:]:
                if self._operators[name].is_source:
                    # Can only happen if a "source" has incoming edges,
                    # which _validate_kinds rejects anyway; re-sort here
                    # for robustness.
                    order.sort(
                        key=lambda n: (not self._operators[n].is_source,)
                    )
                    break
        return tuple(order)

    def _validate_kinds(self) -> None:
        for name, spec in self._operators.items():
            upstream = self._upstream[name]
            downstream = self._downstream[name]
            if spec.is_source and upstream:
                raise GraphError(
                    f"source {name!r} must not have incoming edges"
                )
            if spec.is_sink and downstream:
                raise GraphError(
                    f"sink {name!r} must not have outgoing edges"
                )
            if not spec.is_source and not upstream:
                raise GraphError(
                    f"non-source {name!r} has no incoming edges"
                )
            if not spec.is_sink and not downstream:
                raise GraphError(
                    f"non-sink {name!r} has no outgoing edges"
                )
            if spec.kind is OperatorKind.JOIN and len(upstream) != 2:
                raise GraphError(
                    f"join {name!r} must have exactly two inputs, "
                    f"got {len(upstream)}"
                )
        if not any(spec.is_source for spec in self._operators.values()):
            raise GraphError("graph has no source operator")
        if not any(spec.is_sink for spec in self._operators.values()):
            raise GraphError("graph has no sink operator")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def operator(self, name: str) -> OperatorSpec:
        """The spec of the named operator."""
        try:
            return self._operators[name]
        except KeyError:
            raise GraphError(f"unknown operator {name!r}") from None

    @property
    def operators(self) -> Mapping[str, OperatorSpec]:
        """All operators, keyed by name (insertion order preserved)."""
        return dict(self._operators)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edges

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._operators)

    def topological_order(self) -> Tuple[str, ...]:
        """Operator names in topological order, sources first."""
        return self._topo_order

    def upstream(self, name: str) -> Tuple[str, ...]:
        """Names of operators feeding ``name``."""
        self.operator(name)
        return tuple(self._upstream[name])

    def downstream(self, name: str) -> Tuple[str, ...]:
        """Names of operators fed by ``name``."""
        self.operator(name)
        return tuple(self._downstream[name])

    def sources(self) -> Tuple[str, ...]:
        """Names of all source operators, in topological order."""
        return tuple(
            name
            for name in self._topo_order
            if self._operators[name].is_source
        )

    def sinks(self) -> Tuple[str, ...]:
        """Names of all sink operators, in topological order."""
        return tuple(
            name
            for name in self._topo_order
            if self._operators[name].is_sink
        )

    def scalable_operators(self) -> Tuple[str, ...]:
        """Operators DS2 may rescale: data-parallel non-source, non-sink
        operators (sources are driven externally and sinks are cheap)."""
        return tuple(
            name
            for name in self._topo_order
            if not self._operators[name].is_source
            and not self._operators[name].is_sink
            and self._operators[name].data_parallel
        )

    def __contains__(self, name: object) -> bool:
        return name in self._operators

    def __len__(self) -> int:
        return len(self._operators)

    def __repr__(self) -> str:
        return (
            f"LogicalGraph(operators={list(self._operators)}, "
            f"edges={[(e.upstream, e.downstream) for e in self._edges]})"
        )


__all__ = ["Edge", "LogicalGraph"]
