"""Convergence experiment (Table 4, section 5.4).

Every Nexmark query runs with fixed source rates (Table 3) from initial
parallelism 8, 12, 16, 20, 24, 28 under DS2 with a 30 s decision
interval, 30 s warm-up, five-interval activation, and target ratio 1.0.
The table reports the sequence of parallelism values DS2 assigns to the
query's main operator; the paper's result — reproduced here — is
convergence in at most three steps, to the same final configuration
regardless of the starting point.

The Timely counterpart (section 5.4's closing remark and section 5.5)
uses global parallelism: DS2 picks the total worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy, ExecutionModel
from repro.engine.runtimes import FlinkRuntime, TimelyRuntime
from repro.engine.simulator import EngineConfig
from repro.experiments.harness import run_controlled
from repro.experiments.report import format_steps, format_table
from repro.workloads.nexmark import ALL_QUERIES, NexmarkQuery

#: Paper's Table 4 sweep of initial configurations.
PAPER_INITIAL_CONFIGS = (8, 12, 16, 20, 24, 28)

#: Initial global worker counts of the Timely counterpart.
TIMELY_INITIAL_CONFIGS = (2, 8)

#: Paper's §5.4 controller settings.
CONVERGENCE_POLICY_INTERVAL = 30.0
CONVERGENCE_WARMUP_INTERVALS = 1
CONVERGENCE_ACTIVATION_INTERVALS = 5


@dataclass(frozen=True)
class ConvergenceCell:
    """One query × initial configuration result."""

    query: str
    initial: int
    steps: Tuple[int, ...]
    final: int

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _manager_config() -> ManagerConfig:
    return ManagerConfig(
        warmup_intervals=CONVERGENCE_WARMUP_INTERVALS,
        activation_intervals=CONVERGENCE_ACTIVATION_INTERVALS,
        target_ratio=1.0,
    )


def run_flink_convergence_cell(
    query: NexmarkQuery,
    initial: int,
    duration: float = 1500.0,
    tick: float = 0.25,
) -> ConvergenceCell:
    """One Table 4 cell: ``query`` starting at ``initial``."""
    graph = query.flink_graph()
    controller = DS2Controller(DS2Policy(graph), _manager_config())
    run = run_controlled(
        graph=graph,
        runtime=FlinkRuntime(),
        initial_parallelism=query.initial_parallelism(graph, initial),
        controller=controller,
        policy_interval=CONVERGENCE_POLICY_INTERVAL,
        duration=duration,
        max_parallelism=36,
        engine_config=EngineConfig(tick=tick, track_record_latency=False),
    )
    steps = tuple(run.main_parallelism_steps(query.main_operator))
    return ConvergenceCell(
        query=query.name,
        initial=initial,
        steps=steps,
        final=run.converged_parallelism(query.main_operator),
    )


def run_timely_convergence_cell(
    query: NexmarkQuery,
    initial: int,
    duration: float = 1200.0,
    tick: float = 0.25,
) -> ConvergenceCell:
    """One Timely convergence cell: global worker count from
    ``initial`` workers."""
    graph = query.timely_graph()
    controller = DS2Controller(
        DS2Policy(graph, ExecutionModel.GLOBAL), _manager_config()
    )
    run = run_controlled(
        graph=graph,
        runtime=TimelyRuntime(),
        initial_parallelism={name: initial for name in graph.names},
        controller=controller,
        policy_interval=CONVERGENCE_POLICY_INTERVAL,
        duration=duration,
        scalable_operators=graph.names,
        engine_config=EngineConfig(tick=tick, track_record_latency=False),
    )
    steps = tuple(run.main_parallelism_steps(query.main_operator))
    return ConvergenceCell(
        query=query.name,
        initial=initial,
        steps=steps,
        final=run.converged_parallelism(query.main_operator),
    )


def run_table4(
    queries: Sequence[NexmarkQuery] = ALL_QUERIES,
    initial_configs: Sequence[int] = PAPER_INITIAL_CONFIGS,
    duration: float = 1500.0,
    tick: float = 0.25,
) -> Dict[Tuple[str, int], ConvergenceCell]:
    """The full Table 4 sweep on the Flink-style runtime."""
    cells: Dict[Tuple[str, int], ConvergenceCell] = {}
    for query in queries:
        for initial in initial_configs:
            cell = run_flink_convergence_cell(
                query, initial, duration=duration, tick=tick
            )
            cells[(query.name, initial)] = cell
    return cells


def run_timely_table4(
    queries: Sequence[NexmarkQuery] = ALL_QUERIES,
    initial_configs: Sequence[int] = TIMELY_INITIAL_CONFIGS,
    duration: float = 900.0,
    tick: float = 0.25,
) -> Dict[Tuple[str, int], ConvergenceCell]:
    """The Timely counterpart of Table 4 (global worker count)."""
    return {
        (query.name, initial): run_timely_convergence_cell(
            query, initial, duration=duration, tick=tick
        )
        for query in queries
        for initial in initial_configs
    }


def format_table4(
    cells: Mapping[Tuple[str, int], ConvergenceCell],
    queries: Sequence[NexmarkQuery] = ALL_QUERIES,
    initial_configs: Sequence[int] = PAPER_INITIAL_CONFIGS,
) -> str:
    """Render the sweep in the paper's Table 4 layout."""
    headers = ["Initial configuration"] + [q.name for q in queries]
    rows: List[List[str]] = []
    for initial in initial_configs:
        row: List[str] = [str(initial)]
        for query in queries:
            cell = cells.get((query.name, initial))
            row.append(format_steps(cell.steps) if cell else "—")
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            "Table 4: DS2 convergence steps for Nexmark queries on the "
            "Flink-style runtime\n(values are the main operator's "
            "parallelism per step; 'stable' = initial was optimal)"
        ),
    )


def max_steps(cells: Mapping[Tuple[str, int], ConvergenceCell]) -> int:
    """The paper's headline claim: this never exceeds three."""
    return max(cell.step_count for cell in cells.values())


__all__ = [
    "CONVERGENCE_ACTIVATION_INTERVALS",
    "CONVERGENCE_POLICY_INTERVAL",
    "CONVERGENCE_WARMUP_INTERVALS",
    "ConvergenceCell",
    "PAPER_INITIAL_CONFIGS",
    "TIMELY_INITIAL_CONFIGS",
    "format_table4",
    "max_steps",
    "run_flink_convergence_cell",
    "run_table4",
    "run_timely_convergence_cell",
    "run_timely_table4",
]
