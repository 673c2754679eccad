"""Compiling sweep grids onto the campaign-cell executor seam.

:func:`compile_grid` turns a :class:`~repro.sweeps.spec.SweepSpec`
into a list of :class:`~repro.faults.campaigns.CampaignCellSpec` —
the exact currency of :class:`~repro.faults.executor.CampaignExecutor`.
Sweeps therefore inherit the whole campaign execution stack for free:
``--jobs N`` process pools with byte-identical merged results, retry +
quarantine supervision, crash-safe checkpoint journals with resume,
progress heartbeats, and span profiling.

Scheduling fairness: a cell's fault schedule is sampled from
``(profile, burstiness, seed, campaign index)`` only — cells that
differ in rate, runtime, backend, or controller replay *identical*
storms, so DS2-vs-Dhalion margins and per-axis marginals compare
controllers under the same faults, not different luck. A pinned
burstiness gets its own variant profile (distinct PRNG stream), since
burstiness changes the storm itself.

All controller factories are module-level functions or
:func:`functools.partial` of them, so every compiled cell pickles
cleanly across pool workers (checked before the first pool round by
:func:`repro.faults.executor.ensure_parallel_safe`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.baselines import DhalionConfig, DhalionController
from repro.core.controller import Controller
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy, ExecutionModel
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.operators import CostModel, RateSchedule
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    Runtime,
    TimelyRuntime,
)
from repro.engine.simulator import EngineConfig
from repro.errors import SweepError
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.faults.campaigns import (
    PROFILES,
    CampaignCellSpec,
    CampaignGenerator,
    CampaignProfile,
    CampaignTargets,
    SasoScorecard,
    resolve_jobs,
)
from repro.faults.checkpoint import CheckpointJournal, JournalHeader
from repro.faults.executor import (
    CampaignCoverage,
    CampaignExecutor,
    CellRetryPolicy,
    checkpoint_journal,
)
from repro.sweeps.spec import (
    SweepCell,
    SweepSpec,
    expand_cells,
    sweep_label,
)
from repro.telemetry.progress import ProgressListener
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    HERON_COUNT_LIMIT,
    HERON_FLATMAP_LIMIT,
    HERON_SOURCE_RATE,
    SINK,
    SOURCE,
    wordcount_graph,
)

#: The workload every sweep cell runs (recorded in journal headers).
SWEEP_WORKLOAD = "wordcount"

#: Policy cadence and scoring tail, matching the chaos wordcount cells.
SWEEP_POLICY_INTERVAL = HERON_POLICY_INTERVAL
SWEEP_TAIL_SECONDS = 120.0

_RUNTIME_FACTORIES: Dict[str, Callable[[], Runtime]] = {
    "heron": HeronRuntime,
    "flink": FlinkRuntime,
    "timely": TimelyRuntime,
}

#: Timely workers per operator at cell start (global scaling: every
#: operator moves in lockstep, so all start uniform).
TIMELY_INITIAL_WORKERS = 2

#: Per-operator starting parallelism for the per-operator runtimes.
PER_OPERATOR_INITIAL: Dict[str, int] = {
    SOURCE: 2,
    FLATMAP: 1,
    COUNT: 1,
    SINK: 1,
}


def _scaled_wordcount_graph(rate: float) -> LogicalGraph:
    """The Heron wordcount graph with its offered load scaled by
    ``rate`` (operator rate limits stay fixed, so the optimum moves)."""
    return wordcount_graph(
        rate=RateSchedule.constant(HERON_SOURCE_RATE * rate),
        flatmap_cost=CostModel(processing_cost=1e-5),
        count_cost=CostModel(processing_cost=1e-6),
        flatmap_rate_limit=HERON_FLATMAP_LIMIT,
        count_rate_limit=HERON_COUNT_LIMIT,
    )


def _sweep_ds2(
    rate: float, runtime: str, hardened: bool
) -> Controller:
    """A DS2 controller sized for one sweep cell's graph and runtime.

    Module-level (hence picklable via :func:`functools.partial`): the
    policy needs the cell's own scaled graph, and Timely cells need the
    global execution model.
    """
    graph = _scaled_wordcount_graph(rate)
    model = (
        ExecutionModel.GLOBAL
        if runtime == "timely"
        else ExecutionModel.PER_OPERATOR
    )
    if hardened:
        return DS2Controller(
            DS2Policy(graph, execution_model=model),
            ManagerConfig(
                warmup_intervals=0,
                activation_intervals=1,
                target_ratio=1.0,
            ),
        )
    return DS2Controller(
        DS2Policy(
            graph, execution_model=model, completeness_scaling=False
        ),
        ManagerConfig(
            warmup_intervals=0,
            activation_intervals=1,
            target_ratio=1.0,
            completeness_compensation=False,
            min_completeness=0.0,
            max_window_age_intervals=None,
        ),
    )


def _make_sweep_dhalion() -> Controller:
    return DhalionController(DhalionConfig())


def _controller_factory(
    cell: SweepCell,
) -> Callable[[], Controller]:
    if cell.controller == "dhalion":
        return _make_sweep_dhalion
    return partial(
        _sweep_ds2,
        cell.rate,
        cell.runtime,
        cell.controller == "ds2",
    )


def _variant_profile(
    profile: str, burstiness: Optional[float]
) -> CampaignProfile:
    """The cell's sampling profile. A pinned burstiness renames the
    profile (``smoke[b=3]``), giving the variant its own PRNG stream —
    a burstier storm is a *different* storm, while rate/runtime/backend
    variations keep the base stream so schedules stay shared."""
    base = PROFILES[profile]
    if burstiness is None or burstiness == base.burstiness:
        return base
    return dataclasses.replace(
        base,
        name=f"{base.name}[b={burstiness:g}]",
        burstiness=burstiness,
    )


@dataclass(frozen=True)
class CompiledGrid:
    """A sweep grid lowered onto the campaign executor seam.

    ``specs`` hold one :class:`CampaignCellSpec` per (sweep cell ×
    campaign index), cell-major / campaign-minor; ``owners[i]`` maps
    executor-spec index ``i`` back to ``(sweep-cell index, campaign
    index)``. ``header`` is the checkpoint-journal header naming the
    sweep (``name@fingerprint``) and its total executor cell count.
    """

    spec: SweepSpec
    cells: Tuple[SweepCell, ...]
    specs: List[CampaignCellSpec]
    owners: Tuple[Tuple[int, int], ...]
    header: JournalHeader


def compile_grid(spec: SweepSpec) -> CompiledGrid:
    """Lower a sweep spec into executor-ready campaign cells.

    Every graph/parallelism combination is statically validated before
    the first (expensive) cell runs; per-cell fingerprints come from
    :func:`~repro.faults.checkpoint.cell_fingerprint` exactly as for
    chaos campaigns, so sweep journals reject foreign or stale cells
    the same way.
    """
    from repro.analysis.graphcheck import ensure_valid_graph

    cells = expand_cells(spec)
    graphs: Dict[float, LogicalGraph] = {}
    generators: Dict[Tuple[str, Optional[float]], CampaignGenerator] = {}
    validated: set = set()
    specs: List[CampaignCellSpec] = []
    owners: List[Tuple[int, int]] = []
    engine_config = EngineConfig(
        tick=spec.tick,
        track_record_latency=False,
        source_catchup_factor=1.3,
    )
    for cell in cells:
        graph = graphs.get(cell.rate)
        if graph is None:
            graph = _scaled_wordcount_graph(cell.rate)
            graphs[cell.rate] = graph
        if cell.runtime == "timely":
            initial = {
                name: TIMELY_INITIAL_WORKERS for name in graph.names
            }
            scalable: Optional[Tuple[str, ...]] = tuple(graph.names)
            scored = dict(initial)
        else:
            initial = dict(PER_OPERATOR_INITIAL)
            scalable = None
            scored = {
                name: initial[name]
                for name in graph.scalable_operators()
            }
        if (cell.rate, cell.runtime) not in validated:
            ensure_valid_graph(
                graph,
                parallelism=dict(initial),
                name=f"sweep graph (rate={cell.rate:g})",
            )
            validated.add((cell.rate, cell.runtime))
        profile = _variant_profile(cell.profile, cell.burstiness)
        generator = generators.get((profile.name, cell.burstiness))
        if generator is None:
            generator = CampaignGenerator(
                profile,
                CampaignTargets.from_graph(graph),
                seed=spec.seed,
            )
            generators[(profile.name, cell.burstiness)] = generator
        duration = profile.duration
        rate_schedule = graph.operator(SOURCE).rate
        assert rate_schedule is not None
        target_rates = {SOURCE: rate_schedule.rate_at(duration)}
        factory = _controller_factory(cell)
        for k in range(spec.campaigns):
            specs.append(
                CampaignCellSpec(
                    seed=spec.seed,
                    # Scenario-major campaign ordinal: unique per
                    # (scenario, k), shared across the scenario's
                    # controllers so CellKeys stay distinct while
                    # margin pairs share schedules.
                    campaign=cell.scenario * spec.campaigns + k,
                    controller=cell.controller,
                    profile=profile.name,
                    graph=graph,
                    runtime=_RUNTIME_FACTORIES[cell.runtime](),
                    initial_parallelism=dict(initial),
                    controller_factory=factory,
                    policy_interval=SWEEP_POLICY_INTERVAL,
                    duration=duration,
                    schedule=generator.schedule(k),
                    scored_parallelism=dict(scored),
                    target_rates=target_rates,
                    tail_seconds=SWEEP_TAIL_SECONDS,
                    engine_config=engine_config,
                    scalable_operators=scalable,
                    engine_backend=(
                        None
                        if cell.backend == "default"
                        else cell.backend
                    ),
                )
            )
            owners.append((cell.index, k))
    header = JournalHeader(
        profile="+".join(spec.profiles),
        workload=SWEEP_WORKLOAD,
        seed=spec.seed,
        campaigns=spec.campaigns,
        controllers=tuple(
            sorted({cell.controller for cell in cells})
        ),
        sweep=sweep_label(spec),
        cells=len(specs),
    )
    return CompiledGrid(
        spec=spec,
        cells=cells,
        specs=specs,
        owners=tuple(owners),
        header=header,
    )


@dataclass(frozen=True)
class SweepResult:
    """One sweep's outcome: scorecards keyed by executor-spec index.

    ``scorecards[i]`` belongs to ``grid.specs[i]`` (and therefore to
    sweep cell ``grid.owners[i][0]``). Quarantined cells are simply
    absent — ``coverage`` says how many. ``resumed`` counts cells
    recovered from a checkpoint journal instead of run live.
    """

    grid: CompiledGrid
    scorecards: Dict[int, SasoScorecard]
    coverage: Optional[CampaignCoverage] = None
    resumed: int = 0

    @property
    def spec(self) -> SweepSpec:
        return self.grid.spec

    @property
    def label(self) -> str:
        return sweep_label(self.grid.spec)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    retry: Optional[CellRetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    progress: Optional[ProgressListener] = None,
) -> SweepResult:
    """Run every cell of a sweep grid.

    Cells run on the campaign executor (serial for one job, a process
    pool otherwise). Without ``checkpoint`` any cell failure aborts the
    sweep. With ``checkpoint``, completed cells are durably journaled
    the moment they finish, failing cells are retried then quarantined
    (``retry`` defaults to :class:`CellRetryPolicy`), and a
    hard-killed sweep resumes with ``resume=True`` producing
    byte-identical output. Results are byte-identical across job
    counts, backends, and fresh-vs-resumed runs.
    """
    grid = compile_grid(spec)
    if resume and checkpoint is None:
        raise SweepError("resume requires a checkpoint path")
    with checkpoint_journal(
        checkpoint, grid.header, resume=resume
    ) as journal:
        if retry is None and journal is not None:
            retry = CellRetryPolicy()
        outcome = CampaignExecutor(
            jobs=resolve_jobs(jobs),
            retry=retry,
            cell_timeout=cell_timeout,
            journal=journal,
            progress=progress,
        ).execute(grid.specs)
    return SweepResult(
        grid=grid,
        scorecards=dict(outcome.by_index),
        coverage=None if journal is None else outcome.coverage,
        resumed=outcome.resumed,
    )


def sweep_result_from_journal(
    spec: SweepSpec, checkpoint: str
) -> SweepResult:
    """Rebuild a sweep's result from its checkpoint journal.

    The journal's header must name exactly this spec (the
    ``name@fingerprint`` label is part of the match) and every recorded
    cell must carry the regenerated spec's fingerprint — a journal from
    a different grid, seed, or tick is rejected, never partially
    trusted. Cells missing from the journal (killed or quarantined
    runs) are simply absent from the result; the sensitivity report
    flags the gap.
    """
    grid = compile_grid(spec)
    journal = CheckpointJournal.open(
        checkpoint, grid.header, resume=True
    )
    try:
        matched = journal.match(grid.specs)
    finally:
        journal.close()
    return SweepResult(
        grid=grid,
        scorecards={
            index: cell.scorecard for index, cell in matched.items()
        },
        coverage=CampaignCoverage(
            cells=len(grid.specs),
            completed=len(matched),
            quarantined=0,
        ),
        resumed=len(matched),
    )


__all__ = [
    "PER_OPERATOR_INITIAL",
    "SWEEP_POLICY_INTERVAL",
    "SWEEP_TAIL_SECONDS",
    "SWEEP_WORKLOAD",
    "TIMELY_INITIAL_WORKERS",
    "CompiledGrid",
    "SweepResult",
    "compile_grid",
    "run_sweep",
    "sweep_result_from_journal",
]
