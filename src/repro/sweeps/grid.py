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
differ in rate, runtime or controller replay *identical*
storms, so DS2-vs-Dhalion margins and per-axis marginals compare
controllers under the same faults, not different luck. A pinned
burstiness gets its own variant profile (distinct PRNG stream), since
burstiness changes the storm itself.

Cells are built by :meth:`~repro.faults.campaigns.CampaignRunner.cell_specs`
over the contenders of :mod:`repro.experiments.harness`, exactly as
chaos cells are; every controller factory is a module-level function
or a :func:`functools.partial` of one, so every compiled cell pickles
cleanly across pool workers (checked before the first pool round by
:func:`repro.faults.executor.ensure_parallel_safe`).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.policy import ExecutionModel
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.operators import CostModel, RateSchedule
from repro.errors import SweepError
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.experiments.harness import (
    RUNTIMES,
    TIMELY_INITIAL_WORKERS,
    WORDCOUNT_INITIAL_PARALLELISM,
    campaign_engine_config,
    contenders,
)
from repro.faults.campaigns import (
    PROFILES,
    CampaignCellSpec,
    CampaignGenerator,
    CampaignProfile,
    CampaignRunner,
    CampaignTargets,
    SasoScorecard,
    resolve_jobs,
)
from repro.faults.checkpoint import (
    JournalHeader,
    check_header,
    load_journal,
    match_cells,
)
from repro.faults.executor import CampaignCoverage, journaled_executor
from repro.sweeps.spec import (
    SweepCell,
    SweepSpec,
    expand_cells,
    sweep_label,
)
from repro.telemetry.progress import ProgressListener
from repro.workloads.wordcount import (
    HERON_COUNT_LIMIT,
    HERON_FLATMAP_LIMIT,
    HERON_SOURCE_RATE,
    wordcount_graph,
)

#: The workload every sweep cell runs (recorded in journal headers).
SWEEP_WORKLOAD = "wordcount"

#: Policy cadence and scoring tail, matching the chaos wordcount cells.
SWEEP_POLICY_INTERVAL = HERON_POLICY_INTERVAL
SWEEP_TAIL_SECONDS = 120.0


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


def _variant_profile(
    profile: str, burstiness: Optional[float]
) -> CampaignProfile:
    """The cell's sampling profile. A pinned burstiness renames the
    profile (``smoke[b=3]``), giving the variant its own PRNG stream —
    a burstier storm is a *different* storm, while rate and runtime
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

    Per-cell fingerprints come from
    :func:`~repro.faults.checkpoint.cell_fingerprint` exactly as for
    chaos campaigns, so sweep journals reject foreign or stale cells
    the same way.
    """
    cells = expand_cells(spec)
    engine_config = campaign_engine_config(spec.tick)
    graphs: Dict[float, LogicalGraph] = {}
    generators: Dict[Tuple[str, Optional[float]], CampaignGenerator] = {}
    specs: List[CampaignCellSpec] = []
    owners: List[Tuple[int, int]] = []
    for cell in cells:
        graph = graphs.get(cell.rate)
        if graph is None:
            graph = graphs[cell.rate] = _scaled_wordcount_graph(cell.rate)
        profile = _variant_profile(cell.profile, cell.burstiness)
        generator = generators.get((profile.name, cell.burstiness))
        if generator is None:
            generator = CampaignGenerator(
                profile,
                CampaignTargets.from_graph(graph),
                seed=spec.seed,
            )
            generators[(profile.name, cell.burstiness)] = generator
        # Timely scales globally: every operator starts uniform and
        # moves in lockstep.
        timely = cell.runtime == "timely"
        factories = contenders(
            partial(_scaled_wordcount_graph, cell.rate),
            ExecutionModel.GLOBAL if timely else ExecutionModel.PER_OPERATOR,
        )
        runner = CampaignRunner(
            graph=graph,
            runtime=RUNTIMES[cell.runtime](),
            initial_parallelism=(
                {name: TIMELY_INITIAL_WORKERS for name in graph.names}
                if timely
                else WORDCOUNT_INITIAL_PARALLELISM
            ),
            controllers={cell.controller: factories[cell.controller]},
            policy_interval=SWEEP_POLICY_INTERVAL,
            engine_config=engine_config,
            tail_seconds=SWEEP_TAIL_SECONDS,
            scalable_operators=graph.names if timely else None,
        )
        for cell_spec in runner.cell_specs(generator, spec.campaigns):
            k = cell_spec.campaign
            specs.append(
                dataclasses.replace(
                    cell_spec,
                    # Scenario-major campaign ordinal: unique per
                    # (scenario, k), shared across the scenario's
                    # controllers so CellKeys stay distinct while
                    # margin pairs share schedules.
                    campaign=cell.scenario * spec.campaigns + k,
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
    progress: Optional[ProgressListener] = None,
) -> SweepResult:
    """Run every cell of a sweep grid.

    Cells run on the campaign executor (serial for one job, a process
    pool otherwise). Without ``checkpoint`` any cell failure aborts the
    sweep. With ``checkpoint``, completed cells are durably journaled
    the moment they finish, failing cells are retried then quarantined
    (see :data:`~repro.faults.executor.CELL_BACKOFF_SECONDS`), and a
    hard-killed sweep resumes with ``resume=True`` producing
    byte-identical output. Results are byte-identical across job
    counts and between fresh and resumed runs.
    """
    grid = compile_grid(spec)
    if resume and checkpoint is None:
        raise SweepError("resume requires a checkpoint path")
    with journaled_executor(
        checkpoint,
        grid.header,
        resume=resume,
        jobs=resolve_jobs(jobs),
        progress=progress,
    ) as executor:
        outcome = executor.execute(grid.specs)
    return SweepResult(
        grid=grid,
        scorecards=dict(outcome.by_index),
        coverage=None if checkpoint is None else outcome.coverage,
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

    The journal is only read: a torn final record is reported as a
    RuntimeWarning and left on disk for ``sweep run --resume`` to
    recover.
    """
    grid = compile_grid(spec)
    loaded = load_journal(checkpoint)
    check_header(loaded.header, grid.header, checkpoint)
    for note in loaded.warnings:
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    matched = match_cells(checkpoint, loaded.cells, grid.specs)
    return SweepResult(
        grid=grid,
        scorecards={
            index: cell.result for index, cell in matched.items()
        },
        coverage=CampaignCoverage(
            cells=len(grid.specs),
            completed=len(matched),
            quarantined=0,
        ),
        resumed=len(matched),
    )


__all__ = [
    "SWEEP_POLICY_INTERVAL",
    "SWEEP_TAIL_SECONDS",
    "SWEEP_WORKLOAD",
    "CompiledGrid",
    "SweepResult",
    "compile_grid",
    "run_sweep",
    "sweep_result_from_journal",
]
