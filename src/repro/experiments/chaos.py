"""Chaos campaigns: many seeded fault storms, scored per controller.

Where :mod:`repro.experiments.fault_tolerance` replays *one* hand-built
three-phase fault campaign, this experiment samples *many* randomized
campaigns from a :class:`~repro.faults.campaigns.CampaignProfile` and
scores every controller's run into a SASO scorecard, so robustness
claims rest on a distribution instead of an anecdote:

* **ds2** — the hardened scaling manager (completeness compensation,
  degraded-mode floor, stale/truncated-window guards, retry+backoff);
* **ds2-legacy** — the same policy with every hardening flag off;
* **dhalion** — the backpressure-driven baseline (per-operator
  workloads only; it has no notion of Timely's global scaling).

Campaigns run over a pluggable *workload* (:data:`WORKLOADS`): the
Heron wordcount benchmark (section 5.2 of the paper) by default, or any
of the Nexmark queries — windowed state on the Flink-style runtime
(``nexmark-q1`` … ``nexmark-q11``) plus a Timely-style global-scaling
variant (``nexmark-q5-timely``). A second batch, on the same executor
and journal, replays a crash-only profile on all three runtimes to
expose their distinct recovery models (savepoint restore vs. peer
re-sync vs. container restart; see :mod:`repro.engine.recovery`), one
:class:`RecoveryCellSpec` per (runtime, campaign).

Everything is deterministic: same profile, seed, workload, and campaign
count ⇒ byte-identical scorecards and report, whether the cells run
serially or on a process pool (``jobs``; see
:class:`repro.faults.executor.CampaignExecutor`). The contenders come
from :mod:`repro.experiments.harness`; every factory is a module-level
function or a partial of one, so every cell spec pickles cleanly
across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.controller import Controller
from repro.core.policy import ExecutionModel
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    Runtime,
    TimelyRuntime,
)
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalPlan
from repro.engine.simulator import Simulator
from repro.errors import FaultInjectionError
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.experiments.harness import (
    RUNTIMES,
    TIMELY_INITIAL_WORKERS,
    WORDCOUNT_INITIAL_PARALLELISM,
    campaign_engine_config,
    contenders,
)
from repro.faults.injector import FaultInjector
from repro.experiments.report import format_table
from repro.faults.campaigns import (
    PROFILES,
    RECOVERY_CELL_PREFIX,
    AggregateScore,
    CampaignGenerator,
    CampaignProfile,
    CampaignRunner,
    CampaignTargets,
    CellKey,
    SasoScorecard,
    _cell_label,
    aggregate_scorecards,
    resolve_jobs,
)
from repro.faults.executor import (
    CampaignCoverage,
    CampaignExecutor,
    ensure_parallel_safe,
    journaled_executor,
)
from repro.faults.schedule import FaultSchedule
from repro.records import content_hash
from repro.telemetry.progress import ProgressListener
from repro.telemetry.tracer import NULL_TRACER, tracing
from repro.workloads.nexmark import ALL_QUERIES, get_query
from repro.workloads.wordcount import heron_wordcount_graph

#: Default campaign batch (the ISSUE's acceptance run).
DEFAULT_PROFILE = "mixed"
DEFAULT_CAMPAIGNS = 20
DEFAULT_WORKLOAD = "wordcount"

#: Campaigns replayed per runtime for the recovery-model comparison.
RECOVERY_CAMPAIGNS = 5

#: Nexmark chaos settings: the convergence experiment's policy cadence
#: and the Table 4 sweep's "start everything at 8" configuration.
NEXMARK_POLICY_INTERVAL = 30.0
NEXMARK_INITIAL_PARALLELISM = 8


def chaos_controllers() -> Dict[str, Callable[[], Controller]]:
    """Fresh-instance factories for the three wordcount contenders."""
    return contenders(heron_wordcount_graph)


def resolve_profile(name: str) -> CampaignProfile:
    """Look up a built-in profile, with a helpful error."""
    try:
        return PROFILES[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown chaos profile {name!r} "
            f"(expected one of {', '.join(sorted(PROFILES))})"
        ) from None


def _wordcount_parallelism(graph: LogicalGraph) -> Dict[str, int]:
    return dict(WORDCOUNT_INITIAL_PARALLELISM)


def _nexmark_graph(query_name: str, flavor: str) -> LogicalGraph:
    query = get_query(query_name)
    if flavor == "timely":
        return query.timely_graph()
    return query.flink_graph()


def _nexmark_parallelism(
    query_name: str, graph: LogicalGraph
) -> Dict[str, int]:
    return get_query(query_name).initial_parallelism(
        graph, NEXMARK_INITIAL_PARALLELISM
    )


def _uniform_parallelism(
    workers: int, graph: LogicalGraph
) -> Dict[str, int]:
    return {name: workers for name in graph.names}


@dataclass(frozen=True)
class ChaosWorkload:
    """One workload chaos campaigns can batter.

    Bundles the graph/runtime factories, the starting configuration,
    the policy cadence, and the controller contenders. ``global_scaling``
    marks Timely-style workloads where every operator (sources and sinks
    included) scales in lockstep.
    """

    name: str
    description: str
    policy_interval: float
    graph_factory: Callable[[], LogicalGraph]
    runtime_factory: Callable[[], Runtime]
    parallelism_factory: Callable[[LogicalGraph], Dict[str, int]]
    controllers_factory: Callable[
        [], Dict[str, Callable[[], Controller]]
    ]
    global_scaling: bool = False

    def __post_init__(self) -> None:
        # Workload factories end up inside CampaignCellSpec and cross
        # into pool workers under --jobs N; reject lambdas/closures at
        # registration, not as a pickle traceback mid-campaign.
        for field_name in (
            "graph_factory",
            "runtime_factory",
            "parallelism_factory",
            "controllers_factory",
        ):
            ensure_parallel_safe(
                getattr(self, field_name),
                context=(
                    f"ChaosWorkload {self.name!r} {field_name}"
                ),
            )

    def runner(self, tick: float) -> CampaignRunner:
        """A campaign runner over this workload."""
        graph = self.graph_factory()
        return CampaignRunner(
            graph=graph,
            runtime=self.runtime_factory(),
            initial_parallelism=self.parallelism_factory(graph),
            controllers=self.controllers_factory(),
            policy_interval=self.policy_interval,
            engine_config=campaign_engine_config(tick),
            scalable_operators=(
                graph.names if self.global_scaling else None
            ),
        )


def _builtin_workloads() -> Dict[str, ChaosWorkload]:
    workloads: Dict[str, ChaosWorkload] = {
        "wordcount": ChaosWorkload(
            name="wordcount",
            description=(
                "Heron wordcount, the paper's §5.2 benchmark "
                "(default)"
            ),
            policy_interval=HERON_POLICY_INTERVAL,
            graph_factory=heron_wordcount_graph,
            runtime_factory=HeronRuntime,
            parallelism_factory=_wordcount_parallelism,
            controllers_factory=chaos_controllers,
        )
    }
    for query in ALL_QUERIES:
        key = f"nexmark-{query.name.lower()}"
        workloads[key] = ChaosWorkload(
            name=key,
            description=(
                f"Nexmark {query.name} on the Flink-style runtime: "
                f"{query.description}"
            ),
            policy_interval=NEXMARK_POLICY_INTERVAL,
            graph_factory=partial(_nexmark_graph, query.name, "flink"),
            runtime_factory=FlinkRuntime,
            parallelism_factory=partial(
                _nexmark_parallelism, query.name
            ),
            controllers_factory=partial(
                contenders, partial(_nexmark_graph, query.name, "flink")
            ),
        )
    workloads["nexmark-q5-timely"] = ChaosWorkload(
        name="nexmark-q5-timely",
        description=(
            "Nexmark Q5 on the Timely-style runtime (global scaling: "
            "all operators move in lockstep)"
        ),
        policy_interval=NEXMARK_POLICY_INTERVAL,
        graph_factory=partial(_nexmark_graph, "Q5", "timely"),
        runtime_factory=TimelyRuntime,
        parallelism_factory=partial(
            _uniform_parallelism, TIMELY_INITIAL_WORKERS
        ),
        controllers_factory=partial(
            contenders,
            partial(_nexmark_graph, "Q5", "timely"),
            ExecutionModel.GLOBAL,
        ),
        global_scaling=True,
    )
    return workloads


#: Workloads ``repro run chaos --workload`` accepts.
WORKLOADS: Dict[str, ChaosWorkload] = _builtin_workloads()


def resolve_workload(name: str) -> ChaosWorkload:
    """Look up a built-in chaos workload, with a helpful error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown chaos workload {name!r} "
            f"(expected one of {', '.join(sorted(WORKLOADS))})"
        ) from None


@dataclass(frozen=True)
class ChaosResult:
    """One chaos batch: raw scorecards, per-controller aggregates, and
    (optionally) per-runtime crash-recovery outage samples.

    ``coverage`` is set for checkpointed runs: exactly how
    many cells were attempted, completed, and quarantined — a batch
    with quarantined cells still aggregates, it just says so.
    """

    profile: str
    campaigns: int
    seed: int
    scorecards: List[SasoScorecard]
    aggregates: Dict[str, AggregateScore]
    recovery: Dict[str, List[float]]
    workload: str = DEFAULT_WORKLOAD
    coverage: Optional[CampaignCoverage] = None

    def ranking(self) -> List[str]:
        """Controllers from best (lowest mean score) to worst."""
        return sorted(
            self.aggregates,
            key=lambda name: self.aggregates[name].mean_score,
        )


def run_chaos(
    profile: str = DEFAULT_PROFILE,
    campaigns: int = DEFAULT_CAMPAIGNS,
    seed: int = 1,
    tick: float = 1.0,
    include_recovery: bool = True,
    workload: str = DEFAULT_WORKLOAD,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressListener] = None,
) -> ChaosResult:
    """Run ``campaigns`` sampled campaigns × the workload's controllers.

    Args:
        profile: Built-in profile name (see
            :data:`repro.faults.campaigns.PROFILES`).
        campaigns: Number of sampled campaigns (one seed each);
            at least 1.
        seed: Master seed of the campaign generator.
        tick: Engine tick; 1.0 keeps a 20-campaign batch under a
            minute of wall clock.
        include_recovery: Also replay the crash-only profile on all
            three runtimes (skipped by fast smoke paths).
        workload: Built-in workload name (see :data:`WORKLOADS`).
        jobs: Worker processes for the campaign cells and the
            recovery replay; ``None`` consults ``$REPRO_JOBS``, 1 (the
            default) runs serially in-process. Results are
            byte-identical either way.
        checkpoint: Journal path making the run crash-safe: every
            completed cell, replay cells included, is durably
            recorded, failing cells are retried then quarantined
            (:data:`~repro.faults.executor.CELL_BACKOFF_SECONDS`), and
            the result carries :attr:`ChaosResult.coverage` (of the
            campaign cells). Without it the first failing cell
            aborts the batch. A hard-killed run resumes with
            ``resume=True``, runs only the cells its journal lacks,
            and produces byte-identical output.
        resume: Resume from an existing ``checkpoint`` journal instead
            of starting fresh (requires ``checkpoint``).
        progress: Optional heartbeat sink (see
            :mod:`repro.telemetry.progress`); renders live cell
            progress and, with a checkpoint, journals heartbeats so a
            resumed run can report what the dead run was doing.
            Never affects scorecards, traces, or stdout.
    """
    spec = resolve_profile(profile)
    load = resolve_workload(workload)
    if campaigns < 1:
        raise FaultInjectionError(
            f"a chaos batch needs at least 1 campaign, got {campaigns}"
        )
    if resume and checkpoint is None:
        raise FaultInjectionError("resume requires a checkpoint path")
    header = None
    if checkpoint is not None:
        # The journal code loads only for a run that keeps a journal.
        from repro.faults.checkpoint import JournalHeader

        header = JournalHeader(
            profile=spec.name,
            workload=load.name,
            seed=int(seed),
            campaigns=int(campaigns),
            controllers=tuple(sorted(load.controllers_factory())),
        )
    workers = resolve_jobs(jobs)
    with journaled_executor(
        checkpoint, header, resume=resume, jobs=workers, progress=progress
    ) as executor:
        generator = CampaignGenerator(
            spec,
            CampaignTargets.from_graph(load.graph_factory()),
            seed=seed,
        )
        outcome = load.runner(tick).execute(
            generator, campaigns, executor=executor
        )
        recovery: Dict[str, List[float]] = {}
        if include_recovery:
            recovery = recovery_distributions(
                seed=seed, tick=tick, executor=executor
            )
    return ChaosResult(
        profile=spec.name,
        campaigns=int(campaigns),
        seed=int(seed),
        scorecards=outcome.scorecards,
        aggregates=aggregate_scorecards(outcome.scorecards),
        recovery=recovery,
        workload=load.name,
        coverage=None if checkpoint is None else outcome.coverage,
    )


#: Profile and uniform per-operator parallelism of the replay.
_RECOVERY_PROFILE = "crashes"
_RECOVERY_PARALLELISM = 2


@dataclass(frozen=True)
class RecoveryCellSpec:
    """One cell of the crash-recovery replay: campaign ``campaign`` of
    the crash-only profile at master seed ``seed``, on the runtime
    named ``runtime`` (a :data:`~repro.experiments.harness.RUNTIMES`
    key).

    Implements the executor's cell contract
    (:class:`~repro.faults.executor.CellSpec`): the result is the
    tuple of crash outages, journaled as a JSON list under
    ``"outages"``.
    """

    seed: int
    campaign: int
    runtime: str
    tick: float

    result_field = "outages"

    @property
    def key(self) -> CellKey:
        """``(seed, campaign, "recovery:<runtime>")``."""
        return (
            self.seed,
            self.campaign,
            f"{RECOVERY_CELL_PREFIX}{self.runtime}",
        )

    def fingerprint(self) -> str:
        """Content hash of everything that determines the outages: the
        cell's coordinates and tick, the regenerated crash schedule
        (event for event), the graph, the plan, and the engine
        config."""
        graph, schedule = _replay_inputs(self)
        return content_hash({
            "seed": self.seed,
            "campaign": self.campaign,
            "runtime": self.runtime,
            "tick": repr(self.tick),
            "profile": _RECOVERY_PROFILE,
            "schedule_seed": schedule.seed,
            "events": [repr(event) for event in schedule.events],
            "graph_names": list(graph.names),
            "graph_edges": [repr(edge) for edge in graph.edges],
            "parallelism": _RECOVERY_PARALLELISM,
            "engine_config": repr(campaign_engine_config(self.tick)),
        })

    def run(self) -> Tuple[float, ...]:
        # The module global, read at call time (tests patch it).
        return run_recovery_cell(self)


def _replay_inputs(
    spec: RecoveryCellSpec,
) -> Tuple[LogicalGraph, FaultSchedule]:
    """The replay's graph and the cell's crash-only schedule."""
    graph = heron_wordcount_graph()
    schedule = CampaignGenerator(
        PROFILES[_RECOVERY_PROFILE],
        CampaignTargets.from_graph(graph),
        seed=spec.seed,
    ).schedule(spec.campaign)
    return graph, schedule


def run_recovery_cell(spec: RecoveryCellSpec) -> Tuple[float, ...]:
    """Replay one crash-only campaign and return its crash outages.

    No controller: the plan stays at 2 instances per operator, so the
    outages measure the runtime's recovery *mechanism*. An outage is
    fixed when its crash fires (the recovery model reads the state at
    that tick), so the replay stops once no one-shot event is left.
    Per-tick engine trace events are suppressed, as in
    :func:`~repro.faults.campaigns.run_campaign_cell`.
    """
    duration = PROFILES[_RECOVERY_PROFILE].duration
    graph, schedule = _replay_inputs(spec)
    with tracing(NULL_TRACER):
        simulator = Simulator(
            plan=PhysicalPlan(
                graph=graph,
                parallelism={
                    name: _RECOVERY_PARALLELISM for name in graph.names
                },
            ),
            runtime=RUNTIMES[spec.runtime](),
            config=campaign_engine_config(spec.tick),
        )
        injector = FaultInjector(simulator, schedule)
        while simulator.time < duration and injector.one_shots_pending:
            injector.step()
    return tuple(outage for _, outage in injector.crash_outages)


def recovery_distributions(
    campaigns: int = RECOVERY_CAMPAIGNS,
    seed: int = 1,
    tick: float = 1.0,
    executor: Optional[CampaignExecutor] = None,
) -> Dict[str, List[float]]:
    """Crash-recovery outage samples per runtime.

    Replays the same crash-only campaigns on the Flink-, Timely-, and
    Heron-style runtimes at a fixed uniform configuration — no
    controller, so the distributions measure the recovery *mechanism*,
    not the scaling policy (Timely additionally requires uniform
    parallelism). Per-crash outages come from each runtime's
    :class:`~repro.engine.recovery.RecoveryModel`, so the three
    distributions should be visibly distinct: savepoint restore grows
    with total keyed state, peer re-sync with the lost worker's shard,
    container restart stays near-constant.

    Each (runtime, campaign) pair is one :class:`RecoveryCellSpec`
    cell on ``executor`` — :func:`run_chaos` passes the campaign
    batch's, so replay cells are journaled, retried and resumed like
    campaign cells — or, by default, on a serial fail-fast executor.
    Samples fold back in runtime-major, campaign-minor order, so the
    result does not depend on where the cells ran.
    """
    specs = [
        RecoveryCellSpec(
            seed=int(seed), campaign=campaign, runtime=runtime, tick=tick
        )
        for runtime in RUNTIMES
        for campaign in range(campaigns)
    ]
    if executor is None:
        executor = CampaignExecutor()
    results = executor.run_cells(specs)
    outages: Dict[str, List[float]] = {
        runtime: [] for runtime in RUNTIMES
    }
    for spec, samples in zip(specs, results):
        outages[spec.runtime].extend(samples)
    return outages


def chaos_report(result: ChaosResult) -> str:
    """The chaos batch's summary tables (deterministic text)."""
    rows: List[Tuple[object, ...]] = []
    for name in result.ranking():
        agg = result.aggregates[name]
        rows.append(
            (
                name,
                f"{agg.mean_score:.3f}",
                f"{agg.mean_oscillations:.2f}",
                f"{agg.mean_steady_state_error:.3f}",
                f"{agg.mean_settling_epochs:.1f}",
                f"{agg.mean_overshoot_ratio:.2f}",
                f"{agg.mean_downtime_fraction:.3f}",
                agg.total_failed_rescales,
            )
        )
    report = format_table(
        (
            "controller",
            "score",
            "osc",
            "ss err",
            "settle",
            "overshoot",
            "downtime",
            "failed",
        ),
        rows,
        # The default-workload title is frozen: the committed
        # chaos_scorecards.txt artifact must stay byte-identical.
        title=(
            f"Chaos campaign '{result.profile}' "
            + (
                f"on '{result.workload}' "
                if result.workload != DEFAULT_WORKLOAD
                else ""
            )
            + f"({result.campaigns} campaigns, seed {result.seed}; "
            f"lower score is better)"
        ),
    )
    if result.recovery:
        recovery_rows: List[Tuple[object, ...]] = []
        for runtime in sorted(result.recovery):
            samples = result.recovery[runtime]
            if samples:
                mean = sum(samples) / len(samples)
                low, high = min(samples), max(samples)
            else:
                mean = low = high = 0.0
            recovery_rows.append(
                (
                    runtime,
                    len(samples),
                    f"{mean:.1f}",
                    f"{low:.1f}",
                    f"{high:.1f}",
                )
            )
        report += "\n\n" + format_table(
            ("runtime", "crashes", "mean s", "min s", "max s"),
            recovery_rows,
            title=(
                "Crash-recovery outage per runtime "
                "(crash-only campaigns, fixed configuration)"
            ),
        )
    if result.coverage is not None:
        cov = result.coverage
        lines = [
            f"Coverage: {cov.completed}/{cov.cells} cells completed, "
            f"{cov.quarantined} quarantined"
        ]
        for cell in cov.quarantined_cells:
            lines.append(
                f"  quarantined {_cell_label(cell.key)} after "
                f"{cell.attempts} attempt(s): {cell.error}"
            )
        report += "\n\n" + "\n".join(lines)
    return report


__all__ = [
    "ChaosResult",
    "ChaosWorkload",
    "DEFAULT_CAMPAIGNS",
    "DEFAULT_PROFILE",
    "DEFAULT_WORKLOAD",
    "NEXMARK_INITIAL_PARALLELISM",
    "NEXMARK_POLICY_INTERVAL",
    "RECOVERY_CAMPAIGNS",
    "RecoveryCellSpec",
    "WORKLOADS",
    "chaos_controllers",
    "chaos_report",
    "recovery_distributions",
    "resolve_profile",
    "resolve_workload",
    "run_chaos",
    "run_recovery_cell",
]
