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
variant (``nexmark-q5-timely``). A second batch replays a crash-only
profile on all three runtimes to expose their distinct recovery models
(savepoint restore vs. peer re-sync vs. container restart; see
:mod:`repro.engine.recovery`), one :class:`RecoveryCellSpec` per
(runtime, campaign).

Everything is deterministic: same profile, seed, workload, and campaign
count ⇒ byte-identical scorecards and report, whether the cells run
serially or on a process pool (``jobs``; see
:class:`repro.faults.executor.CampaignExecutor`). All controller
factories here are module-level functions or partials, so every cell
spec pickles cleanly across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.baselines import DhalionConfig, DhalionController
from repro.core.controller import Controller
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy, ExecutionModel
from repro.engine.runtimes import (
    FlinkRuntime,
    HeronRuntime,
    Runtime,
    TimelyRuntime,
)
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalPlan
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import FaultInjectionError
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.experiments.fault_tolerance import (
    SOURCE_PARALLELISM,
    _ds2_controller,
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
from repro.faults.checkpoint import JournalHeader
from repro.faults.executor import (
    CampaignCoverage,
    CampaignExecutor,
    CampaignInterrupted,
    CellRetryPolicy,
    checkpoint_journal,
    ensure_parallel_safe,
)
from repro.telemetry.progress import ProgressListener
from repro.telemetry.tracer import NULL_TRACER, tracing
from repro.workloads.nexmark import ALL_QUERIES, get_query
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    SINK,
    SOURCE,
    heron_wordcount_graph,
)

#: Default campaign batch (the ISSUE's acceptance run).
DEFAULT_PROFILE = "mixed"
DEFAULT_CAMPAIGNS = 20
DEFAULT_WORKLOAD = "wordcount"

#: Campaigns replayed per runtime for the recovery-model comparison.
RECOVERY_CAMPAIGNS = 5

#: Runtimes of the recovery-model comparison, in report-fold order.
RECOVERY_RUNTIMES: Dict[str, Callable[[], Runtime]] = {
    "flink": FlinkRuntime,
    "timely": TimelyRuntime,
    "heron": HeronRuntime,
}

#: Nexmark chaos settings: the convergence experiment's policy cadence
#: and the Table 4 sweep's "start everything at 8" configuration.
NEXMARK_POLICY_INTERVAL = 30.0
NEXMARK_INITIAL_PARALLELISM = 8
#: Timely workers per operator at the start of a global-scaling cell
#: (under the paper's 4-worker optimum, so the controller must act).
TIMELY_INITIAL_WORKERS = 2


def _make_hardened_ds2() -> Controller:
    return _ds2_controller(True)


def _make_legacy_ds2() -> Controller:
    return _ds2_controller(False)


def _make_dhalion() -> Controller:
    return DhalionController(DhalionConfig())


def chaos_controllers() -> Dict[str, Callable[[], Controller]]:
    """Fresh-instance factories for the three contenders (module-level
    functions, so cell specs stay picklable for the process pool)."""
    return {
        "ds2": _make_hardened_ds2,
        "ds2-legacy": _make_legacy_ds2,
        "dhalion": _make_dhalion,
    }


def resolve_profile(name: str) -> CampaignProfile:
    """Look up a built-in profile, with a helpful error."""
    try:
        return PROFILES[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown chaos profile {name!r} "
            f"(expected one of {', '.join(sorted(PROFILES))})"
        ) from None


def _wordcount_graph() -> LogicalGraph:
    return heron_wordcount_graph()


def _wordcount_parallelism(graph: LogicalGraph) -> Dict[str, int]:
    return {
        SOURCE: SOURCE_PARALLELISM,
        FLATMAP: 1,
        COUNT: 1,
        SINK: 1,
    }


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


def _nexmark_ds2(
    query_name: str, flavor: str, hardened: bool
) -> Controller:
    """A DS2 controller sized for one Nexmark query's graph.

    Module-level (hence picklable via :func:`functools.partial`): the
    policy needs the query's own graph, so the generic wordcount
    factories cannot be reused.
    """
    graph = _nexmark_graph(query_name, flavor)
    model = (
        ExecutionModel.GLOBAL
        if flavor == "timely"
        else ExecutionModel.PER_OPERATOR
    )
    config = ManagerConfig(
        warmup_intervals=0, activation_intervals=1, target_ratio=1.0
    )
    if hardened:
        return DS2Controller(
            DS2Policy(graph, execution_model=model), config
        )
    legacy = ManagerConfig(
        warmup_intervals=0,
        activation_intervals=1,
        target_ratio=1.0,
        completeness_compensation=False,
        min_completeness=0.0,
        max_window_age_intervals=None,
    )
    return DS2Controller(
        DS2Policy(
            graph, execution_model=model, completeness_scaling=False
        ),
        legacy,
    )


def _nexmark_controllers(
    query_name: str, flavor: str
) -> Dict[str, Callable[[], Controller]]:
    controllers: Dict[str, Callable[[], Controller]] = {
        "ds2": partial(_nexmark_ds2, query_name, flavor, True),
        "ds2-legacy": partial(_nexmark_ds2, query_name, flavor, False),
    }
    if flavor == "flink":
        # Dhalion's backpressure heuristic assumes per-operator worker
        # assignment; it has no global-scaling analogue on Timely.
        controllers["dhalion"] = _make_dhalion
    return controllers


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
            engine_config=EngineConfig(
                tick=tick,
                track_record_latency=False,
                source_catchup_factor=1.3,
            ),
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
            graph_factory=_wordcount_graph,
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
                _nexmark_controllers, query.name, "flink"
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
            _nexmark_controllers, "Q5", "timely"
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
    retry: Optional[CellRetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    progress: Optional[ProgressListener] = None,
) -> ChaosResult:
    """Run ``campaigns`` sampled campaigns × the workload's controllers.

    Args:
        profile: Built-in profile name (see
            :data:`repro.faults.campaigns.PROFILES`).
        campaigns: Number of sampled campaigns (one seed each).
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
            completed cell is durably recorded, failing cells are
            retried then quarantined, and the result carries
            :attr:`ChaosResult.coverage`. A hard-killed run resumes
            with ``resume=True`` and produces byte-identical output.
        resume: Resume from an existing ``checkpoint`` journal instead
            of starting fresh (requires ``checkpoint``).
        retry: Per-cell retry policy; defaults to
            :class:`~repro.faults.executor.CellRetryPolicy` with a
            checkpoint and to fail-fast without one.
        cell_timeout: Per-cell wall-clock budget (seconds); a cell over
            budget counts as a failed attempt.
        progress: Optional heartbeat sink (see
            :mod:`repro.telemetry.progress`); renders live cell
            progress and, with a checkpoint, journals heartbeats so a
            resumed run can report what the dead run was doing.
            Never affects scorecards, traces, or stdout.
    """
    spec = resolve_profile(profile)
    load = resolve_workload(workload)
    if resume and checkpoint is None:
        raise FaultInjectionError("resume requires a checkpoint path")
    header = JournalHeader(
        profile=spec.name,
        workload=load.name,
        seed=int(seed),
        campaigns=int(campaigns),
        controllers=tuple(sorted(load.controllers_factory())),
    )
    workers = resolve_jobs(jobs)
    with checkpoint_journal(checkpoint, header, resume=resume) as journal:
        if retry is None and journal is not None:
            retry = CellRetryPolicy()
        executor = CampaignExecutor(
            jobs=workers,
            retry=retry,
            cell_timeout=cell_timeout,
            journal=journal,
            progress=progress,
        )
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
        try:
            recovery = recovery_distributions(
                seed=seed, tick=tick, jobs=workers, progress=progress
            )
        except CampaignInterrupted:
            # The replay is unjournaled, but every campaign cell is
            # already in the journal: resuming re-runs only the replay.
            coverage = outcome.coverage
            raise CampaignInterrupted(
                f"campaign interrupted during the crash-recovery "
                f"replay, after {coverage.completed} of "
                f"{coverage.cells} campaign cells"
                + (
                    f"; completed cells are checkpointed in "
                    f"{checkpoint!r}"
                    if checkpoint is not None
                    else " (no checkpoint: completed cells are lost)"
                ),
                completed=coverage.completed,
                cells=coverage.cells,
                path=checkpoint,
            ) from None
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


@dataclass(frozen=True)
class RecoveryCellSpec:
    """One cell of the crash-recovery replay: campaign ``campaign`` of
    the crash-only profile at master seed ``seed``, on the runtime
    named ``runtime`` (a :data:`RECOVERY_RUNTIMES` key)."""

    seed: int
    campaign: int
    runtime: str
    tick: float

    @property
    def key(self) -> CellKey:
        """``(seed, campaign, "recovery:<runtime>")``."""
        return (
            self.seed,
            self.campaign,
            f"{RECOVERY_CELL_PREFIX}{self.runtime}",
        )


def run_recovery_cell(spec: RecoveryCellSpec) -> Tuple[float, ...]:
    """Replay one crash-only campaign and return its crash outages.

    No controller: the plan stays at 2 instances per operator, so the
    outages measure the runtime's recovery *mechanism*. An outage is
    fixed when its crash fires (the recovery model reads the state at
    that tick), so the replay stops once no one-shot event is left.
    Per-tick engine trace events are suppressed, as in
    :func:`~repro.faults.campaigns.run_campaign_cell`.
    """
    profile = PROFILES["crashes"]
    graph = heron_wordcount_graph()
    schedule = CampaignGenerator(
        profile, CampaignTargets.from_graph(graph), seed=spec.seed
    ).schedule(spec.campaign)
    with tracing(NULL_TRACER):
        simulator = Simulator(
            plan=PhysicalPlan(
                graph=graph,
                parallelism={name: 2 for name in graph.names},
            ),
            runtime=RECOVERY_RUNTIMES[spec.runtime](),
            config=EngineConfig(
                tick=spec.tick,
                track_record_latency=False,
                source_catchup_factor=1.3,
            ),
        )
        injector = FaultInjector(simulator, schedule)
        while (
            simulator.time < profile.duration
            and injector.one_shots_pending
        ):
            injector.step()
    return tuple(outage for _, outage in injector.crash_outages)


def recovery_distributions(
    campaigns: int = RECOVERY_CAMPAIGNS,
    seed: int = 1,
    tick: float = 1.0,
    jobs: int = 1,
    progress: Optional[ProgressListener] = None,
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

    Each (runtime, campaign) pair is one :func:`run_recovery_cell` on a
    fail-fast, unjournaled :class:`CampaignExecutor` with ``jobs``
    workers; samples fold back in runtime-major, campaign-minor order,
    so the result does not depend on ``jobs``.
    """
    specs = [
        RecoveryCellSpec(
            seed=int(seed), campaign=campaign, runtime=runtime, tick=tick
        )
        for runtime in RECOVERY_RUNTIMES
        for campaign in range(campaigns)
    ]
    results = CampaignExecutor(
        jobs=jobs, progress=progress, runner=run_recovery_cell
    ).run_cells(specs)
    outages: Dict[str, List[float]] = {
        runtime: [] for runtime in RECOVERY_RUNTIMES
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
    "RECOVERY_RUNTIMES",
    "RecoveryCellSpec",
    "TIMELY_INITIAL_WORKERS",
    "WORKLOADS",
    "chaos_controllers",
    "chaos_report",
    "recovery_distributions",
    "resolve_profile",
    "resolve_workload",
    "run_chaos",
    "run_recovery_cell",
]
