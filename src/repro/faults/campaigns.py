"""Seeded chaos campaigns: sampled fault schedules and SASO scorecards.

PR 1 proved single, hand-picked fault schedules replay deterministically;
this module turns that property into *campaigns*: many randomized-but-
reproducible schedules sampled from a declarative profile, executed
against several controllers, and scored into comparable SASO scorecards
(stability, accuracy, settling, overshoot — the paper's section 1
criteria — plus recovery cost).

The pieces:

* :class:`CampaignProfile` — *what kind* of chaos: the fault-type mix,
  the event rate, burstiness, and per-fault parameter ranges. Built-in
  profiles live in :data:`PROFILES` (``mixed``, ``crashes``,
  ``telemetry``, ``rescale-storm``, ``smoke``).
* :class:`CampaignTargets` — *where*: which operators faults may hit,
  usually derived from a graph via :meth:`CampaignTargets.from_graph`.
* :class:`CampaignGenerator` — *sampling*: a seeded generator mapping a
  campaign index to a :class:`~repro.faults.schedule.FaultSchedule`.
  Same profile + same seed + same index ⇒ identical schedule, byte for
  byte; replays are deterministic by construction because the schedules
  themselves are (see ``tests/property/test_fault_properties.py``).
* :class:`SasoScorecard` / :func:`score_campaign_run` — *scoring*: one
  control-loop run under one schedule reduced to oscillation count,
  steady-state error, settling epochs, overshoot ratio, downtime and
  crash-recovery time, with a single aggregate :attr:`SasoScorecard.score`
  (lower is better) so controllers can be ranked across campaigns.
* :class:`CampaignRunner` — *execution*: seeds × campaigns × controllers
  as :class:`CampaignCellSpec` cells, each run by
  :func:`run_campaign_cell` through the standard experiment harness.
  The cells run on a :class:`~repro.faults.executor.CampaignExecutor`
  (in-process or on a process pool, optionally journaled and retried);
  they are keyed ``(seed, campaign, controller)`` and merged in
  canonical order regardless of completion order, so every way of
  running them produces byte-identical scorecards.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dataflow.physical import PhysicalPlan
from repro.errors import FaultInjectionError
from repro.faults.events import (
    FaultEvent,
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
)
from repro.faults.schedule import FaultSchedule
from repro.metrics import downtime_seconds
from repro.telemetry.audit import AuditSummary, summarize_audits
from repro.telemetry.tracer import NULL_TRACER, active_tracer, tracing

if TYPE_CHECKING:
    from repro.dataflow.graph import LogicalGraph
    from repro.engine.runtimes import Runtime
    from repro.engine.simulator import EngineConfig
    from repro.experiments.harness import ExperimentRun
    from repro.faults.executor import CampaignExecutor, CampaignOutcome

#: Fault kinds a profile's mix may weight (the ``--faults`` grammar's
#: vocabulary). New kinds are appended, never inserted: the canonical
#: order feeds ``rng.choices``, so reordering would silently change
#: every existing profile's sampled fault stream.
FAULT_KINDS: Tuple[str, ...] = (
    "crash",
    "dropout",
    "lag",
    "corrupt",
    "rescale-fail",
    "corrupt-health",
)


def _check_range(
    name: str, bounds: Tuple[float, float], lo: float, hi: float
) -> None:
    low, high = bounds
    if not (lo <= low <= high <= hi):
        raise FaultInjectionError(
            f"{name} must satisfy {lo} <= low <= high <= {hi}, "
            f"got {bounds!r}"
        )


@dataclass(frozen=True)
class CampaignProfile:
    """A declarative recipe for sampling fault campaigns.

    Attributes:
        name: Profile identifier (also part of the sampling seed, so
            two profiles never share a fault stream by accident).
        mix: Weight per fault kind (see :data:`FAULT_KINDS`); weights
            are relative, zero excludes a kind.
        duration: Campaign horizon in virtual seconds — events are
            sampled within ``[quiet_head, duration)``.
        events_per_1000s: Mean fault arrival rate. The number of events
            in a campaign is ``round(rate × (duration − quiet_head) /
            1000)``, at least 1.
        burstiness: ≥ 1. At 1 events spread uniformly; above 1 they
            cluster into ``n / burstiness`` bursts (correlated failures:
            a rack loss takes machines *and* their metric reporters).
        quiet_head: Fault-free warm-up so the controller can reach a
            steady state worth disturbing.
        dropout_fraction / dropout_seconds: Ranges for
            :class:`~repro.faults.events.MetricDropout`.
        lag_seconds: Duration range for
            :class:`~repro.faults.events.MetricLag`.
        corruption_amplitude / corruption_seconds: Ranges for
            :class:`~repro.faults.events.MetricCorruption` and
            :class:`~repro.faults.events.HealthCorruption` (both
            corrupt a signal by a relative amplitude over an
            interval, so they share the parameter ranges).
        rescale_fail_modes: Modes sampled for
            :class:`~repro.faults.events.RescaleFailure`.
        max_rescale_failures: Upper bound on each failure event's
            armed count.
        max_crash_index: Crash events target instance indices in
            ``[0, max_crash_index]`` (the injector clamps to the live
            parallelism).
    """

    name: str
    mix: Mapping[str, float]
    duration: float = 1200.0
    events_per_1000s: float = 10.0
    burstiness: float = 1.0
    quiet_head: float = 120.0
    dropout_fraction: Tuple[float, float] = (0.25, 0.75)
    dropout_seconds: Tuple[float, float] = (60.0, 240.0)
    lag_seconds: Tuple[float, float] = (60.0, 180.0)
    corruption_amplitude: Tuple[float, float] = (0.1, 0.6)
    corruption_seconds: Tuple[float, float] = (60.0, 240.0)
    rescale_fail_modes: Tuple[str, ...] = ("abort", "timeout")
    max_rescale_failures: int = 2
    max_crash_index: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultInjectionError("profile needs a name")
        unknown = set(self.mix) - set(FAULT_KINDS)
        if unknown:
            raise FaultInjectionError(
                f"unknown fault kinds in mix: {sorted(unknown)} "
                f"(expected {', '.join(FAULT_KINDS)})"
            )
        if any(weight < 0 for weight in self.mix.values()):
            raise FaultInjectionError("mix weights must be >= 0")
        if not any(weight > 0 for weight in self.mix.values()):
            raise FaultInjectionError("mix needs a positive weight")
        if self.duration <= 0:
            raise FaultInjectionError("duration must be > 0")
        if self.events_per_1000s <= 0:
            raise FaultInjectionError("events_per_1000s must be > 0")
        if self.burstiness < 1.0:
            raise FaultInjectionError("burstiness must be >= 1")
        if not 0 <= self.quiet_head < self.duration:
            raise FaultInjectionError(
                "quiet_head must be in [0, duration)"
            )
        _check_range(
            "dropout_fraction", self.dropout_fraction, 1e-9, 1.0
        )
        _check_range("dropout_seconds", self.dropout_seconds, 1e-9,
                     math.inf)
        _check_range("lag_seconds", self.lag_seconds, 1e-9, math.inf)
        _check_range(
            "corruption_amplitude",
            self.corruption_amplitude,
            1e-9,
            1.0 - 1e-9,
        )
        _check_range("corruption_seconds", self.corruption_seconds,
                     1e-9, math.inf)
        for mode in self.rescale_fail_modes:
            if mode not in ("abort", "timeout"):
                raise FaultInjectionError(
                    f"unknown rescale-fail mode {mode!r}"
                )
        if self.mix.get("rescale-fail", 0) > 0 and not self.rescale_fail_modes:
            raise FaultInjectionError(
                "rescale-fail in the mix needs at least one mode"
            )
        if self.max_rescale_failures < 1:
            raise FaultInjectionError("max_rescale_failures must be >= 1")
        if self.max_crash_index < 0:
            raise FaultInjectionError("max_crash_index must be >= 0")

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Fault kinds with positive weight, in canonical order."""
        return tuple(
            kind for kind in FAULT_KINDS if self.mix.get(kind, 0) > 0
        )


#: Built-in campaign profiles. ``mixed`` is the default chaos diet;
#: ``crashes`` isolates the per-runtime recovery models; ``telemetry``
#: stresses only the metrics pipeline (the hardened manager's home
#: turf); ``rescale-storm`` batters the reconfiguration mechanism;
#: ``backpressure`` corrupts the queue-fill/backpressure signals the
#: Dhalion-style baselines steer by (DS2 reads record counters and is
#: unaffected); ``smoke`` is a tiny fast profile for CI.
PROFILES: Dict[str, CampaignProfile] = {
    profile.name: profile
    for profile in (
        CampaignProfile(
            name="mixed",
            mix={
                "crash": 2.0,
                "dropout": 2.0,
                "lag": 1.0,
                "corrupt": 1.0,
                "rescale-fail": 1.0,
            },
        ),
        CampaignProfile(
            name="crashes",
            mix={"crash": 1.0},
            events_per_1000s=6.0,
        ),
        CampaignProfile(
            name="telemetry",
            mix={"dropout": 2.0, "lag": 1.0, "corrupt": 1.0},
        ),
        CampaignProfile(
            name="rescale-storm",
            mix={"rescale-fail": 3.0, "crash": 1.0},
            burstiness=2.0,
            events_per_1000s=8.0,
        ),
        CampaignProfile(
            name="backpressure",
            mix={"corrupt-health": 2.0, "dropout": 1.0, "crash": 1.0},
        ),
        CampaignProfile(
            name="smoke",
            mix={"crash": 1.0, "dropout": 1.0, "lag": 1.0},
            duration=240.0,
            quiet_head=40.0,
            events_per_1000s=15.0,
            dropout_seconds=(20.0, 60.0),
            lag_seconds=(20.0, 40.0),
        ),
    )
}


@dataclass(frozen=True)
class CampaignTargets:
    """The operator pools a campaign may aim at.

    ``sources`` feed the dropout channel (silencing source reporters is
    the classic legacy-DS2 killer); ``operators`` feed crashes and
    corruption; dropouts may hit either pool.
    """

    sources: Tuple[str, ...]
    operators: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sources and not self.operators:
            raise FaultInjectionError("targets need at least one pool")

    @classmethod
    def from_graph(cls, graph: LogicalGraph) -> "CampaignTargets":
        """Sources plus the scalable (data-parallel, non-source,
        non-sink) operators of a logical graph."""
        return cls(
            sources=tuple(graph.sources()),
            operators=tuple(graph.scalable_operators()),
        )


class CampaignGenerator:
    """Seeded sampler mapping campaign indices to fault schedules.

    Determinism contract: ``CampaignGenerator(profile, targets, seed)``
    produces, for any campaign index ``k``, a schedule that is equal —
    event for event, seed included — across processes and platforms.
    The PRNG is seeded from the *string* ``"{profile.name}|{seed}|{k}"``
    (CPython hashes str seeds with SHA-512, which is stable, unlike
    ``hash()`` on strings).
    """

    def __init__(
        self,
        profile: CampaignProfile,
        targets: CampaignTargets,
        seed: int = 1,
    ) -> None:
        self._profile = profile
        self._targets = targets
        self._seed = int(seed)
        needed = set(profile.kinds)
        if (needed & {"crash", "corrupt", "corrupt-health"}
                and not targets.operators):
            raise FaultInjectionError(
                f"profile {profile.name!r} samples crashes/corruption "
                "but targets has no operators"
            )

    @property
    def profile(self) -> CampaignProfile:
        return self._profile

    @property
    def targets(self) -> CampaignTargets:
        return self._targets

    @property
    def seed(self) -> int:
        return self._seed

    def schedule(self, campaign: int) -> FaultSchedule:
        """Sample the fault schedule of campaign ``campaign``."""
        profile = self._profile
        rng = random.Random(
            f"{profile.name}|{self._seed}|{int(campaign)}"
        )
        span = profile.duration - profile.quiet_head
        count = max(
            1, round(profile.events_per_1000s * span / 1000.0)
        )
        times = self._sample_times(rng, count)
        kinds = rng.choices(
            profile.kinds,
            weights=[profile.mix[k] for k in profile.kinds],
            k=count,
        )
        events = [
            self._sample_event(rng, kind, time)
            for kind, time in zip(kinds, times)
        ]
        return FaultSchedule(events, seed=rng.getrandbits(31))

    def schedules(self, campaigns: int) -> List[FaultSchedule]:
        """Schedules for campaign indices ``0 .. campaigns-1``."""
        return [self.schedule(k) for k in range(int(campaigns))]

    # ------------------------------------------------------------------

    def _sample_times(
        self, rng: random.Random, count: int
    ) -> List[float]:
        profile = self._profile
        lo, hi = profile.quiet_head, profile.duration
        if profile.burstiness <= 1.0:
            return [rng.uniform(lo, hi) for _ in range(count)]
        bursts = max(1, round(count / profile.burstiness))
        centers = [rng.uniform(lo, hi) for _ in range(bursts)]
        # Each event lands near one burst center (σ = 20 s gaussian,
        # tight enough that a burst spans a policy interval or two),
        # clamped back into the campaign window.
        return [
            min(hi, max(lo, rng.choice(centers) + rng.gauss(0.0, 20.0)))
            for _ in range(count)
        ]

    def _sample_event(
        self, rng: random.Random, kind: str, time: float
    ) -> FaultEvent:
        profile = self._profile
        targets = self._targets
        if kind == "crash":
            return InstanceCrash(
                time=time,
                operator=rng.choice(targets.operators),
                index=rng.randint(0, profile.max_crash_index),
            )
        if kind == "dropout":
            pool = targets.sources + targets.operators
            return MetricDropout(
                time=time,
                duration=rng.uniform(*profile.dropout_seconds),
                operator=rng.choice(pool),
                fraction=rng.uniform(*profile.dropout_fraction),
            )
        if kind == "lag":
            return MetricLag(
                time=time, duration=rng.uniform(*profile.lag_seconds)
            )
        if kind == "corrupt":
            return MetricCorruption(
                time=time,
                duration=rng.uniform(*profile.corruption_seconds),
                operator=rng.choice(targets.operators),
                amplitude=rng.uniform(*profile.corruption_amplitude),
            )
        if kind == "corrupt-health":
            return HealthCorruption(
                time=time,
                duration=rng.uniform(*profile.corruption_seconds),
                operator=rng.choice(targets.operators),
                amplitude=rng.uniform(*profile.corruption_amplitude),
            )
        assert kind == "rescale-fail", kind
        return RescaleFailure(
            time=time,
            mode=rng.choice(profile.rescale_fail_modes),
            count=rng.randint(1, profile.max_rescale_failures),
        )


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

#: Weights combining scorecard components into the aggregate score.
#: Oscillations dominate (stability is the paper's first property);
#: steady-state error is scaled up because it lives in [0, 1];
#: settling is the cheapest sin. Downtime covers both reconfiguration
#: churn and crash recovery, so expensive recoveries and flapping both
#: hurt.
SCORE_WEIGHTS: Mapping[str, float] = {
    "oscillations": 1.0,
    "steady_state_error": 10.0,
    "settling_epochs": 0.1,
    "overshoot": 5.0,
    "downtime": 5.0,
}


@dataclass(frozen=True)
class SasoScorecard:
    """SASO scores of one controller's run under one campaign.

    Attributes:
        controller: Controller label.
        campaign: Campaign index within the generator.
        schedule_seed: The sampled schedule's own seed (identifies the
            exact fault stream that was replayed).
        oscillations: Total trajectory direction reversals across the
            scored operators (stability; 0 = monotone).
        steady_state_error: Mean relative shortfall of the *actually
            emitted* source rate vs the offered rate over the run's
            tail — how far the settled configuration falls short.
        settling_epochs: Policy epochs until the last scaling action.
        overshoot_ratio: Worst ``max/final`` parallelism across scored
            operators (1.0 = never above the endpoint).
        downtime_fraction: Fraction of the campaign the job was down
            (reconfigurations, failed-rescale timeouts, crash
            recovery) — from the metrics windows' outage accounting.
        recovery_seconds: Summed crash-recovery outages charged by the
            runtime's recovery model (subset of downtime).
        scaling_actions: Applied reconfigurations.
        failed_rescales: Rejected/timed-out reconfiguration attempts.
        audit: Summary of the run's per-decision audit records (how
            many invocations proposed / rescaled / skipped, degraded
            intervals, worst rate compensation), when the control loop
            recorded them. ``None`` for runs scored without audits.
    """

    controller: str
    campaign: int
    schedule_seed: int
    oscillations: int
    steady_state_error: float
    settling_epochs: int
    overshoot_ratio: float
    downtime_fraction: float
    recovery_seconds: float
    scaling_actions: int
    failed_rescales: int
    audit: Optional[AuditSummary] = None

    @property
    def score(self) -> float:
        """Aggregate SASO badness (lower is better), combining the
        components with :data:`SCORE_WEIGHTS`."""
        return (
            SCORE_WEIGHTS["oscillations"] * self.oscillations
            + SCORE_WEIGHTS["steady_state_error"] * self.steady_state_error
            + SCORE_WEIGHTS["settling_epochs"] * self.settling_epochs
            + SCORE_WEIGHTS["overshoot"]
            * max(0.0, self.overshoot_ratio - 1.0)
            + SCORE_WEIGHTS["downtime"] * self.downtime_fraction
        )


def score_campaign_run(
    run: ExperimentRun,
    *,
    controller: str,
    campaign: int,
    schedule: FaultSchedule,
    initial_parallelism: Mapping[str, int],
    policy_interval: float,
    target_rates: Mapping[str, float],
    duration: float,
    tail_seconds: float = 120.0,
) -> SasoScorecard:
    """Reduce one :class:`~repro.experiments.harness.ExperimentRun`
    under one fault schedule to a :class:`SasoScorecard`.

    ``initial_parallelism`` should cover exactly the operators to score
    (typically the scalable ones); ``target_rates`` is the offered load
    per source, compared against the *ground-truth* emitted rate (not
    the possibly fault-depressed telemetry) over the last
    ``tail_seconds``.
    """
    # Local import: repro.faults must stay importable without pulling
    # in the experiments layer (which itself imports repro.faults).
    from repro.experiments.saso import score_run

    reports = score_run(
        run.loop_result,
        initial_parallelism,
        operators=sorted(initial_parallelism),
    )
    oscillations = sum(r.direction_changes for r in reports.values())
    settling = max(
        (r.settling_time for r in reports.values()), default=0.0
    )
    overshoot = max(
        (r.overshoot_factor for r in reports.values()), default=1.0
    )
    error_terms: List[float] = []
    for source, target in sorted(target_rates.items()):
        if target <= 0:
            continue
        achieved = run.achieved_source_rate(source, tail_seconds)
        error_terms.append(max(0.0, 1.0 - achieved / target))
    steady_state_error = (
        sum(error_terms) / len(error_terms) if error_terms else 0.0
    )
    downtime = downtime_seconds(run.loop_result.windows)
    recovery = 0.0
    if run.injector is not None:
        recovery = sum(
            outage for _, outage in run.injector.crash_outages
        )
    audits = run.loop_result.audits
    audit = summarize_audits(audits) if audits else None
    return SasoScorecard(
        controller=controller,
        campaign=campaign,
        schedule_seed=schedule.seed,
        oscillations=oscillations,
        steady_state_error=steady_state_error,
        settling_epochs=int(math.ceil(settling / policy_interval)),
        overshoot_ratio=overshoot,
        downtime_fraction=min(1.0, downtime / duration),
        recovery_seconds=recovery,
        scaling_actions=run.loop_result.scaling_steps,
        failed_rescales=len(run.loop_result.failed_rescales),
        audit=audit,
    )


@dataclass(frozen=True)
class AggregateScore:
    """Per-controller means over a batch of campaign scorecards."""

    controller: str
    campaigns: int
    mean_score: float
    mean_oscillations: float
    mean_steady_state_error: float
    mean_settling_epochs: float
    mean_overshoot_ratio: float
    mean_downtime_fraction: float
    mean_recovery_seconds: float
    total_failed_rescales: int


def aggregate_scorecards(
    scorecards: Iterable[SasoScorecard],
) -> Dict[str, AggregateScore]:
    """Group scorecards by controller and average each component."""
    grouped: Dict[str, List[SasoScorecard]] = {}
    for card in scorecards:
        grouped.setdefault(card.controller, []).append(card)
    result: Dict[str, AggregateScore] = {}
    for controller, cards in grouped.items():
        n = len(cards)
        result[controller] = AggregateScore(
            controller=controller,
            campaigns=n,
            mean_score=sum(c.score for c in cards) / n,
            mean_oscillations=sum(c.oscillations for c in cards) / n,
            mean_steady_state_error=(
                sum(c.steady_state_error for c in cards) / n
            ),
            mean_settling_epochs=(
                sum(c.settling_epochs for c in cards) / n
            ),
            mean_overshoot_ratio=(
                sum(c.overshoot_ratio for c in cards) / n
            ),
            mean_downtime_fraction=(
                sum(c.downtime_fraction for c in cards) / n
            ),
            mean_recovery_seconds=(
                sum(c.recovery_seconds for c in cards) / n
            ),
            total_failed_rescales=sum(
                c.failed_rescales for c in cards
            ),
        )
    return result


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Canonical identity of one campaign cell: ``(generator seed, campaign
#: index, controller name)``. Executors return results merged by this
#: submission order, never completion order, so the scorecard list is
#: identical whichever backend ran it.
CellKey = Tuple[int, int, str]

#: Environment variable consulted when no explicit worker count is
#: given (``repro run chaos --jobs N`` wins over the environment).
JOBS_ENV_VAR = "REPRO_JOBS"


#: Controller-slot prefix of the chaos experiment's crash-recovery
#: replay cells, keyed ``(seed, campaign, "recovery:<runtime>")``.
RECOVERY_CELL_PREFIX = "recovery:"


def _cell_label(key: CellKey) -> str:
    seed, campaign, controller = key
    if controller.startswith(RECOVERY_CELL_PREFIX):
        runtime = controller[len(RECOVERY_CELL_PREFIX):]
        return (
            f"(seed={seed}, campaign={campaign}, "
            f"recovery replay on {runtime!r})"
        )
    return f"(seed={seed}, campaign={campaign}, controller={controller!r})"


@dataclass(frozen=True)
class CampaignCellSpec:
    """Everything one (seed × campaign × controller) cell needs to run.

    Specs are self-contained and must stay picklable — they cross
    process boundaries when the executor runs on a pool. In particular
    ``controller_factory`` must be a module-level callable or a
    :func:`functools.partial` of one; lambdas and closures do not
    pickle and fail at submission time with the cell named.

    ``initial_parallelism`` seeds the simulator; ``scored_parallelism``
    is the (usually scalable-only) subset the SASO scorer tracks.
    """

    seed: int
    campaign: int
    controller: str
    profile: str
    graph: LogicalGraph
    runtime: Runtime
    initial_parallelism: Mapping[str, int]
    controller_factory: Callable[[], object]
    policy_interval: float
    duration: float
    schedule: FaultSchedule
    scored_parallelism: Mapping[str, int]
    target_rates: Mapping[str, float]
    tail_seconds: float
    engine_config: Optional[EngineConfig] = None
    scalable_operators: Optional[Tuple[str, ...]] = None

    #: Journal field of a campaign cell's result (the cell contract;
    #: see :class:`~repro.faults.executor.CellSpec`).
    result_field = "scorecard"

    @property
    def key(self) -> CellKey:
        """The cell's canonical ``(seed, campaign, controller)`` key."""
        return (self.seed, self.campaign, self.controller)

    def fingerprint(self) -> str:
        """:func:`~repro.faults.checkpoint.cell_fingerprint`."""
        from repro.faults.checkpoint import cell_fingerprint

        return cell_fingerprint(self)

    def run(self) -> SasoScorecard:
        # The module global, read at call time: wrappers installed on
        # ``campaigns.run_campaign_cell`` see every in-process cell.
        return run_campaign_cell(self)


def run_campaign_cell(spec: CampaignCellSpec) -> SasoScorecard:
    """Run one campaign cell and reduce it to a scorecard.

    This is the whole per-cell body, as a top-level picklable function:
    fresh controller, fresh simulator, one fault schedule, one score.
    Per-cell engine/controller trace events are suppressed (each cell's
    simulator restarts at t = 0; see :meth:`CampaignRunner.run` for the
    cell-granularity trace the runner emits instead).
    """
    # Local import, same layering note as in score_campaign_run.
    from repro.experiments.harness import run_controlled

    with tracing(NULL_TRACER):
        run = run_controlled(
            graph=spec.graph,
            runtime=spec.runtime,
            initial_parallelism=dict(spec.initial_parallelism),
            controller=spec.controller_factory(),
            policy_interval=spec.policy_interval,
            duration=spec.duration,
            engine_config=spec.engine_config,
            scalable_operators=spec.scalable_operators,
            fault_schedule=spec.schedule,
        )
    return score_campaign_run(
        run,
        controller=spec.controller,
        campaign=spec.campaign,
        schedule=spec.schedule,
        initial_parallelism=spec.scored_parallelism,
        policy_interval=spec.policy_interval,
        target_rates=spec.target_rates,
        duration=spec.duration,
        tail_seconds=spec.tail_seconds,
    )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``$REPRO_JOBS``,
    else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise FaultInjectionError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if int(jobs) < 1:
        raise FaultInjectionError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


class CampaignRunner:
    """Executes campaigns × controllers and returns scorecards.

    Controllers are given as *factories* (``name -> () -> Controller``)
    because controller instances are stateful — every (campaign,
    controller) cell gets a fresh instance against a fresh simulator,
    so cells are fully independent and the whole matrix is replayable.
    Factories must be picklable (module-level functions or partials)
    when cells run on a process pool.

    ``scalable_operators`` optionally overrides which operators the
    control loop may size (e.g. every operator for Timely-style global
    scaling).
    """

    def __init__(
        self,
        *,
        graph: LogicalGraph,
        runtime: Runtime,
        initial_parallelism: Mapping[str, int],
        controllers: Mapping[str, Callable[[], object]],
        policy_interval: float,
        engine_config: Optional[EngineConfig] = None,
        tail_seconds: float = 120.0,
        scalable_operators: Optional[Sequence[str]] = None,
    ) -> None:
        if not controllers:
            raise FaultInjectionError("runner needs >= 1 controller")
        # An impossible starting parallelism fails here, as PlanError,
        # before the first (expensive) campaign cell rather than
        # mid-batch.
        PhysicalPlan(graph, initial_parallelism)
        self._graph = graph
        self._runtime = runtime
        self._initial = dict(initial_parallelism)
        self._controllers = dict(controllers)
        self._interval = policy_interval
        self._engine_config = engine_config
        self._tail = tail_seconds
        self._scalable = (
            tuple(scalable_operators)
            if scalable_operators is not None
            else None
        )

    def _targets_for(self, duration: float) -> Mapping[str, float]:
        """Offered load at the campaign horizon; exact for the
        constant-rate workloads campaigns default to."""
        rates: Dict[str, float] = {}
        for name in self._graph.sources():
            schedule = self._graph.operator(name).rate
            if schedule is None:
                # Not a bare assert: asserts vanish under `python -O`,
                # and the eventual TypeError deep inside scoring would
                # not name the offending operator.
                raise FaultInjectionError(
                    f"source {name!r} has no rate schedule, so a "
                    "campaign cannot score this graph"
                )
            rates[name] = schedule.rate_at(duration)
        return rates

    def cell_specs(
        self,
        generator: CampaignGenerator,
        campaigns: Union[int, Sequence[int]],
    ) -> List[CampaignCellSpec]:
        """The batch's cells in canonical order: campaign-major,
        controller-minor (insertion order of the mapping)."""
        if isinstance(campaigns, int):
            indices: Sequence[int] = range(campaigns)
        else:
            indices = campaigns
        duration = generator.profile.duration
        targets = dict(self._targets_for(duration))
        scored_names: Sequence[str] = (
            self._scalable
            if self._scalable is not None
            else self._graph.scalable_operators()
        )
        scored = {
            name: self._initial[name]
            for name in scored_names
            if name in self._initial
        }
        specs: List[CampaignCellSpec] = []
        for campaign in indices:
            schedule = generator.schedule(campaign)
            for name, factory in self._controllers.items():
                specs.append(
                    CampaignCellSpec(
                        seed=generator.seed,
                        campaign=int(campaign),
                        controller=name,
                        profile=generator.profile.name,
                        graph=self._graph,
                        runtime=self._runtime,
                        initial_parallelism=dict(self._initial),
                        controller_factory=factory,
                        policy_interval=self._interval,
                        duration=duration,
                        schedule=schedule,
                        scored_parallelism=dict(scored),
                        target_rates=targets,
                        tail_seconds=self._tail,
                        engine_config=self._engine_config,
                        scalable_operators=self._scalable,
                    )
                )
        return specs

    def execute(
        self,
        generator: CampaignGenerator,
        campaigns: Union[int, Sequence[int]],
        *,
        executor: Optional["CampaignExecutor"] = None,
    ) -> "CampaignOutcome":
        """Run every controller under every sampled campaign on
        ``executor`` (default: in-process, fail-fast) and trace it.

        ``campaigns`` is a count (indices ``0..n-1``) or an explicit
        sequence of campaign indices. Cells are ordered campaign-major,
        controller-minor (insertion order of the mapping), regardless of
        where they ran or in what order they finished.
        """
        if executor is None:
            # Local import: the executor module imports this one.
            from repro.faults.executor import CampaignExecutor

            executor = CampaignExecutor()
        if isinstance(campaigns, int):
            indices: Sequence[int] = range(campaigns)
        else:
            indices = campaigns
        specs = self.cell_specs(generator, indices)
        duration = generator.profile.duration
        profile = generator.profile.name
        total = len(specs)
        # Campaign-level observability: cells are traced at cell
        # granularity with a cumulative virtual-time axis (cell i ends
        # at (i+1) x duration), so a campaign trace stays monotone even
        # though every cell's own simulator restarts at t = 0. The
        # per-cell engine/controller events are suppressed for the same
        # reason — use a traced single run (``repro run faults
        # --trace``) for event-level detail. Emission happens *after*
        # the executor returns, walking specs in canonical order, so
        # the trace is byte-identical for any job count and for
        # resumed runs.
        tracer = active_tracer()
        if tracer.enabled:
            tracer.emit(
                "campaign.start",
                0.0,
                profile=profile,
                seed=generator.seed,
                campaigns=len(indices),
                controllers=sorted(self._controllers),
                cells=total,
            )
        outcome = executor.execute(specs)
        if not tracer.enabled:
            return outcome
        errors = {
            cell.key: cell.error
            for cell in outcome.coverage.quarantined_cells
        }
        for completed, spec in enumerate(specs, start=1):
            card = outcome.by_index.get(completed - 1)
            if card is not None:
                tracer.emit(
                    "campaign.cell",
                    completed * duration,
                    profile=profile,
                    campaign=spec.campaign,
                    controller=spec.controller,
                    completed=completed,
                    cells=total,
                    score=round(card.score, 6),
                    failed_rescales=card.failed_rescales,
                )
            else:
                tracer.emit(
                    "campaign.quarantine",
                    completed * duration,
                    profile=profile,
                    campaign=spec.campaign,
                    controller=spec.controller,
                    cells=total,
                    error=errors.get(spec.key, ""),
                )
        tracer.emit(
            "campaign.end",
            total * duration,
            profile=profile,
            cells=total,
        )
        return outcome

    def run(
        self,
        generator: CampaignGenerator,
        campaigns: Union[int, Sequence[int]],
        *,
        executor: Optional["CampaignExecutor"] = None,
    ) -> List[SasoScorecard]:
        """:meth:`execute`, returning every scorecard in canonical
        order; a quarantined cell is an error."""
        return self.execute(
            generator, campaigns, executor=executor
        ).require_complete()


def __getattr__(name: str) -> object:
    # perfbench/layers.py wraps SerialExecutor.run_cells; lazy because
    # the executor module imports this one.
    if name == "SerialExecutor":
        from repro.faults.executor import CampaignExecutor

        return CampaignExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AggregateScore",
    "CampaignCellSpec",
    "CampaignGenerator",
    "CampaignProfile",
    "CampaignRunner",
    "CampaignTargets",
    "CellKey",
    "FAULT_KINDS",
    "JOBS_ENV_VAR",
    "PROFILES",
    "RECOVERY_CELL_PREFIX",
    "SCORE_WEIGHTS",
    "SasoScorecard",
    "aggregate_scorecards",
    "resolve_jobs",
    "run_campaign_cell",
    "score_campaign_run",
]
