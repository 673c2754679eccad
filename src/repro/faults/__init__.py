"""Deterministic fault injection for the simulated control loop.

The subsystem has four parts: declarative, validated fault *events*
(:mod:`repro.faults.events`), a seeded, replayable *schedule* of them
(:mod:`repro.faults.schedule`), an *injector* shim that applies a
schedule to a live simulator without forking it
(:mod:`repro.faults.injector`), and seeded chaos *campaigns* that
sample many schedules from a declarative profile and score controllers
under them (:mod:`repro.faults.campaigns`). Campaigns become
crash-safe through :mod:`repro.faults.checkpoint`, a durable journal
of completed cells, and run on the one campaign executor,
:mod:`repro.faults.executor`: in-process or on a process pool, with
optional per-cell timeouts, bounded retry, and quarantine.
"""

from repro.faults.events import (
    FaultEvent,
    HealthCorruption,
    InstanceCrash,
    MetricCorruption,
    MetricDropout,
    MetricLag,
    RescaleFailure,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, parse_faults

# Imported last: campaigns lazily reaches into repro.experiments, which
# itself imports the names above.
from repro.faults.campaigns import (
    FAULT_KINDS,
    JOBS_ENV_VAR,
    PROFILES,
    SCORE_WEIGHTS,
    AggregateScore,
    CampaignCellSpec,
    CampaignGenerator,
    CampaignProfile,
    CampaignRunner,
    CampaignTargets,
    CellKey,
    SasoScorecard,
    aggregate_scorecards,
    resolve_jobs,
    run_campaign_cell,
    score_campaign_run,
)
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointJournal,
    JournalCell,
    JournalHeader,
    cell_fingerprint,
)
from repro.faults.executor import (
    CampaignCoverage,
    CampaignExecutor,
    CampaignInterrupted,
    CampaignOutcome,
    CellRetryPolicy,
    QuarantinedCell,
)

__all__ = [
    "AggregateScore",
    "CHECKPOINT_VERSION",
    "CampaignCellSpec",
    "CampaignCoverage",
    "CampaignExecutor",
    "CampaignGenerator",
    "CampaignInterrupted",
    "CampaignOutcome",
    "CampaignProfile",
    "CampaignRunner",
    "CampaignTargets",
    "CellKey",
    "CellRetryPolicy",
    "CheckpointJournal",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "HealthCorruption",
    "FaultSchedule",
    "InstanceCrash",
    "JOBS_ENV_VAR",
    "JournalCell",
    "JournalHeader",
    "MetricCorruption",
    "MetricDropout",
    "MetricLag",
    "PROFILES",
    "QuarantinedCell",
    "RescaleFailure",
    "SCORE_WEIGHTS",
    "SasoScorecard",
    "aggregate_scorecards",
    "cell_fingerprint",
    "parse_faults",
    "resolve_jobs",
    "run_campaign_cell",
    "score_campaign_run",
]
