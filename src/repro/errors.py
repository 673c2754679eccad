"""Exception hierarchy for the DS2 reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class. Subclasses are organized by subsystem:
graph construction, physical planning, engine execution, and controller
policy evaluation. :class:`CampaignInterrupted` lives here too, so the
CLI can catch it without importing the campaign executor.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for invalid logical dataflow graphs (cycles, dangling edges,
    missing sources/sinks, duplicate operator names)."""


class PlanError(ReproError):
    """Raised for invalid physical plans (non-positive parallelism,
    parallelism above runtime limits, unknown operators)."""


class EngineError(ReproError):
    """Raised for invalid engine configurations or broken invariants
    detected during simulation (e.g. negative queue length)."""


class PolicyError(ReproError):
    """Raised when a scaling policy cannot produce a decision
    (e.g. malformed metrics, unknown operators in a metrics report)."""


class MetricsError(ReproError):
    """Raised for malformed or inconsistent instrumentation metrics
    (e.g. useful time exceeding the observation window)."""


class ReconfigurationError(ReproError):
    """Raised when a rescaling action cannot be applied to a running job."""


class FaultInjectionError(ReproError):
    """Raised for invalid fault-injection requests (malformed fault
    specs, events targeting unknown operators or instances, schedules
    with negative times or empty durations)."""


class StaleMetricsError(ReproError):
    """Raised when a controller is asked to act on a metrics window that
    is older than its configured freshness bound (e.g. the reporting
    pipeline lagged and re-delivered an already-seen window)."""


class CheckpointError(ReproError):
    """Raised for unusable campaign checkpoints (mid-file corruption,
    schema-version or header mismatches, cells recorded under a
    different campaign configuration, unreadable journal files)."""


class SweepError(ReproError):
    """Raised for invalid parameter-sweep specifications (unknown axes,
    axis values outside their domain, explicit cells naming unknown
    controllers/runtimes/profiles, unreadable spec files)."""


class TelemetryError(ReproError):
    """Raised for invalid telemetry requests (malformed metric names,
    duplicate registrations with conflicting types, negative counter
    increments, unparseable trace files)."""


class CampaignInterrupted(Exception):
    """A campaign was stopped by SIGINT/SIGTERM.

    Not a :class:`ReproError`: an interrupt is the user stopping a
    sound run, and the CLI exits 130 for it rather than 2.
    ``completed``/``cells`` say how far the run got; ``path`` names the
    journal to resume from (``None`` when the run had no checkpoint).
    """

    def __init__(
        self,
        message: str,
        *,
        completed: int,
        cells: int,
        path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.completed = completed
        self.cells = cells
        self.path = path
