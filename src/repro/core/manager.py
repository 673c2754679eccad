"""The DS2 scaling manager (paper sections 4.2.1-4.2.2).

Wraps the pure scaling policy with the operational logic a real
deployment needs:

* **Policy interval** — how often metrics are gathered and the policy
  invoked (owned by the control loop; the manager sees one observation
  per interval).
* **Warm-up time** — a number of consecutive policy intervals ignored
  after a scaling action, since rates are unstable right after a
  redeploy. Windows overlapping a reconfiguration outage are always
  ignored.
* **Activation time** — the number of consecutive policy decisions
  aggregated (median per operator) before a scaling command is
  issued, smoothing out irregular computations such as tumbling windows.
* **Target rate ratio** — the maximum tolerated shortfall between the
  achieved source rate and the target rate. If the model considers the
  current configuration optimal but the job still cannot reach the
  target (overheads not captured by instrumentation: coordination,
  channel selection, contention), the manager scales the next decision
  by ``target/achieved``.
* **Minor-change suppression** — optionally ignore decisions that move
  an operator by at most N instances (noise guard; off by default).
* **Rollback** — if performance degraded after a scaling action, revert
  to the previous configuration.
* **Skew guard** — no target-rate compensation while per-instance
  metrics show a hot-key signature, which more instances cannot fix.
* **Decision limit** — bound the number of consecutive scaling actions
  that yield no improvement (e.g. under data skew, which scaling cannot
  fix), guaranteeing convergence.

The manager is additionally hardened against the partial failures a
production metrics pipeline exhibits (crashes, reporter dropout,
lagging collection):

* **Truncated windows** — windows whose reporting instance set was
  replaced mid-window (crash recovery, redeploy) under-count activity
  and are skipped like outage windows.
* **Stale-window guard** — decisions are skipped (and counted) when the
  observed window ended more than ``max_window_age_intervals`` policy
  intervals ago, as happens when the metrics pipeline lags and
  re-delivers old windows.
* **Completeness compensation** — monitored source rates and achieved
  rates are scaled up by ``1 / completeness`` when a fraction of an
  operator's instances stopped reporting, instead of silently treating
  the missing telemetry as a drop in load (which would trigger the
  exact spurious scale-down oscillation DS2 exists to prevent).
* **Degraded mode** — when any operator's completeness drops below
  ``min_completeness``, the compensated rates are too extrapolated to
  trust and the manager freezes scaling, holding the last good
  configuration until the metrics recover.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.core.controller import Controller, Observation
from repro.core.policy import DS2Policy, PolicyDecision
from repro.errors import PolicyError, StaleMetricsError
from repro.metrics import MetricsWindow

#: A rollback reverts the previous action when the achieved source rate
#: fell below this fraction of its value before the action (and misses
#: the target).
DEGRADATION_FACTOR = 0.8
#: Upper bound on the target-rate compensation multiplier.
MAX_RATE_COMPENSATION = 2.0
#: The skew signature (section 4.2.3): an operator's hottest instance
#: at least this utilized...
SKEW_SATURATION_THRESHOLD = 0.9
#: ...and at least this many times the operator's mean utilization.
SKEW_IMBALANCE_THRESHOLD = 1.15


@dataclass(frozen=True)
class ManagerConfig:
    """Operational knobs of the scaling manager.

    Defaults mirror the paper's Flink experiments (section 5.3):
    30 s warm-up at a 10 s policy interval is ``warmup_intervals=3``.
    The first three fields are the paper's manager knobs (section
    4.2); experiments and benchmarks set warm-up, activation,
    ``suppress_minor_change`` and ``max_useless_decisions`` to several
    values, and the legacy DS2 contender turns the three hardening
    fields off. Everything else the manager does is fixed (see the
    module constants).
    """

    warmup_intervals: int = 0
    activation_intervals: int = 1
    target_ratio: float = 1.0
    suppress_minor_change: int = 0
    max_useless_decisions: Optional[int] = None
    #: Freeze scaling while any operator's reporting completeness is
    #: below this floor (degraded mode); 0 disables the floor.
    min_completeness: float = 0.5
    #: Scale monitored source rates (target and achieved) up by
    #: ``1 / completeness`` when source telemetry is partially dropped,
    #: instead of mistaking the dropout for a load decrease. False
    #: reproduces the legacy failure mode (spurious scale-down).
    completeness_compensation: bool = True
    #: Skip windows that ended more than this many policy intervals
    #: before the observation time (lagging metrics pipeline). None
    #: disables the guard.
    max_window_age_intervals: Optional[int] = 2

    def __post_init__(self) -> None:
        if not self.warmup_intervals >= 0:
            raise PolicyError("warmup_intervals must be >= 0")
        if not self.activation_intervals >= 1:
            raise PolicyError("activation_intervals must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise PolicyError("target_ratio must be in (0, 1]")
        if not self.suppress_minor_change >= 0:
            raise PolicyError("suppress_minor_change must be >= 0")
        if (
            self.max_useless_decisions is not None
            and not self.max_useless_decisions >= 1
        ):
            raise PolicyError("max_useless_decisions must be >= 1")
        if not 0.0 <= self.min_completeness <= 1.0:
            raise PolicyError("min_completeness must be in [0, 1]")
        if (
            self.max_window_age_intervals is not None
            and not self.max_window_age_intervals >= 1
        ):
            raise PolicyError("max_window_age_intervals must be >= 1")


class DS2Controller(Controller):
    """DS2: the scaling policy plus the scaling manager."""

    name = "ds2"

    def __init__(
        self, policy: DS2Policy, config: Optional[ManagerConfig] = None
    ) -> None:
        self._policy = policy
        self._config = config or ManagerConfig()
        self._pending: Deque[Dict[str, int]] = deque(
            maxlen=self._config.activation_intervals
        )
        # Warm-up also applies at job start: rate measurements are
        # unstable while buffers fill (section 4.2.1).
        self._warmup_remaining = self._config.warmup_intervals
        self._rate_compensation = 1.0
        self._useless_decisions = 0
        self._frozen = False
        self._previous_parallelism: Optional[Dict[str, int]] = None
        self._achieved_before_action: Optional[float] = None
        self._last_decision: Optional[PolicyDecision] = None
        self._degraded = False
        self._degraded_intervals = 0
        self._stale_windows_skipped = 0
        self._last_skip_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection (used by experiments and tests)
    # ------------------------------------------------------------------

    @property
    def config(self) -> ManagerConfig:
        return self._config

    @property
    def policy(self) -> DS2Policy:
        return self._policy

    @property
    def rate_compensation(self) -> float:
        """Current target-rate compensation multiplier (>= 1)."""
        return self._rate_compensation

    @property
    def frozen(self) -> bool:
        """True once the decision limit stopped further scaling."""
        return self._frozen

    @property
    def last_decision(self) -> Optional[PolicyDecision]:
        return self._last_decision

    @property
    def degraded(self) -> bool:
        """True while scaling is frozen by the completeness floor."""
        return self._degraded

    @property
    def degraded_intervals(self) -> int:
        """Policy intervals spent in degraded mode so far."""
        return self._degraded_intervals

    @property
    def stale_windows_skipped(self) -> int:
        """Windows rejected by the stale-window guard so far."""
        return self._stale_windows_skipped

    @property
    def last_skip_reason(self) -> Optional[str]:
        """Why the latest invocation declined to evaluate the model
        (``frozen`` / ``outage`` / ``truncated-window`` /
        ``stale-window`` / ``degraded`` / ``warmup``), or None when the
        policy was evaluated. Decision audits attach this so "why did
        DS2 do nothing here" is answerable without a debugger."""
        return self._last_skip_reason

    def reset(self) -> None:
        self._pending.clear()
        self._warmup_remaining = self._config.warmup_intervals
        self._rate_compensation = 1.0
        self._useless_decisions = 0
        self._frozen = False
        self._previous_parallelism = None
        self._achieved_before_action = None
        self._last_decision = None
        self._degraded = False
        self._degraded_intervals = 0
        self._stale_windows_skipped = 0
        self._last_skip_reason = None

    # ------------------------------------------------------------------
    # Controller interface
    # ------------------------------------------------------------------

    def on_metrics(
        self, observation: Observation
    ) -> Optional[Dict[str, int]]:
        self._last_skip_reason = None
        if self._frozen:
            self._last_skip_reason = "frozen"
            return None
        window = observation.window
        if observation.in_outage or window.outage_fraction > 0.0:
            # The job was (partly) down: rates are meaningless.
            self._last_skip_reason = "outage"
            return None
        if window.truncated:
            # In-flight counters were discarded mid-window (crash
            # recovery, redeploy): the window under-counts activity.
            self._last_skip_reason = "truncated-window"
            return None
        try:
            self._check_fresh(observation)
        except StaleMetricsError:
            self._stale_windows_skipped += 1
            self._last_skip_reason = "stale-window"
            return None
        if self._below_completeness_floor(window):
            # Too much telemetry is missing to extrapolate: freeze and
            # hold the last good configuration until metrics recover.
            self._degraded = True
            self._degraded_intervals += 1
            self._last_skip_reason = "degraded"
            return None
        self._degraded = False
        if self._warmup_remaining > 0:
            self._warmup_remaining -= 1
            self._last_skip_reason = "warmup"
            return None

        source_rates = self._compensated_source_rates(observation)
        achieved = self._achieved_rate(observation, window)
        target = sum(source_rates.values())

        rollback = self._maybe_rollback(achieved, target)
        if rollback is not None:
            return rollback

        decision = self._policy.decide(
            window=window,
            source_rates=source_rates,
            rate_compensation=self._rate_compensation,
        )
        self._last_decision = decision
        if not decision.actionable:
            return None

        self._pending.append(decision.parallelism)
        if len(self._pending) < self._config.activation_intervals:
            return None
        aggregated = self._aggregate_pending()
        self._pending.clear()

        current = {
            name: observation.current_parallelism[name]
            for name in aggregated
        }
        aggregated = self._suppress_minor(aggregated, current)

        if aggregated == current:
            if target > 0 and achieved >= target * self._config.target_ratio:
                # Converged and healthy. Any previously learned
                # compensation is no longer needed: at the current
                # parallelism the *measured* true rates already include
                # every real overhead, so the un-compensated model is
                # exact here and resetting cannot trigger a downsize.
                self._rate_compensation = 1.0
                self._useless_decisions = 0
                return None
            # Model says the current configuration is optimal but the
            # source still cannot reach the target rate: the shortfall
            # comes from overheads the instrumentation cannot see;
            # compensate (section 4.2.1, "target rate ratio").
            compensated = self._maybe_compensate(
                observation, source_rates, achieved, target
            )
            if compensated is not None and compensated != current:
                self._record_action(observation, achieved)
                return compensated
            return None

        self._record_action(observation, achieved)
        return aggregated

    def notify_rescaled(
        self,
        time: float,
        outage_seconds: float,
        new_parallelism: Mapping[str, int],
    ) -> None:
        self._warmup_remaining = self._config.warmup_intervals
        self._pending.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_fresh(self, observation: Observation) -> None:
        """Raise :class:`StaleMetricsError` when the window is older
        than the configured freshness bound (a lagging metrics pipeline
        re-delivering windows that no longer describe the present)."""
        limit = self._config.max_window_age_intervals
        if limit is None:
            return
        window = observation.window
        interval = window.duration
        if interval <= 0:
            return
        age = observation.time - window.end
        if age > limit * interval + 1e-9:
            raise StaleMetricsError(
                f"window [{window.start:.1f}, {window.end:.1f}] is "
                f"{age:.1f}s old at t={observation.time:.1f} "
                f"(limit: {limit} x {interval:.1f}s interval)"
            )

    def _below_completeness_floor(self, window: MetricsWindow) -> bool:
        floor = self._config.min_completeness
        if floor <= 0.0:
            return False
        return any(
            fraction < floor - 1e-9
            for fraction in window.completeness.values()
        )

    def _compensated_source_rates(
        self, observation: Observation
    ) -> Dict[str, float]:
        """Monitored source target rates, scaled up by 1/completeness
        per source when source telemetry is partially dropped. The
        external rate monitor samples the same reporters as the metrics
        pipeline, so a half-reporting source shows half its true rate —
        which legacy mode mistakes for a halved load."""
        rates = dict(observation.source_target_rates)
        if not self._config.completeness_compensation:
            return rates
        window = observation.window
        for name in rates:
            fraction = window.completeness_of(name)
            if 0.0 < fraction < 1.0:
                rates[name] /= fraction
        return rates

    def _achieved_rate(
        self, observation: Observation, window: MetricsWindow
    ) -> float:
        """Total observed source output rate over the window, with the
        same completeness compensation as the target rates (so a
        dropout does not read as a throughput collapse)."""
        total = 0.0
        compensate = self._config.completeness_compensation
        for name in observation.source_target_rates:
            observed = window.source_observed_rates.get(name, 0.0)
            if compensate:
                fraction = window.completeness_of(name)
                if 0.0 < fraction < 1.0:
                    observed /= fraction
            total += observed
        return total

    def _aggregate_pending(self) -> Dict[str, int]:
        """Median parallelism per operator across the activation
        window's decisions."""
        operators = self._pending[-1].keys()
        aggregated: Dict[str, int] = {}
        for name in operators:
            values = [d[name] for d in self._pending if name in d]
            aggregated[name] = int(round(statistics.median(values)))
        return aggregated

    def _suppress_minor(
        self, desired: Dict[str, int], current: Dict[str, int]
    ) -> Dict[str, int]:
        threshold = self._config.suppress_minor_change
        if threshold <= 0:
            return desired
        result = dict(desired)
        for name, value in desired.items():
            if abs(value - current[name]) <= threshold:
                result[name] = current[name]
        return result

    def detect_skewed_operators(
        self, observation: Observation
    ) -> Tuple[str, ...]:
        """Operators whose per-instance metrics show a hot-instance
        signature (the paper's skew detector, Figure 5): one instance
        saturated while the operator's mean utilization lags behind.

        A balanced under-provisioned operator saturates *every*
        instance (ratio near 1) and is not flagged.
        """
        window = observation.window
        skewed = []
        for name in observation.current_parallelism:
            if name not in window.operators():
                continue
            if window.parallelism_of(name) < 2:
                continue
            peak, ratio = window.utilization_imbalance(name)
            if (
                peak >= SKEW_SATURATION_THRESHOLD
                and ratio >= SKEW_IMBALANCE_THRESHOLD
            ):
                skewed.append(name)
        return tuple(sorted(skewed))

    def _maybe_compensate(
        self,
        observation: Observation,
        source_rates: Mapping[str, float],
        achieved: float,
        target: float,
    ) -> Optional[Dict[str, int]]:
        if target <= 0 or achieved <= 0:
            return None
        if achieved >= target * self._config.target_ratio - 1e-9:
            return None
        if self.detect_skewed_operators(observation):
            # The shortfall comes from data imbalance, which additional
            # parallelism cannot fix: do not inflate the target. Count
            # the stalled decision so the limiter eventually freezes
            # further reconfiguration (section 4.2.2).
            self._useless_decisions += 1
            limit = self._config.max_useless_decisions
            if limit is not None and self._useless_decisions >= limit:
                self._frozen = True
            return None
        factor = min(target / achieved, MAX_RATE_COMPENSATION)
        if factor <= self._rate_compensation + 1e-6:
            # Compensation already applied and did not help; count it as
            # a useless decision (possible skew/straggler, which scaling
            # cannot fix — section 4.2.2).
            self._useless_decisions += 1
            limit = self._config.max_useless_decisions
            if limit is not None and self._useless_decisions >= limit:
                self._frozen = True
            return None
        self._rate_compensation = factor
        decision = self._policy.decide(
            window=observation.window,
            source_rates=source_rates,
            rate_compensation=self._rate_compensation,
        )
        self._last_decision = decision
        if not decision.actionable:
            return None
        return decision.parallelism

    def _maybe_rollback(
        self, achieved: float, target: float
    ) -> Optional[Dict[str, int]]:
        """Revert the previous action if it degraded throughput.

        Degradation means the achieved source rate both dropped
        materially versus before the action *and* misses the target —
        a lower achieved rate after a scale-down under a lower target
        is the expected outcome, not a regression.
        """
        if (
            self._previous_parallelism is None
            or self._achieved_before_action is None
        ):
            return None
        before = self._achieved_before_action
        previous = self._previous_parallelism
        self._achieved_before_action = None
        self._previous_parallelism = None
        degraded = (
            before > 0
            and achieved < before * DEGRADATION_FACTOR
            and achieved < target * self._config.target_ratio
        )
        if degraded:
            self._frozen = False
            self._useless_decisions = 0
            return previous
        return None

    def _record_action(
        self, observation: Observation, achieved: float
    ) -> None:
        self._previous_parallelism = {
            name: observation.current_parallelism[name]
            for name in observation.current_parallelism
        }
        self._achieved_before_action = achieved


__all__ = ["DS2Controller", "ManagerConfig"]
