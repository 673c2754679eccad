"""A CPU-utilization threshold controller (the section 2 strawman).

The classic auto-scaling rule — "CPU utilization > high watermark =>
add an instance; < low watermark => remove one" — as used in various
production systems the paper surveys (Table 1). It is implemented here
as an ablation baseline: it needs threshold tuning per workload, takes
one small step at a time, and oscillates near the optimum, none of
which DS2 suffers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.controller import Controller, Observation
from repro.errors import PolicyError


@dataclass(frozen=True)
class ThresholdConfig:
    """Thresholds and step size of the utilization policy."""

    high_utilization: float = 0.8
    low_utilization: float = 0.4
    step: int = 1
    cooldown_intervals: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.low_utilization < self.high_utilization < 1.0:
            raise PolicyError(
                "need 0 < low_utilization < high_utilization < 1"
            )
        if self.step < 1:
            raise PolicyError("step must be >= 1")
        if self.cooldown_intervals < 0:
            raise PolicyError("cooldown_intervals must be >= 0")


class ThresholdController(Controller):
    """Per-operator additive-step threshold scaling."""

    name = "threshold"

    def __init__(self, config: Optional[ThresholdConfig] = None) -> None:
        self._config = config or ThresholdConfig()
        self._cooldown = 0

    @property
    def config(self) -> ThresholdConfig:
        return self._config

    def reset(self) -> None:
        self._cooldown = 0

    def on_metrics(
        self, observation: Observation
    ) -> Optional[Dict[str, int]]:
        if observation.in_outage or observation.window.outage_fraction > 0:
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        window = observation.window
        changes: Dict[str, int] = {}
        for name, current in observation.current_parallelism.items():
            utilization = window.cpu_utilization(name)
            if utilization > self._config.high_utilization:
                changes[name] = current + self._config.step
            elif utilization < self._config.low_utilization and current > 1:
                changes[name] = max(1, current - self._config.step)
        return changes or None

    def notify_rescaled(
        self,
        time: float,
        outage_seconds: float,
        new_parallelism: Mapping[str, int],
    ) -> None:
        self._cooldown = self._config.cooldown_intervals


__all__ = ["ThresholdConfig", "ThresholdController"]
