"""Learning non-linear scaling curves (paper section 3.4, future work).

DS2 assumes perfect (linear) scaling: the aggregated true rate grows
proportionally with the instance count. Real operators scale
sub-linearly (coordination, channel selection, contention), which is
why DS2 sometimes needs a second and third refinement step. The paper
closes section 3.4 with: "Further reducing the number of steps requires
good approximation of non-linear rates, which could be gradually
learned by DS2 using machine learning techniques, opening an
interesting direction for future work."

This module implements that direction with a deliberately simple,
interpretable learner: every metrics window yields one observation
``(parallelism, per-instance true rate)`` per operator; fitting the
two-parameter law

    rate(p) = r1 / (1 + alpha * (p - 1))

by least squares over the transformed space (``r1/rate`` is affine in
``p``) gives the operator's base rate ``r1`` and coordination
coefficient ``alpha``. With the law in hand, Eq. 7's linear projection
is replaced by solving ``p * rate(p) >= target`` directly:

    p >= target * (1 - alpha) / (r1 - target * alpha)

so a single decision can jump to the optimum even under sub-linear
scaling. :class:`LearningDS2Controller` wraps the standard manager and
applies the correction once an operator has been observed at two or
more distinct parallelism levels.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.controller import Observation
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.errors import PolicyError


@dataclass(frozen=True)
class ScalingCurve:
    """A fitted ``rate(p) = r1 / (1 + alpha (p-1))`` law."""

    base_rate: float
    alpha: float
    observations: int

    def rate_at(self, parallelism: int) -> float:
        """Predicted per-instance true rate at ``parallelism``."""
        if parallelism < 1:
            raise PolicyError("parallelism must be >= 1")
        return self.base_rate / (1.0 + self.alpha * (parallelism - 1))

    def parallelism_for(self, target_rate: float) -> Optional[int]:
        """Minimum p with ``p * rate(p) >= target_rate``; None if the
        curve saturates below the target (no p suffices)."""
        if target_rate <= 0:
            return 1
        # p * r1 / (1 + alpha (p-1)) >= target
        # p r1 >= target + target alpha p - target alpha
        # p (r1 - target alpha) >= target (1 - alpha)
        denominator = self.base_rate - target_rate * self.alpha
        if denominator <= 0:
            # Aggregate throughput asymptotically approaches
            # r1/alpha < target: unreachable by scaling.
            return None
        raw = target_rate * (1.0 - self.alpha) / denominator
        return max(1, math.ceil(raw - 1e-9))


class ScalingCurveLearner:
    """Accumulates (parallelism, per-instance rate) observations per
    operator and fits scaling curves."""

    def __init__(self, min_distinct_levels: int = 2) -> None:
        if min_distinct_levels < 2:
            raise PolicyError("min_distinct_levels must be >= 2")
        self._min_levels = min_distinct_levels
        # operator -> parallelism -> list of observed per-instance rates
        self._samples: Dict[str, Dict[int, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )

    def observe(
        self, operator: str, parallelism: int, per_instance_rate: float
    ) -> None:
        """Record one measurement."""
        if parallelism < 1:
            raise PolicyError("parallelism must be >= 1")
        if per_instance_rate <= 0:
            return
        self._samples[operator][parallelism].append(per_instance_rate)

    def observations(self, operator: str) -> int:
        return sum(
            len(rates) for rates in self._samples[operator].values()
        )

    def curve_for(self, operator: str) -> Optional[ScalingCurve]:
        """The fitted curve, or None before enough distinct levels
        have been observed."""
        by_level = self._samples.get(operator)
        if not by_level or len(by_level) < self._min_levels:
            return None
        # Average repeated measurements per level, then fit
        # 1/rate = (1/r1) + (alpha/r1) (p - 1): affine in p.
        points = [
            (p, sum(rates) / len(rates))
            for p, rates in sorted(by_level.items())
        ]
        xs = [float(p - 1) for p, _ in points]
        ys = [1.0 / rate for _, rate in points]
        n = len(points)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x <= 0:
            return None
        cov = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        slope = cov / var_x
        intercept = mean_y - slope * mean_x
        if intercept <= 0:
            return None
        base_rate = 1.0 / intercept
        alpha = max(0.0, slope * base_rate)
        total = sum(len(r) for r in by_level.values())
        return ScalingCurve(
            base_rate=base_rate, alpha=alpha, observations=total
        )


class LearningDS2Controller(DS2Controller):
    """DS2 with learned non-linear scaling curves.

    Behaves exactly like :class:`DS2Controller` until an operator has
    been observed at two or more parallelism levels; from then on, that
    operator's decision is corrected with its fitted curve, which lets
    far-from-optimal starting points reach the optimum in fewer steps.
    """

    name = "ds2-learning"

    def __init__(
        self,
        policy: DS2Policy,
        config: Optional[ManagerConfig] = None,
        learner: Optional[ScalingCurveLearner] = None,
    ) -> None:
        super().__init__(policy, config)
        self.learner = learner or ScalingCurveLearner()

    def on_metrics(
        self, observation: Observation
    ) -> Optional[Dict[str, int]]:
        self._learn_from(observation)
        decision = super().on_metrics(observation)
        if decision is None:
            return None
        corrected = self._correct(decision)
        current = {
            name: observation.current_parallelism[name]
            for name in corrected
        }
        if corrected == current:
            return None
        return corrected

    def _learn_from(self, observation: Observation) -> None:
        if observation.in_outage or (
            observation.window.outage_fraction > 0
        ):
            return
        window = observation.window
        for name in window.operators():
            if name not in observation.current_parallelism:
                continue
            aggregated = window.aggregated_true_processing_rate(name)
            if aggregated is None or aggregated <= 0:
                continue
            parallelism = window.parallelism_of(name)
            self.learner.observe(
                name, parallelism, aggregated / parallelism
            )

    def _correct(self, decision: Dict[str, int]) -> Dict[str, int]:
        evaluation = (
            self.last_decision.evaluation if self.last_decision else None
        )
        if evaluation is None:
            return decision
        corrected = dict(decision)
        for name in decision:
            estimate = evaluation.estimates.get(name)
            if estimate is None:
                continue
            curve = self.learner.curve_for(name)
            if curve is None:
                continue
            learned = curve.parallelism_for(estimate.target_rate)
            if learned is not None:
                corrected[name] = learned
        return corrected


__all__ = [
    "LearningDS2Controller",
    "ScalingCurve",
    "ScalingCurveLearner",
]
