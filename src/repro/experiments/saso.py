"""SASO metrics: quantifying the paper's controller criteria.

Section 1 of the paper frames a good scaling controller by the SASO
properties from control theory (Hellerstein et al.):

* **Stability** — no oscillation between configurations;
* **Accuracy** — finding the optimal configuration;
* **Short settling time** — reaching it quickly;
* **no Overshoot** — never provisioning more than needed.

This module computes all four from a control-loop run, so experiments
can *score* controllers instead of eyeballing timelines — used by the
ablation benchmarks and available to downstream users comparing their
own policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.controller import LoopResult
from repro.errors import ReproError


@dataclass(frozen=True)
class SasoReport:
    """SASO scores for one controller run on one operator.

    Attributes:
        operator: The scored operator.
        settling_time: Virtual time of the last scaling action (0 if
            none) — how long until the configuration stopped changing.
        total_actions: Number of scaling actions involving the operator.
        direction_changes: Times the parallelism trajectory reversed
            direction (up->down or down->up). A monotone approach has 0;
            each reversal is an oscillation half-cycle.
        final_parallelism: Where the trajectory ended.
        optimal_parallelism: The known optimum (None if not supplied).
        max_parallelism: The trajectory's peak.
    """

    operator: str
    settling_time: float
    total_actions: int
    direction_changes: int
    final_parallelism: int
    optimal_parallelism: Optional[int]
    max_parallelism: int

    @property
    def stable(self) -> bool:
        """Stability: the trajectory never reversed direction."""
        return self.direction_changes == 0

    @property
    def accurate(self) -> bool:
        """Accuracy: ended exactly at the optimum (if known)."""
        if self.optimal_parallelism is None:
            raise ReproError("no optimum supplied for accuracy scoring")
        return self.final_parallelism == self.optimal_parallelism

    @property
    def overshoot_factor(self) -> float:
        """Peak provisioning relative to the final configuration;
        1.0 means the trajectory never exceeded where it settled."""
        if self.final_parallelism <= 0:
            return float("inf")
        return self.max_parallelism / self.final_parallelism

    @property
    def overshot(self) -> bool:
        """No-overshoot: did the trajectory ever exceed its endpoint?

        For scale-up scenarios this is the paper's Property 1; for
        scale-down trajectories a temporary dip below the endpoint
        would analogously be an undershoot, which
        :attr:`direction_changes` captures.
        """
        return self.max_parallelism > self.final_parallelism


def score_operator(
    result: LoopResult,
    operator: str,
    initial_parallelism: int,
    optimal_parallelism: Optional[int] = None,
) -> SasoReport:
    """Compute SASO metrics for one operator from a loop result."""
    trajectory: List[Tuple[float, int]] = [(0.0, initial_parallelism)]
    for event in result.events:
        value = event.applied.get(operator)
        if value is not None and value != trajectory[-1][1]:
            trajectory.append((event.time, value))
    values = [value for _, value in trajectory]
    direction_changes = 0
    last_direction = 0
    for previous, current in zip(values, values[1:]):
        direction = 1 if current > previous else -1
        if last_direction and direction != last_direction:
            direction_changes += 1
        last_direction = direction
    settling_time = trajectory[-1][0] if len(trajectory) > 1 else 0.0
    return SasoReport(
        operator=operator,
        settling_time=settling_time,
        total_actions=len(trajectory) - 1,
        direction_changes=direction_changes,
        final_parallelism=values[-1],
        optimal_parallelism=optimal_parallelism,
        max_parallelism=max(values),
    )


def score_run(
    result: LoopResult,
    initial_parallelism: Mapping[str, int],
    optimal_parallelism: Optional[Mapping[str, int]] = None,
    operators: Optional[Sequence[str]] = None,
) -> Dict[str, SasoReport]:
    """SASO reports for several operators of one run."""
    if operators is None:
        touched = set()
        for event in result.events:
            touched.update(event.applied)
        operators = sorted(
            touched & set(initial_parallelism)
        ) or sorted(initial_parallelism)
    reports: Dict[str, SasoReport] = {}
    for operator in operators:
        if operator not in initial_parallelism:
            raise ReproError(
                f"no initial parallelism for {operator!r}"
            )
        optimum = None
        if optimal_parallelism is not None:
            optimum = optimal_parallelism.get(operator)
        reports[operator] = score_operator(
            result,
            operator,
            initial_parallelism[operator],
            optimum,
        )
    return reports


__all__ = ["SasoReport", "score_operator", "score_run"]
