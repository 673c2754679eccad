"""A Dhalion-style scaling controller (Floratou et al., PVLDB 2017).

Dhalion is the state-of-the-art controller the DS2 paper compares
against (sections 1 and 5.2). Its policy is rule-based and driven by
coarse externally observed signals:

1. **Symptom detection** — a backpressure signal raised by the runtime
   when an operator's queue crosses a high-water mark (Heron raises it
   only once the 100 MiB queue is nearly full, which is why Dhalion is
   slow to react).
2. **Diagnosis** — the operator initiating backpressure (fullest queue)
   is the bottleneck.
3. **Resolution** — scale up *only that operator*, speculatively, by the
   ratio of its observed input demand to its observed processing rate
   plus enough headroom to drain the accumulated backlog.

Because the observed rates are suppressed by the very backpressure that
triggered the action, the factor underestimates the true demand, so
multiple rounds are needed; and because the backlog term is computed
from Heron's huge queues, the final round overshoots — the
over-provisioned end state of Figure 6. Configurations that yielded no
improvement are blacklisted so the controller never retries them.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.core.controller import Controller, Observation


#: Policy intervals to wait after an action before diagnosing again
#: (the system must stabilize and queues must re-fill before the
#: backpressure signal is trustworthy).
COOLDOWN_INTERVALS = 2
#: Upper clamp on the backpressure fraction before computing the
#: scale-up factor. Dhalion's resolver derives the factor from how long
#: the operator was backpressured, ``1/(1 - bp_fraction)``, which is
#: unbounded as the fraction approaches 1; the clamp caps the step at
#: ``1/(1 - 0.55)``, about 2.22x, keeping steps speculative and
#: conservative — the root cause of multi-step convergence.
BACKPRESSURE_CLAMP = 0.55
#: Lower bound on the multiplicative scale-up step.
MIN_SCALE_STEP = 1.2


class DhalionController(Controller):
    """Rule-based, backpressure-driven, single-operator controller.

    It only scales up, as in the paper's scale-up benchmark: an idle,
    over-provisioned operator keeps its parallelism."""

    name = "dhalion"

    def __init__(self) -> None:
        self._cooldown = 0
        # Highest parallelism already tried per operator that failed to
        # remove backpressure — never propose anything <= this again.
        self._blacklist_floor: Dict[str, int] = {}
        self._last_scaled: Optional[str] = None

    def reset(self) -> None:
        self._cooldown = 0
        self._blacklist_floor = {}
        self._last_scaled = None

    # ------------------------------------------------------------------
    # Controller interface
    # ------------------------------------------------------------------

    def on_metrics(
        self, observation: Observation
    ) -> Optional[Dict[str, int]]:
        if observation.in_outage or observation.window.outage_fraction > 0:
            return None
        if observation.window.truncated:
            # In-flight counters were lost mid-window (crash recovery);
            # the under-counted window would read as low throughput.
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        bottleneck = self._diagnose(observation)
        if bottleneck is None:
            return None
        return self._resolve_scale_up(observation, bottleneck)

    def notify_rescaled(
        self,
        time: float,
        outage_seconds: float,
        new_parallelism: Mapping[str, int],
    ) -> None:
        self._cooldown = COOLDOWN_INTERVALS

    # ------------------------------------------------------------------
    # Symptom detection & diagnosis
    # ------------------------------------------------------------------

    def _diagnose(self, observation: Observation) -> Optional[str]:
        """The operator *initiating* backpressure.

        An operator blocked by a slow downstream neighbour shows a full
        input queue too, so the fullest queue alone misdiagnoses: the
        initiator is a backpressured operator none of whose downstream
        operators is itself backpressured — i.e. the most downstream
        member of the backpressured set. Ties break on queue fill.
        """
        flagged = {
            name
            for name, health in observation.window.health.items()
            if health.backpressure
            and name in observation.current_parallelism
        }
        if not flagged:
            return None
        graph = observation.graph
        candidates = []
        for name in flagged:
            if graph is not None:
                blocked_by_downstream = any(
                    down in flagged for down in graph.downstream(name)
                )
                if blocked_by_downstream:
                    continue
            fill = observation.window.health[name].queue_fill
            candidates.append((fill, name))
        if not candidates:
            # Cycle-free graphs always leave at least one initiator,
            # but guard for graph-less observations.
            candidates = [
                (observation.window.health[name].queue_fill, name)
                for name in flagged
            ]
        candidates.sort(reverse=True)
        return candidates[0][1]

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _resolve_scale_up(
        self, observation: Observation, bottleneck: str
    ) -> Optional[Dict[str, int]]:
        """Dhalion's resolver: scale the bottleneck up by
        ``1 / (1 - backpressure_fraction)``, clamped and floored.

        The factor is derived purely from the externally observed
        backpressure duration — not from any notion of the operator's
        true capacity — which is why it systematically under- or
        over-shoots and needs several rounds to converge.
        """
        window = observation.window
        current = observation.current_parallelism[bottleneck]
        health = window.health[bottleneck]
        bp = min(health.backpressure_fraction, BACKPRESSURE_CLAMP)
        factor = max(1.0 / (1.0 - bp), MIN_SCALE_STEP)
        proposed = max(current + 1, math.ceil(current * factor))
        floor = self._blacklist_floor.get(bottleneck, 0)
        if self._last_scaled == bottleneck and current <= floor:
            # The previous attempt on this operator did not lift the
            # backpressure: blacklist it and move strictly beyond it.
            proposed = max(proposed, current + 1)
        self._blacklist_floor[bottleneck] = max(floor, current)
        self._last_scaled = bottleneck
        return {bottleneck: proposed}


__all__ = ["DhalionController"]
