"""The DS2 performance model (paper section 3.2).

Given a logical dataflow graph, the externally monitored source rates,
and the instrumented true processing/output rates of every operator
instance, the model computes the optimal parallelism of every operator
in a single traversal of the graph:

* Eq. 1-4 (true and observed rates per instance) live on
  :class:`repro.metrics.InstanceCounters`.
* Eq. 5-6 (aggregated true rates per operator) live on
  :class:`repro.metrics.MetricsWindow`.
* Eq. 8 (the ideal aggregated true output rate ``o_j[λo]*`` when every
  upstream operator keeps up) and Eq. 7 (the optimal parallelism
  ``π_i``) are implemented here by :func:`compute_optimal_parallelism`.

The model is pure: it never touches the engine, only a metrics window
and the static graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.dataflow.graph import LogicalGraph
from repro.errors import PolicyError
from repro.metrics import MetricsWindow


@dataclass(frozen=True)
class OperatorEstimate:
    """Per-operator output of one model evaluation.

    Attributes:
        true_processing_rate: Aggregated ``o_i[λp]`` over the window
            (records per second of useful time), or None if unknown.
        true_output_rate: Aggregated ``o_i[λo]``, or None if unknown.
        selectivity: ``o_i[λo]/o_i[λp]`` used in Eq. 8.
        ideal_output_rate: ``o_i[λo]*`` — output rate if this operator
            and everything upstream kept up with their inputs.
        target_rate: The input rate the operator must sustain
            (``Σ_j A_ji · o_j[λo]*``).
        current_parallelism: ``p_i`` during the window.
        optimal_parallelism_raw: ``π_i`` before the ceiling.
        optimal_parallelism: ``π_i`` (Eq. 7), ceiling applied, >= 1.
    """

    true_processing_rate: Optional[float]
    true_output_rate: Optional[float]
    selectivity: float
    ideal_output_rate: float
    target_rate: float
    current_parallelism: int
    optimal_parallelism_raw: float
    optimal_parallelism: int


@dataclass(frozen=True)
class ModelEvaluation:
    """The result of evaluating the DS2 model on one metrics window."""

    estimates: Mapping[str, OperatorEstimate]
    unknown_operators: Tuple[str, ...]

    def parallelism(self) -> Dict[str, int]:
        """Optimal parallelism per non-source operator."""
        return {
            name: est.optimal_parallelism
            for name, est in self.estimates.items()
        }

    def global_parallelism(self) -> int:
        """Total workers for Timely-style global-parallelism systems:
        the sum of per-operator optima (section 4.3). Raw (pre-ceiling)
        values are summed and the ceiling is applied once, since workers
        are shared by all operators."""
        total = sum(
            est.optimal_parallelism_raw for est in self.estimates.values()
        )
        return max(1, math.ceil(total - 1e-9))


def compute_optimal_parallelism(
    graph: LogicalGraph,
    window: MetricsWindow,
    source_rates: Mapping[str, float],
    rate_compensation: float = 1.0,
    completeness_scaling: bool = True,
) -> ModelEvaluation:
    """Evaluate Eq. 7/8 for every non-source operator of ``graph``.

    Args:
        graph: The static logical dataflow graph.
        window: A metrics window with counters for every instance.
        source_rates: The externally monitored output rate of each
            source operator (``λ_src``) — in a live deployment this is
            the *target* rate the physical plan must sustain.
        rate_compensation: Multiplier (>= 1) applied to every target
            rate; the scaling manager uses it to compensate for
            overheads not captured by instrumentation (the "target rate
            ratio" knob of section 4.2.1).
        completeness_scaling: When True (the hardened default), an
            operator whose window is incomplete — fewer instances
            reported than are deployed, e.g. under metric dropout — has
            its aggregated true rates scaled up by
            ``deployed / reported`` (each missing instance is imputed
            at its reporting siblings' mean) and Eq. 7 divides by the
            *deployed* parallelism. When False (legacy behaviour), the
            model sees only the reporting instances and treats the
            deployed parallelism as whatever reported, which makes
            dropout indistinguishable from a scale-down.

    Operators whose true rates are unknown (no useful time recorded in
    the window — e.g. an operator that never received data, or one
    whose instances all dropped out) keep their current parallelism and
    propagate their *measured* record-count selectivity if available,
    else selectivity 1. They are reported in ``unknown_operators`` so
    callers can postpone acting on the decision.
    """
    if rate_compensation < 1.0:
        raise PolicyError("rate_compensation must be >= 1")
    order = graph.topological_order()
    missing_sources = [
        name for name in graph.sources() if name not in source_rates
    ]
    if missing_sources:
        raise PolicyError(
            f"missing source rates for {missing_sources}"
        )

    ideal_output: Dict[str, float] = {}
    estimates: Dict[str, OperatorEstimate] = {}
    unknown: Set[str] = set()

    for name in order:
        spec = graph.operator(name)
        if spec.is_source:
            # Eq. 8, base case: o_j[λo]* = λ_src.
            ideal_output[name] = source_rates[name] * rate_compensation
            continue

        target_rate = sum(
            ideal_output[up] for up in graph.upstream(name)
        )

        reported = len(window.instances_of(name))
        if completeness_scaling:
            registered = window.registered_parallelism.get(name, 0)
            if registered <= 0 and reported == 0:
                raise PolicyError(
                    f"no instances reported or registered for {name!r}"
                )
            current = registered if registered > 0 else reported
            if reported > 0:
                agg_processing = window.aggregated_true_processing_rate(
                    name
                )
                agg_output = window.aggregated_true_output_rate(name)
                if reported < current:
                    # Scale incomplete per-instance rates up instead of
                    # treating the missing instances as zero-rate.
                    scale = current / reported
                    if agg_processing is not None:
                        agg_processing *= scale
                    if agg_output is not None:
                        agg_output *= scale
            else:
                # Complete dropout: capacity is unmeasurable this
                # window; hold the deployed parallelism.
                agg_processing = None
                agg_output = None
        else:
            agg_processing = window.aggregated_true_processing_rate(name)
            agg_output = window.aggregated_true_output_rate(name)
            current = window.parallelism_of(name)

        selectivity = _selectivity_for(
            window, name, agg_processing, agg_output
        )

        if agg_processing is None or agg_processing <= 0:
            # True rate undefined for the whole operator: we cannot size
            # it; keep the current parallelism and flag it.
            unknown.add(name)
            optimal_raw = float(current)
            optimal = current
        else:
            per_instance_rate = agg_processing / current
            if per_instance_rate <= 0:
                unknown.add(name)
                optimal_raw = float(current)
                optimal = current
            else:
                # Eq. 7: π_i = ceil(target / (o_i[λp] / p_i)).
                optimal_raw = target_rate / per_instance_rate
                optimal = max(1, math.ceil(optimal_raw - 1e-9))

        # Eq. 8, recursive case: o_j[λo]* = selectivity * Σ upstream.
        ideal_output[name] = selectivity * target_rate

        estimates[name] = OperatorEstimate(
            true_processing_rate=agg_processing,
            true_output_rate=agg_output,
            selectivity=selectivity,
            ideal_output_rate=ideal_output[name],
            target_rate=target_rate,
            current_parallelism=current,
            optimal_parallelism_raw=optimal_raw,
            optimal_parallelism=optimal,
        )

    return ModelEvaluation(
        estimates=estimates,
        unknown_operators=tuple(sorted(unknown)),
    )


def _selectivity_for(
    window: MetricsWindow,
    name: str,
    agg_processing: Optional[float],
    agg_output: Optional[float],
) -> float:
    """The selectivity term of Eq. 8 with graceful fallbacks.

    Preferred: the ratio of aggregated true rates. Fallback: the ratio
    of raw record counts over the window (identical when every instance
    reported, more robust when some were starved). Last resort: 1.0.
    """
    if (
        agg_processing is not None
        and agg_processing > 0
        and agg_output is not None
    ):
        return agg_output / agg_processing
    measured = window.selectivity(name)
    if measured is not None:
        return measured
    return 1.0


__all__ = [
    "ModelEvaluation",
    "OperatorEstimate",
    "compute_optimal_parallelism",
]
