"""Baseline scaling controllers DS2 is compared against.

* :class:`~repro.core.baselines.dhalion.DhalionController` — a
  reimplementation of Dhalion's published policy logic (backpressure
  symptom detection, single-operator speculative resolution,
  blacklisting), used for the paper's Figure 1 / Figure 6 comparison.
* :class:`~repro.core.baselines.threshold.ThresholdController` — the
  classic CPU-utilization threshold policy that section 2 of the paper
  argues is inadequate; used in ablation benchmarks.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.baselines.dhalion import DhalionController
    from repro.core.baselines.threshold import (
        ThresholdConfig,
        ThresholdController,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.baselines.dhalion": ("DhalionController",),
    "repro.core.baselines.threshold": (
        "ThresholdConfig", "ThresholdController",
    ),
})

__all__ = [
    "DhalionController",
    "ThresholdConfig",
    "ThresholdController",
]
