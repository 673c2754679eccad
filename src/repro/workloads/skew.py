"""Skewed-key workload variants (paper section 4.2.3).

DS2 assumes no data imbalance; the paper verifies experimentally what
happens when that assumption is violated: with the Dhalion wordcount
benchmark and key skew of 20%, 50%, and 70%, DS2 converges after two
steps to the configuration that *would* be optimal without skew — it
neither oscillates nor over-provisions, but the hot instance remains a
bottleneck so the target throughput is not met. Scaling cannot fix
skew (the hot key still lands on one instance); that is a job for skew
mitigation components, which the paper leaves to complementary work.

This module builds wordcount plans whose Count operator receives a
skewed key distribution: one hot instance takes ``skew`` fraction of
all words.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import Partitioner, PhysicalPlan
from repro.workloads.wordcount import COUNT

#: Skew levels evaluated in the paper.
PAPER_SKEW_LEVELS = (0.2, 0.5, 0.7)


def skewed_wordcount_plan(
    graph: LogicalGraph,
    parallelism: Dict[str, int],
    skew: float,
    max_parallelism: Optional[int] = None,
) -> PhysicalPlan:
    """A wordcount physical plan whose Count operator has a hot
    instance receiving ``skew`` fraction of all words."""
    return PhysicalPlan(
        graph=graph,
        parallelism=parallelism,
        partitioner=Partitioner(skew_by_operator={COUNT: skew}),
        max_parallelism=max_parallelism,
    )


__all__ = [
    "PAPER_SKEW_LEVELS",
    "skewed_wordcount_plan",
]
