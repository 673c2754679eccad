"""Workloads from the paper's evaluation.

* :mod:`repro.workloads.wordcount` — the three-stage wordcount dataflow
  of the Dhalion paper, used for the Heron comparison (section 5.2) and
  the Flink dynamic-scaling experiment (section 5.3).
* :mod:`repro.workloads.nexmark` — the Nexmark benchmark suite: event
  model, generator, reference query semantics, and the six query
  dataflows (Q1-Q3, Q5, Q8, Q11) used in sections 5.4-5.6.
* :mod:`repro.workloads.skew` — skewed-key variants for the data
  imbalance experiment (section 4.2.3).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.wordcount import (
        WORDS_PER_SENTENCE,
        flink_wordcount_graph,
        heron_wordcount_graph,
        heron_wordcount_optimum,
        wordcount_graph,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.wordcount": (
        "WORDS_PER_SENTENCE", "flink_wordcount_graph", "heron_wordcount_graph",
        "heron_wordcount_optimum", "wordcount_graph",
    ),
})

__all__ = [
    "WORDS_PER_SENTENCE",
    "flink_wordcount_graph",
    "heron_wordcount_graph",
    "heron_wordcount_optimum",
    "wordcount_graph",
]
