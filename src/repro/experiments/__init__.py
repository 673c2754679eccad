"""Experiment harnesses regenerating the paper's tables and figures.

Each module reproduces one piece of section 5 of the paper:

=====================  ====================================================
Module                 Paper content
=====================  ====================================================
``comparison``         Figure 1, Figure 6, section 5.2 (DS2 vs Dhalion on
                       Heron wordcount)
``dynamic``            Figure 7 (DS2 driving Flink under a dynamic rate)
``convergence``        Table 4 (convergence steps, Nexmark on Flink) and
                       its Timely counterpart (section 5.4)
``accuracy``           Figure 8 (rates + latency CDFs on Flink) and
                       Figure 9 (epoch-latency CDFs on Timely)
``overhead``           Figure 10 (instrumentation overhead)
``skew_experiment``    Section 4.2.3 (DS2 under data skew)
``fault_tolerance``    Robustness extension: convergence under injected
                       faults (crashes, metric dropout, failed rescales)
``chaos``              Robustness extension: seeded chaos campaigns with
                       SASO scorecards and per-runtime recovery models
``artifacts``          The registry over all of the above: one ``run``
                       plus one pure ``render`` per table or figure,
                       shared by ``repro run <id>`` and ``benchmarks/``
=====================  ====================================================

Every experiment accepts scale knobs (durations, tick size) so the
benchmark suite can run scaled-down versions; the defaults match the
paper's settings.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.harness import (
        ExperimentRun,
        TimeSeries,
        run_controlled,
    )
    from repro.experiments.report import format_table
    from repro.experiments.saso import SasoReport, score_operator, score_run

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.harness": (
        "ExperimentRun", "TimeSeries", "run_controlled",
    ),
    "repro.experiments.report": ("format_table",),
    "repro.experiments.saso": ("SasoReport", "score_operator", "score_run"),
})

__all__ = [
    "ExperimentRun",
    "SasoReport",
    "TimeSeries",
    "format_table",
    "run_controlled",
    "score_operator",
    "score_run",
]
