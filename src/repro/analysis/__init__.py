"""Static analysis for the reproduction: keep replays replayable
*before* anything runs.

The **determinism linter** (:mod:`repro.analysis.linter`) is an
AST-based pass over Python sources banning the entropy sources that
silently break the byte-identical-replay contract of the chaos
subsystem (wall clocks, module-level/unseeded RNG, OS entropy,
iteration over unordered collections, ``id()``-based ordering), plus a
warning for ``# repro: allow[...]`` comments that no longer suppress
anything. It reports through :class:`repro.analysis.report.Diagnostic`
and the text/JSON renderers in :mod:`repro.analysis.report`; the CLI
exposes it as ``repro lint``.

Dataflow graphs are validated where they are built:
:class:`~repro.dataflow.graph.LogicalGraph`,
:class:`~repro.dataflow.physical.PhysicalPlan` and the operator value
types in :mod:`repro.dataflow.operators` reject malformed graphs,
plans and values at construction. The runtime pickle guard for values
crossing a process boundary lives with the executor that needs it
(:func:`repro.faults.executor.ensure_parallel_safe`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.linter import (
        LINT_RULES,
        lint_file,
        lint_paths,
        lint_source,
    )
    from repro.analysis.report import (
        Diagnostic,
        Severity,
        has_errors,
        render_json,
        render_text,
    )
    from repro.analysis.rules import (
        AnalysisError,
        Rule,
        RuleRegistry,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.linter": (
        "LINT_RULES", "lint_file", "lint_paths", "lint_source",
    ),
    "repro.analysis.report": (
        "Diagnostic", "Severity", "has_errors", "render_json", "render_text",
    ),
    "repro.analysis.rules": ("AnalysisError", "Rule", "RuleRegistry"),
})

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "LINT_RULES",
    "Rule",
    "RuleRegistry",
    "Severity",
    "has_errors",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
