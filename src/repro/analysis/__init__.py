"""Static analysis for the reproduction: keep replays replayable and
graphs well-formed *before* anything runs.

Two engines share one rule-registry/reporter core:

* the **determinism linter** (:mod:`repro.analysis.linter`) — an
  AST-based pass over Python sources banning the entropy sources that
  silently break the byte-identical-replay contract of the chaos
  subsystem (wall clocks, module-level/unseeded RNG, OS entropy,
  iteration over unordered collections, ``id()``-based ordering),
  plus a warning for ``# repro: allow[...]`` comments that no longer
  suppress anything;
* the **dataflow-graph static checker**
  (:mod:`repro.analysis.graphcheck`) — structural and rate-sanity
  validation of logical dataflow graphs, so a malformed graph fails
  with an actionable diagnostic instead of deep inside the simulator,
  and the paper's one-traversal decision (Eq. 7/8) is well-defined.

All report through :class:`repro.analysis.report.Diagnostic` and the
text/JSON renderers in :mod:`repro.analysis.report`; the CLI exposes
them as ``repro lint`` and ``repro check-graph``. The runtime pickle
guard for values crossing a process boundary lives with the executor
that needs it (:func:`repro.faults.executor.ensure_parallel_safe`).
"""

from __future__ import annotations

from repro.analysis.graphcheck import (
    GRAPH_CHECKS,
    GraphSpec,
    NodeSpec,
    check_graph,
    ensure_valid_graph,
    graph_spec_from_json,
    graph_spec_from_logical,
)
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

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "GRAPH_CHECKS",
    "GraphSpec",
    "LINT_RULES",
    "NodeSpec",
    "Rule",
    "RuleRegistry",
    "Severity",
    "check_graph",
    "ensure_valid_graph",
    "graph_spec_from_json",
    "graph_spec_from_logical",
    "has_errors",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
