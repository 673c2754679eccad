"""Diagnostic model and reporters for the determinism linter.

The linter reduces its findings to :class:`Diagnostic` records; the
text and JSON renderers here are the only way results leave the
package, so the CLI, CI gate, and tests all consume the same shape.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the run (non-zero exit from the CLI);
    ``WARNING`` findings are reported but do not fail by themselves.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    Attributes:
        code: Stable rule identifier (e.g. ``REPRO104``) — what
            suppressions and ``--select`` match.
        message: Human-readable description, phrased as the problem
            plus the fix ("iterating a set ...; sort it first").
        path: Source file of the finding.
        line: 1-based source line (None when not tied to a line).
        column: 0-based source column.
        severity: :class:`Severity` of the finding.
    """

    code: str
    message: str
    path: str
    line: Optional[int] = None
    column: Optional[int] = None
    severity: Severity = Severity.ERROR

    def location(self) -> str:
        """``path:line:col`` (parts omitted when unknown)."""
        parts = [self.path]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column + 1))
        return ":".join(parts)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any finding is :attr:`Severity.ERROR`."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def sort_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> List[Diagnostic]:
    """Stable presentation order: path, line, column, code."""
    return sorted(
        diagnostics,
        key=lambda d: (d.path, d.line or 0, d.column or 0, d.code),
    )


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """GCC-style ``path:line:col: severity CODE message`` lines plus a
    one-line summary (the shape editors and CI logs expect)."""
    lines = [
        f"{d.location()}: {d.severity} {d.code} {d.message}"
        for d in sort_diagnostics(diagnostics)
    ]
    errors = sum(
        1 for d in diagnostics if d.severity is Severity.ERROR
    )
    warnings = len(diagnostics) - errors
    if diagnostics:
        lines.append(
            f"found {errors} error(s), {warnings} warning(s)"
        )
    else:
        lines.append("all checks passed")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """A machine-readable report: ``{"diagnostics": [...], "errors": n,
    "warnings": n}`` with one object per finding."""
    records = []
    for diag in sort_diagnostics(diagnostics):
        record = asdict(diag)
        record["severity"] = diag.severity.value
        records.append(record)
    errors = sum(
        1 for d in diagnostics if d.severity is Severity.ERROR
    )
    return json.dumps(
        {
            "diagnostics": records,
            "errors": errors,
            "warnings": len(diagnostics) - errors,
        },
        indent=2,
        sort_keys=True,
    )


__all__ = [
    "Diagnostic",
    "Severity",
    "has_errors",
    "render_json",
    "render_text",
    "sort_diagnostics",
]
