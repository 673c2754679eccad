"""The rule registry shared by the analysis engines.

A :class:`Rule` is the durable identity of one check: a stable id (what
suppressions, ``--select`` and reports reference), a short name, and a
one-line rationale. Registries keep ids unique and give the CLI and the
documentation one place to enumerate the catalog from.

Id conventions: ``REPRO1xx`` are determinism lint rules; ``REPRO5xx``
are suppression-hygiene rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import ReproError


class AnalysisError(ReproError):
    """Raised for invalid analysis requests (unknown rule ids, paths
    that are neither files nor directories)."""


@dataclass(frozen=True)
class Rule:
    """One registered check.

    Attributes:
        id: Stable identifier (``REPRO104``); what ``# repro:
            allow[...]`` and ``--select``/``--ignore`` match.
        name: Short kebab-case slug (``set-iteration``), accepted as an
            alias wherever the id is.
        summary: One line of what the rule forbids or asserts.
        rationale: Why violating it breaks determinism or the decision
            model — shown by ``repro lint --explain``.
    """

    id: str
    name: str
    summary: str
    rationale: str


class RuleRegistry:
    """An ordered, unique collection of :class:`Rule` objects."""

    def __init__(self) -> None:
        self._by_id: Dict[str, Rule] = {}
        self._by_name: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.id in self._by_id:
            raise AnalysisError(f"duplicate rule id {rule.id!r}")
        if rule.name in self._by_name:
            raise AnalysisError(f"duplicate rule name {rule.name!r}")
        self._by_id[rule.id] = rule
        self._by_name[rule.name] = rule
        return rule

    def get(self, key: str) -> Rule:
        """Look up by id or name (case-insensitive on ids)."""
        rule = self._by_id.get(key.upper()) or self._by_name.get(
            key.lower()
        )
        if rule is None:
            raise AnalysisError(
                f"unknown rule {key!r}; known: "
                f"{', '.join(self._by_id)}"
            )
        return rule

    def __contains__(self, key: object) -> bool:
        return (
            isinstance(key, str)
            and (
                key.upper() in self._by_id
                or key.lower() in self._by_name
            )
        )

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(self._by_id)


__all__ = [
    "AnalysisError",
    "Rule",
    "RuleRegistry",
]
