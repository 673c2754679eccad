"""Tier-1 enforcement: the shipped tree passes the determinism linter.

This is the teeth behind CONTRIBUTING.md's determinism contract — any
new wall-clock read, unseeded RNG, OS-entropy draw, unordered
iteration, ``id()``-based ordering, or stale ``# repro: allow[...]``
comment in the shipped tree fails the test suite, not just the
optional tier-2 gate.

``src/repro`` is held to the full ruleset; ``scripts/``,
``benchmarks/`` and ``examples/`` ride along with the same contract
(they feed published numbers, so entropy hazards there are just as
real). ``tests/`` is checked too, excluding the lint fixtures, which
exist to violate the rules.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, render_text

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis" / "fixtures"

#: Checked trees beyond src/: tree -> required sentinel file, so a
#: repo relayout fails loudly instead of linting nothing.
SUPPORT_TREES = {
    "scripts": "check.sh",
    "benchmarks": "test_engine_performance.py",
    "examples": "quickstart.py",
}


def test_src_tree_lints_clean():
    findings = lint_paths([PACKAGE_ROOT])
    assert findings == [], (
        "determinism linter found violations in src/repro "
        "(fix them or add a justified '# repro: allow[RULE]'):\n"
        + render_text(findings)
    )


@pytest.mark.parametrize("tree", sorted(SUPPORT_TREES))
def test_support_tree_passes_all_analyzers(tree):
    root = REPO_ROOT / tree
    assert (root / SUPPORT_TREES[tree]).is_file(), (
        f"{tree}/ moved — update SUPPORT_TREES so it stays checked"
    )
    findings = lint_paths([root])
    assert findings == [], (
        f"determinism linter found violations in {tree}/:\n"
        + render_text(findings)
    )


def test_test_tree_passes_all_analyzers():
    findings = lint_paths([REPO_ROOT / "tests"], exclude=[FIXTURES])
    assert findings == [], (
        "determinism linter found violations in tests/ "
        "(fixtures excluded):\n" + render_text(findings)
    )


def test_package_root_is_the_real_tree():
    # Guard against the test silently passing because it linted an
    # installed copy with no modules in it.
    assert (PACKAGE_ROOT / "analysis" / "linter.py").is_file()
    assert (PACKAGE_ROOT / "analysis" / "report.py").is_file()
    assert (PACKAGE_ROOT / "engine" / "simulator.py").is_file()
    assert FIXTURES.is_dir()
