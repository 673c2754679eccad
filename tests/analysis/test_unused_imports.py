"""Tier-1 enforcement: no module in ``src/repro`` imports a name it
never uses (pyflakes' F401, checked here without ruff or pyflakes).

A module-level import counts as used when its bound name is loaded
anywhere in the module, appears inside a string annotation, or is
listed in ``__all__``. An import whose statement carries
``# noqa: F401`` is exempt. Package ``__init__.py`` files are skipped:
they import names only to re-export them.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

MODULES = sorted(
    path
    for path in PACKAGE_ROOT.rglob("*.py")
    if path.name != "__init__.py"
)


def _module_imports(
    body: List[ast.stmt],
) -> Iterator[ast.stmt]:
    """Import statements at module level, including those nested in a
    top-level ``if`` (``TYPE_CHECKING``) or ``try`` block."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (
                node.body,
                node.orelse,
                getattr(node, "finalbody", []),
                *(h.body for h in getattr(node, "handlers", [])),
            ):
                yield from _module_imports(block)


def _bound_names(node: ast.stmt) -> Iterator[Tuple[str, int]]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:  # type: ignore[attr-defined]
        if alias.name == "*":
            continue
        bound = alias.asname or alias.name.partition(".")[0]
        yield bound, node.lineno


def _string_annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(
                    item.value, str
                ):
                    names.add(item.value)
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for each module-level import never used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        used.update(_string_annotation_names(annotation))
    used |= _dunder_all(tree)
    unused: List[Tuple[int, str]] = []
    for statement in _module_imports(tree.body):
        text = lines[statement.lineno - 1 : statement.end_lineno]
        if any("noqa: F401" in line for line in text):
            continue
        for name, line in _bound_names(statement):
            if name not in used:
                unused.append((line, name))
    return unused


def test_modules_found():
    # Guard against passing vacuously on an empty or moved tree.
    assert PACKAGE_ROOT / "sweeps" / "spec.py" in MODULES
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path",
    MODULES,
    ids=[str(path.relative_to(PACKAGE_ROOT)) for path in MODULES],
)
def test_no_unused_module_imports(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert found == [], (
        f"{path.relative_to(PACKAGE_ROOT)} imports names it never uses: "
        + ", ".join(f"{name} (line {line})" for line, name in found)
    )


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", [(1, "c")]),
        ("from typing import List\nx: 'List[int]' = []\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import (  # noqa: F401\n    b,\n)\n", []),
        ("from __future__ import annotations\n", []),
        (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from a import B\n",
            [(3, "B")],
        ),
        ("def f():\n    import os\n", []),
    ],
)
def test_checker_on_snippets(source, expected):
    assert unused_imports(source) == expected
