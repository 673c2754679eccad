"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its modules imports
every one of those modules up front, whether the caller needs them or
not. :func:`lazy_exports` instead gives the package a module-level
``__getattr__`` and ``__dir__`` over a table of which module defines
each exported name: the first ``package.Name`` (or ``from package
import Name``) imports that one module, and the value is then cached in
the package namespace, so later lookups are plain attribute reads.

Usage, in a package ``__init__``::

    from typing import TYPE_CHECKING

    from repro._lazy import lazy_exports

    if TYPE_CHECKING:  # what static analysis sees
        from repro.pkg.mod import Name

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.pkg.mod": ("Name",),
    })

    __all__ = ["Name"]

``tests/test_lazy_exports.py`` checks that every package's table, its
``TYPE_CHECKING`` block and its ``__all__`` name the same exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving each name
    in ``exports`` (defining module -> names) on first access."""
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
