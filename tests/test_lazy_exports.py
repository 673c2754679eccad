"""The lazy public surface of every ``repro`` package.

Each package ``__init__`` re-exports its names through
:func:`repro._lazy.lazy_exports`: importing the package imports none of
its modules, and the first use of a name imports the one module that
defines it. These tests pin that the surface behaves as eager imports
did, and that each package's export table, its ``TYPE_CHECKING``
imports (what static analysis sees) and its ``__all__`` agree.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.errors
from tests.test_cli import _modules_loaded_by, _repro_modules

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.baselines",
    "repro.dataflow",
    "repro.engine",
    "repro.experiments",
    "repro.faults",
    "repro.sweeps",
    "repro.telemetry",
    "repro.workloads",
    "repro.workloads.nexmark",
)


def _declared_exports(package):
    """(export table, TYPE_CHECKING imports), each as a mapping of
    module name to the sorted names it provides, read from the
    package's ``__init__`` source."""
    source = Path(importlib.import_module(package).__file__).read_text()
    table, checked = {}, {}
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.dump(stmt)
                checked.setdefault(stmt.module, []).extend(
                    alias.name for alias in stmt.names
                )
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "lazy_exports"
        ):
            table = ast.literal_eval(node.value.args[1])
    return (
        {module: sorted(names) for module, names in table.items()},
        {module: sorted(names) for module, names in checked.items()},
    )


@pytest.mark.parametrize("package", PACKAGES)
class TestLazySurface:
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name

    def test_star_import_binds_every_export(self, package):
        module = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_export", {})

    def test_table_covers_type_imports_and_all(self, package):
        """The table and the ``TYPE_CHECKING`` block name the same
        exports, and every ``__all__`` name is among them (a package
        may export a name it leaves out of ``__all__``)."""
        table, checked = _declared_exports(package)
        assert table == checked
        exported = {name for names in table.values() for name in names}
        module = importlib.import_module(package)
        assert set(module.__all__) - {"__version__"} <= exported

    def test_each_export_comes_from_its_module(self, package):
        table, _ = _declared_exports(package)
        module = importlib.import_module(package)
        for origin, names in table.items():
            defining = importlib.import_module(origin)
            for name in names:
                assert getattr(module, name) is getattr(defining, name)


def test_packages_import_no_modules():
    """Importing every package, in a fresh interpreter, loads the
    packages and the lazy-export helper and nothing else of
    ``repro``."""
    loaded = _modules_loaded_by(
        "".join(f"import {package}\n" for package in PACKAGES)
    )
    assert set(_repro_modules(loaded)) <= {*PACKAGES, "repro._lazy"}


def test_campaign_interrupted_is_one_class():
    import repro.faults
    import repro.faults.executor

    assert (
        repro.faults.executor.CampaignInterrupted
        is repro.errors.CampaignInterrupted
    )
    assert repro.faults.CampaignInterrupted is repro.errors.CampaignInterrupted

