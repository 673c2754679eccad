"""Run every engine deployment with one lane per instance.

Put this directory first on ``PYTHONPATH`` and each interpreter --
including pool workers under any start method -- imports this module
at startup, before any user code. When :mod:`repro.engine.objects` is
then imported, its ``lane_runs`` is replaced by one that gives every
instance a run of its own: the engine's reference semantics, against
which its lanes (runs of consecutive instances with equal input
weights) must be byte-identical::

    PYTHONPATH=scripts/per_instance:src python -m repro run table4 --scale 0.2

A ``sys.meta_path`` finder patches the module as it loads, so
interpreters that never import the engine never import it here either.
"""

import importlib.abc
import importlib.machinery
import sys

_TARGET = "repro.engine.objects"


def _one_lane_per_instance(plan, name):
    return [(index, 1) for index in range(plan.parallelism_of(name))]


class _PatchingLoader(importlib.abc.Loader):
    """Runs the module's own loader, then swaps in the reference
    ``lane_runs``."""

    def __init__(self, loader):
        self._loader = loader

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        module.lane_runs = _one_lane_per_instance


class _PerInstance(importlib.abc.MetaPathFinder):
    """Meta-path finder that wraps the engine module's loader."""

    def find_spec(self, name, path=None, target=None):
        if name != _TARGET:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            spec.loader = _PatchingLoader(spec.loader)
        return spec


sys.meta_path.insert(0, _PerInstance())
