"""Make numpy unimportable in every interpreter that loads this file.

Put this directory first on ``PYTHONPATH`` and each interpreter --
including pool workers under any start method -- imports this module
at startup, before any user code. ``import numpy`` then raises
``ImportError``, exactly as in an environment without numpy, so any
dependency on it shows up as a failure::

    PYTHONPATH=scripts/no_numpy:src python -m repro run table4 --scale 0.2

A ``sys.meta_path`` finder is used rather than
``sys.modules["numpy"] = None``: the latter makes ``import numpy``
fail, but also breaks libraries (hypothesis) that inspect
``sys.modules`` for optional dependencies.
"""

import sys


class _BlockNumpy:
    """Meta-path finder that refuses ``numpy`` and its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"numpy is blocked by {__file__}")
        return None


sys.meta_path.insert(0, _BlockNumpy())
