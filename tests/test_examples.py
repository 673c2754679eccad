"""Smoke tests: the example scripts run end-to-end.

The heavier examples are exercised with scaled-down parameters by
calling their building blocks; the quickstart runs verbatim.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


class TestExampleScripts:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "dynamic_scaling.py",
            "dhalion_comparison.py",
            "nexmark_convergence.py",
            "skew_and_baselines.py",
        } <= names

    @pytest.mark.slow
    def test_quickstart_runs_verbatim(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "flatmap=10, count=20" in proc.stdout
