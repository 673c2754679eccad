"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and emits
the rows both to stdout (visible with ``pytest -s``) and to a text
artifact under ``benchmarks/output/`` so the regenerated results
survive output capturing.
"""

from __future__ import annotations

import pathlib

from repro.experiments.artifacts import ARTIFACTS

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def emit(name: str, text: str) -> None:
    """Print ``text`` and persist it as an artifact."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic virtual-time simulations, so a
    single round is meaningful; re-running them would only re-measure
    the same work.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def emit_artifact(benchmark, artifact_id: str):
    """Run one paper artifact of the registry once at scale 1, emit its
    rendered text under its committed name, and return its result."""
    entry = ARTIFACTS[artifact_id]
    result = run_once(benchmark, lambda: entry.run(1.0))
    emit(entry.output, entry.render(result))
    return result
