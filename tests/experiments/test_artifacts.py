"""The paper-artifact registry: ``repro run <id>`` at scale 1 prints the
committed ``benchmarks/output/`` artifact byte for byte."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.artifacts import ALIASES, ARTIFACTS

OUTPUT = Path(__file__).resolve().parents[2] / "benchmarks" / "output"

#: The entries cheap enough for tier 1 (a few seconds together); the
#: rest are diffed by the "paper artifacts" stage of scripts/check.sh.
CHEAP = ("fig1", "fig6", "fig7", "fig9", "skew", "faults")


class TestRegistry:
    def test_every_entry_has_a_committed_artifact(self):
        for entry in ARTIFACTS.values():
            assert (OUTPUT / f"{entry.output}.txt").is_file(), entry.id

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_alias_runs_its_target(self, alias, capsys):
        # Resolved to 'faults', so a chaos-only flag is the complaint.
        assert main(["run", alias, "--seeds", "1"]) == 2
        assert "--seeds only applies to the 'chaos'" in (
            capsys.readouterr().err
        )


@pytest.mark.parametrize("artifact_id", CHEAP)
def test_run_prints_committed_artifact(artifact_id, capsys):
    assert main(["run", artifact_id]) == 0
    expected = (OUTPUT / f"{ARTIFACTS[artifact_id].output}.txt").read_text(
        encoding="utf-8"
    )
    assert capsys.readouterr().out == expected
