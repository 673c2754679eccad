"""Tests for the determinism linter (``repro.analysis.linter``),
including its REPRO501 stale-suppression check."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LINT_RULES,
    AnalysisError,
    Severity,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the single rule it exercises
RULE_FIXTURES = {
    "wall_clock.py": "REPRO101",
    "unseeded_rng.py": "REPRO102",
    "os_entropy.py": "REPRO103",
    "unordered_iteration.py": "REPRO104",
    "id_ordering.py": "REPRO105",
}


def _lines_of(source, marker):
    return [
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if marker in line
    ]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "filename,code", sorted(RULE_FIXTURES.items())
    )
    def test_rule_fires_on_fixture(self, filename, code):
        findings = lint_file(FIXTURES / filename)
        assert findings, f"{filename} should trigger {code}"
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize(
        "filename,code", sorted(RULE_FIXTURES.items())
    )
    def test_findings_confined_to_flagged_function(
        self, filename, code
    ):
        path = FIXTURES / filename
        source = path.read_text()
        flagged_start = _lines_of(source, "def flagged")[0]
        flagged_end = _lines_of(source, "def suppressed")[0]
        for finding in lint_file(path):
            assert flagged_start < finding.line < flagged_end, (
                f"{code} fired outside flagged() at line "
                f"{finding.line}: {finding.message}"
            )

    @pytest.mark.parametrize("filename", sorted(RULE_FIXTURES))
    def test_suppression_silences_rule(self, filename):
        # Every finding sits in flagged(); the suppressed() bodies use
        # all three spellings (rule id, rule name, wildcard) and the
        # not_flagged() bodies show sanctioned equivalents.
        path = FIXTURES / filename
        source = path.read_text()
        suppression_lines = _lines_of(source, "repro: allow[")
        assert suppression_lines, f"{filename} lacks suppressions"
        flagged = {f.line for f in lint_file(path)}
        assert not flagged & set(suppression_lines)

    def test_clean_fixture_has_no_findings(self):
        assert lint_file(FIXTURES / "clean.py") == []

    def test_syntax_error_reports_repro100(self):
        findings = lint_file(FIXTURES / "syntax_error.py")
        assert len(findings) == 1
        assert findings[0].code == "REPRO100"
        assert "could not parse" in findings[0].message


class TestLintSource:
    def test_reports_line_and_column(self):
        findings = lint_source(
            "import time\nx = time.time()\n", path="inline.py"
        )
        assert len(findings) == 1
        f = findings[0]
        assert (f.code, f.line, f.path) == (
            "REPRO101",
            2,
            "inline.py",
        )
        assert f.severity is Severity.ERROR

    def test_select_restricts_rules(self):
        source = "import time, random\n" \
            "a = time.time()\n" \
            "b = random.random()\n"
        only_rng = lint_source(
            source, path="x.py", select=["REPRO102"]
        )
        assert {f.code for f in only_rng} == {"REPRO102"}

    def test_ignore_drops_rules(self):
        source = "import time, random\n" \
            "a = time.time()\n" \
            "b = random.random()\n"
        no_clock = lint_source(
            source, path="x.py", ignore=["wall-clock"]
        )
        assert {f.code for f in no_clock} == {"REPRO102"}

    def test_unknown_rule_key_raises(self):
        with pytest.raises(AnalysisError):
            lint_source("x = 1\n", path="x.py", select=["REPRO999"])

    def test_wildcard_suppression(self):
        source = (
            "import time\n"
            "x = time.time()  # repro: allow[*]\n"
        )
        assert lint_source(source, path="x.py") == []


class TestLintPaths:
    def test_directory_recurses_and_sorts(self):
        findings = lint_paths([FIXTURES])
        paths = [f.path for f in findings]
        assert paths == sorted(paths)
        assert {f.code for f in findings} == {
            "REPRO100",
            "REPRO101",
            "REPRO102",
            "REPRO103",
            "REPRO104",
            "REPRO105",
            "REPRO501",
        }

    def test_exclude_skips_subtree(self):
        assert lint_paths([FIXTURES]) != []
        assert lint_paths([FIXTURES], exclude=[FIXTURES]) == []

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            lint_paths([FIXTURES / "does_not_exist.py"])


class TestReporters:
    def _sample(self):
        return lint_source(
            "import time\nx = time.time()\n", path="sample.py"
        )

    def test_render_text_gcc_style(self):
        text = render_text(self._sample())
        assert "sample.py:2:" in text
        assert "REPRO101" in text
        assert "found 1 error(s), 0 warning(s)" in text

    def test_render_text_clean(self):
        assert "all checks passed" in render_text([])

    def test_render_json_round_trips(self):
        payload = json.loads(render_json(self._sample()))
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "REPRO101"
        assert diag["path"] == "sample.py"
        assert diag["line"] == 2


class TestRegistry:
    def test_every_rule_has_id_name_rationale(self):
        for rule in LINT_RULES:
            assert rule.id.startswith("REPRO")
            assert rule.name
            assert rule.summary
            assert rule.rationale

    def test_fixture_coverage_is_complete(self):
        # Every rule in the registry has a fixture file (syntax errors
        # and stale allows have their own); adding a rule without a
        # fixture fails here.
        covered = set(RULE_FIXTURES.values()) | {"REPRO100", "REPRO501"}
        assert covered == set(LINT_RULES.ids)


class TestStaleAllowFixture:
    FIXTURE = "stale_allow.py"

    def _findings(self):
        source = (FIXTURES / self.FIXTURE).read_text()
        return source, lint_source(source, str(FIXTURES / self.FIXTURE))

    def test_stale_allows_reported_as_warnings(self):
        source, findings = self._findings()
        assert findings, "stale_allow.py produced no findings"
        assert {f.code for f in findings} == {"REPRO501"}
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_findings_confined_to_flagged_region(self):
        source, findings = self._findings()
        start = _lines_of(source, "def flagged")[0]
        stop = _lines_of(source, "def suppressed")[0]
        assert all(start <= f.line < stop for f in findings)

    def test_unknown_rule_token_is_called_out(self):
        source, findings = self._findings()
        messages = " ".join(f.message for f in findings)
        assert "REPRO999" in messages

    def test_live_suppression_is_not_stale(self):
        # not_flagged() suppresses a finding that really fires, and
        # suppressed() opts out via the REPRO501 token: neither may
        # contribute findings (verified by the confinement test), and
        # the live time.time() call must stay suppressed.
        _, findings = self._findings()
        assert "REPRO101" not in {f.code for f in findings}

    def test_repro501_is_a_lint_rule(self):
        # --select/--ignore and allow[...] reach it like any other rule.
        assert LINT_RULES.get("stale-allow").id == "REPRO501"
        source, _ = self._findings()
        assert lint_source(source, ignore=["REPRO501"]) == []
