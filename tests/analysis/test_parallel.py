"""Tests for the parallel-safety analyzer (REPRO2xx/3xx/4xx) and the
driver-level stale-suppression check (REPRO501).

Mirrors the fixture layout of ``test_linter.py``: each rule has one
fixture in ``fixtures/`` with ``flagged``/``suppressed``/``not_flagged``
regions, and the tests assert findings land only in the flagged region.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import (
    EQUIVALENCE_SENSITIVE_MODULES,
    FAMILIES,
    PARALLEL_RULES,
    SINK_REGISTRY,
    WORKER_ENTRY_POINTS,
    AnalysisError,
    ProcessBoundarySink,
    Severity,
    check_parallel_paths,
    check_parallel_source,
    check_source,
    ensure_parallel_safe,
    register_equivalence_sensitive,
    register_sink,
    register_worker_entry,
    unpicklable_reason,
)
from repro.analysis.driver import HYGIENE_RULES, all_rules, resolve_selection

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the one parallel-safety rule it exercises
PARALLEL_FIXTURES = {
    "lambda_factory.py": "REPRO201",
    "local_factory.py": "REPRO202",
    "bound_method_factory.py": "REPRO203",
    "unpicklable_partial.py": "REPRO204",
    "worker_global_write.py": "REPRO301",
    "worker_module_mutation.py": "REPRO302",
    "worker_class_state.py": "REPRO303",
    "builtin_sum_array.py": "REPRO401",
    "pairwise_reduction.py": "REPRO402",
    "set_order_accumulation.py": "REPRO403",
}


def _lines_of(source: str, marker: str):
    return [
        index
        for index, line in enumerate(source.splitlines(), start=1)
        if marker in line
    ]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "fixture,code", sorted(PARALLEL_FIXTURES.items())
    )
    def test_rule_fires_on_fixture(self, fixture, code):
        source = (FIXTURES / fixture).read_text()
        findings = check_parallel_source(source, str(FIXTURES / fixture))
        assert findings, f"{fixture} produced no findings"
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize(
        "fixture,code", sorted(PARALLEL_FIXTURES.items())
    )
    def test_findings_confined_to_flagged_region(self, fixture, code):
        source = (FIXTURES / fixture).read_text()
        findings = check_parallel_source(source, str(FIXTURES / fixture))
        start = _lines_of(source, "def flagged")[0]
        stop = _lines_of(source, "def suppressed")[0]
        for finding in findings:
            assert start <= finding.line < stop, (
                f"{fixture}: {finding.code} at line {finding.line} "
                f"escaped the flagged region [{start}, {stop})"
            )

    @pytest.mark.parametrize(
        "fixture,code", sorted(PARALLEL_FIXTURES.items())
    )
    def test_suppression_silences_rule(self, fixture, code):
        source = (FIXTURES / fixture).read_text()
        findings = check_parallel_source(source, str(FIXTURES / fixture))
        allow_lines = set(_lines_of(source, "repro: allow["))
        assert allow_lines, f"{fixture} has no suppressed examples"
        assert allow_lines.isdisjoint(f.line for f in findings)

    def test_fixture_coverage_is_complete(self):
        assert set(PARALLEL_FIXTURES.values()) == set(PARALLEL_RULES.ids)

    def test_fixture_directory_yields_every_parallel_rule(self):
        findings = check_parallel_paths([FIXTURES])
        assert {f.code for f in findings} == set(PARALLEL_RULES.ids)

    def test_all_parallel_findings_are_errors(self):
        findings = check_parallel_paths([FIXTURES])
        assert all(f.severity is Severity.ERROR for f in findings)


class TestStaleAllowFixture:
    FIXTURE = "stale_allow.py"

    def _findings(self):
        source = (FIXTURES / self.FIXTURE).read_text()
        return source, check_source(source, str(FIXTURES / self.FIXTURE))

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

    def test_repro501_lives_in_suppressions_family(self):
        (rule,) = [r for r in HYGIENE_RULES if r.id == "REPRO501"]
        assert rule.family == "suppressions"


class TestFamilies:
    def test_new_families_are_registered(self):
        for family in (
            "pickle-safety",
            "worker-shared-state",
            "reduction-order",
            "suppressions",
        ):
            assert family in FAMILIES

    def test_every_rule_belongs_to_a_named_family(self):
        for rule in all_rules():
            assert rule.family in FAMILIES

    def test_family_prefixes_match_issue_numbering(self):
        by_family = {}
        for rule in PARALLEL_RULES:
            by_family.setdefault(rule.family, []).append(rule.id)
        assert all(
            rule_id.startswith("REPRO2")
            for rule_id in by_family["pickle-safety"]
        )
        assert all(
            rule_id.startswith("REPRO3")
            for rule_id in by_family["worker-shared-state"]
        )
        assert all(
            rule_id.startswith("REPRO4")
            for rule_id in by_family["reduction-order"]
        )

    def test_select_accepts_family_names(self):
        selected = resolve_selection(["pickle-safety"])
        assert selected == {"REPRO201", "REPRO202", "REPRO203", "REPRO204"}

    def test_select_rejects_unknown_tokens(self):
        with pytest.raises(AnalysisError, match="REPROXX"):
            resolve_selection(["REPROXX"])

    def test_family_select_filters_check_source(self):
        source = (FIXTURES / "lambda_factory.py").read_text()
        assert check_source(source, select=["worker-shared-state"]) == []
        findings = check_source(source, select=["pickle-safety"])
        assert {f.code for f in findings} == {"REPRO201"}

    def test_family_ignore_filters_check_source(self):
        source = (FIXTURES / "lambda_factory.py").read_text()
        findings = check_source(
            source, ignore=["pickle-safety", "suppressions"]
        )
        assert findings == []


class TestRegistries:
    def test_register_sink_is_idempotent_for_equal_specs(self):
        sink = SINK_REGISTRY["repro.faults.campaigns.CampaignCellSpec"]
        assert register_sink(sink) is sink

    def test_register_sink_rejects_conflicting_respec(self):
        qualname = "repro.faults.campaigns.CampaignCellSpec"
        conflicting = ProcessBoundarySink(
            qualname=qualname,
            factory_params={"other": 0},
            description="conflicting",
        )
        with pytest.raises(AnalysisError, match="already registered"):
            register_sink(conflicting)

    def test_register_worker_entry_and_equivalence_module(self):
        entry = "tests.analysis.test_parallel._fake_entry"
        module = "tests.analysis.test_parallel_fake_module"
        try:
            assert register_worker_entry(entry) == entry
            assert entry in WORKER_ENTRY_POINTS
            assert register_equivalence_sensitive(module) == module
            assert module in EQUIVALENCE_SENSITIVE_MODULES
        finally:
            WORKER_ENTRY_POINTS.discard(entry)
            EQUIVALENCE_SENSITIVE_MODULES.discard(module)

    def test_shipped_worker_entries_cover_campaign_paths(self):
        assert (
            "repro.faults.campaigns.run_campaign_cell"
            in WORKER_ENTRY_POINTS
        )
        assert (
            "repro.faults.executor.run_cell_attempt"
            in WORKER_ENTRY_POINTS
        )

    def test_engine_modules_are_equivalence_sensitive(self):
        assert (
            "repro.engine.vectorized" in EQUIVALENCE_SENSITIVE_MODULES
        )


def _module_factory():
    return object()


class _Holder:
    def method(self):
        return object()


class TestRuntimeGuard:
    def test_module_level_callable_passes(self):
        assert ensure_parallel_safe(_module_factory) is _module_factory
        assert unpicklable_reason(_module_factory) is None

    def test_lambda_is_rejected_as_repro201(self):
        reason = unpicklable_reason(lambda: None)
        assert reason is not None and "[REPRO201]" in reason
        with pytest.raises(AnalysisError, match=r"\[REPRO201\]"):
            ensure_parallel_safe(lambda: None)

    def test_local_def_is_rejected_as_repro202(self):
        def local_factory():
            return object()

        reason = unpicklable_reason(local_factory)
        assert reason is not None and "[REPRO202]" in reason
        assert "local_factory" in reason

    def test_bound_method_is_rejected_as_repro203(self):
        reason = unpicklable_reason(_Holder().method)
        assert reason is not None and "[REPRO203]" in reason

    def test_classmethod_bound_to_type_passes(self):
        # classmethods pickle by qualified name like plain functions.
        assert unpicklable_reason(dict.fromkeys) is None

    def test_partial_over_lambda_is_rejected_as_repro204(self):
        from functools import partial

        reason = unpicklable_reason(partial(sorted, key=lambda x: x))
        assert reason is not None
        assert "[REPRO204]" in reason and "[REPRO201]" in reason

    def test_partial_over_module_callable_passes(self):
        from functools import partial

        assert unpicklable_reason(partial(_module_factory)) is None

    def test_mapping_values_are_checked_and_keyed(self):
        reason = unpicklable_reason(
            {"ok": _module_factory, "bad": lambda: None}
        )
        assert reason is not None
        assert "'bad'" in reason and "[REPRO201]" in reason

    def test_context_prefixes_the_error(self):
        with pytest.raises(AnalysisError, match="controllers_factory:"):
            ensure_parallel_safe(
                lambda: None, context="controllers_factory"
            )


class TestProcessBoundaryHooks:
    def test_parallel_executor_rejects_lambda_factory(self):
        from repro.errors import FaultInjectionError
        from repro.faults.executor import CampaignExecutor

        spec = SimpleNamespace(
            key=(7, 0, "lam"), controller_factory=lambda: None
        )
        with pytest.raises(FaultInjectionError) as excinfo:
            CampaignExecutor._ensure_submittable([spec], [0])
        message = str(excinfo.value)
        assert "controller='lam'" in message
        assert "[REPRO201]" in message

    def test_parallel_executor_accepts_module_factory(self):
        from repro.faults.executor import CampaignExecutor

        spec = SimpleNamespace(
            key=(7, 0, "ok"), controller_factory=_module_factory
        )
        CampaignExecutor._ensure_submittable([spec], [0])

    def test_chaos_workload_rejects_lambda_factory(self):
        from repro.experiments.chaos import ChaosWorkload

        with pytest.raises(
            AnalysisError, match=r"graph_factory.*\[REPRO201\]"
        ):
            ChaosWorkload(
                name="bad",
                description="lambda factory must be rejected",
                policy_interval=1.0,
                graph_factory=lambda: None,  # repro: allow[REPRO201] — deliberate: asserts rejection
                runtime_factory=_module_factory,
                parallelism_factory=_module_factory,
                controllers_factory=_module_factory,
            )

    def test_shipped_chaos_workloads_construct_cleanly(self):
        # WORKLOADS is built at import time, so importing it at all
        # proves every shipped factory passed ensure_parallel_safe.
        from repro.experiments.chaos import WORKLOADS

        assert WORKLOADS
