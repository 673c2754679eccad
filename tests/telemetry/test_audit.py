"""Decision-audit tests: building, round-trip, rendering, summary."""

from dataclasses import replace

import pytest

from repro.core.controller import ControlLoop, Controller
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.policy import DS2Policy
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.records import from_json, to_json
from repro.telemetry import (
    DecisionAudit,
    OperatorAudit,
    Tracer,
    finalize_audit,
    render_audit_summary,
    render_decision_audit,
    summarize_audits,
    tracing,
)


class Scripted(Controller):
    name = "scripted"

    def __init__(self, script):
        self.script = list(script)

    def on_metrics(self, observation):
        return self.script.pop(0) if self.script else None

    def notify_rescaled(self, time, outage_seconds, new_parallelism):
        pass


def _simulator(chain_graph, parallelism=1):
    plan = PhysicalPlan(chain_graph, {"worker": parallelism})
    return Simulator(
        plan,
        FlinkRuntime(),
        EngineConfig(tick=0.1, track_record_latency=False),
    )


def _sample_audit(**overrides):
    base = DecisionAudit(
        time=10.0,
        controller="ds2",
        window_start=5.0,
        window_end=10.0,
        window_age=0.0,
        outage_fraction=0.0,
        truncated=False,
        in_outage=False,
        degraded=False,
        rate_compensation=1.0,
        completeness={"worker": 1.0},
        source_target_rates={"src": 1000.0},
        source_observed_rates={"src": 990.0},
        current_parallelism={"worker": 1},
        operators=(
            OperatorAudit(
                operator="worker",
                current_parallelism=1,
                target_rate=1000.0,
                true_processing_rate=950.0,
                true_output_rate=950.0,
                selectivity=1.0,
                ideal_output_rate=1000.0,
                optimal_parallelism_raw=1.05,
                optimal_parallelism=2,
            ),
        ),
        proposal={"worker": 2},
    )
    if overrides:
        return finalize_audit(base, **overrides) \
            if "outcome" in overrides else base
    return base


class TestControlLoopAudits:
    def test_one_audit_per_invocation(self, chain_graph):
        loop = ControlLoop(
            _simulator(chain_graph),
            Scripted([{"worker": 2}]),
            policy_interval=5.0,
        )
        result = loop.run(20.0)
        assert len(result.audits) == 4
        outcomes = [audit.outcome for audit in result.audits]
        assert outcomes[0] == "rescaled"
        # The Flink rescale outage (25s) covers the remaining
        # intervals, so the loop skips them.
        assert set(outcomes[1:]) == {"skipped"}
        assert {a.skip_reason for a in result.audits[1:]} == {"outage"}
        rescaled = result.audits[0]
        assert rescaled.proposal == {"worker": 2}
        # applied records the full post-rescale deployment
        assert rescaled.applied == {"src": 1, "worker": 2, "snk": 1}
        assert rescaled.outage_seconds > 0.0
        assert rescaled.controller == "scripted"

    def test_ds2_controller_fills_operator_rows(self, chain_graph):
        ctrl = DS2Controller(
            DS2Policy(chain_graph),
            config=ManagerConfig(warmup_intervals=0),
        )
        loop = ControlLoop(
            _simulator(chain_graph), ctrl, policy_interval=5.0
        )
        result = loop.run(10.0)
        with_rows = [a for a in result.audits if a.operators]
        assert with_rows, "DS2 audits should carry Eq. 7/8 rows"
        row = with_rows[0].operators[0]
        assert row.operator in {"src", "worker", "snk"}
        assert row.current_parallelism >= 1

    def test_trace_carries_the_audit(self, chain_graph):
        tracer = Tracer()
        with tracing(tracer):
            loop = ControlLoop(
                _simulator(chain_graph),
                Scripted([{"worker": 2}]),
                policy_interval=5.0,
            )
            loop.run(10.0)
        invokes = tracer.events("controller.invoke")
        audits = tracer.events("controller.audit")
        assert len(invokes) == 2
        assert len(audits) == 2
        payload = audits[0].data["audit"]
        rebuilt = from_json(DecisionAudit, payload)
        assert rebuilt.outcome == "rescaled"
        assert rebuilt.applied == {"src": 1, "worker": 2, "snk": 1}


class TestRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        audit = _sample_audit(
            outcome="rescaled",
            applied={"worker": 2},
            outage_seconds=12.5,
            attempt=1,
        )
        assert from_json(DecisionAudit, to_json(audit)) == audit

    def test_loop_audits_round_trip(self, chain_graph):
        loop = ControlLoop(
            _simulator(chain_graph),
            Scripted([{"worker": 2}]),
            policy_interval=5.0,
        )
        result = loop.run(15.0)
        for audit in result.audits:
            assert from_json(DecisionAudit, to_json(audit)) == audit

    def test_malformed_payload_raises(self):
        with pytest.raises(ValueError, match=r"audit\.controller: missing"):
            from_json(DecisionAudit, {"time": 1.0}, "audit")
        bad_rows = to_json(_sample_audit())
        bad_rows["operators"] = [{"nope": 1}]
        with pytest.raises(
            ValueError, match=r"audit\.operators\[0\]: unknown field"
        ):
            from_json(DecisionAudit, bad_rows, "audit")
        not_a_list = to_json(_sample_audit())
        not_a_list["operators"] = "oops"
        with pytest.raises(
            ValueError, match=r"audit\.operators: expected a list"
        ):
            from_json(DecisionAudit, not_a_list, "audit")

    def test_values_are_not_coerced(self):
        """A value of the wrong JSON type is refused, naming its field
        — not carried into an audit that crashes its renderer."""
        payload = to_json(_sample_audit())
        payload["operators"][0]["target_rate"] = "fast"
        with pytest.raises(
            ValueError,
            match=r"audit\.operators\[0\]\.target_rate: expected a "
            r"number, got 'fast'",
        ):
            from_json(DecisionAudit, payload, "audit")
        payload = to_json(_sample_audit())
        payload["current_parallelism"]["worker"] = 1.5
        with pytest.raises(
            ValueError, match=r"current_parallelism\.worker: expected an"
        ):
            from_json(DecisionAudit, payload, "audit")


class TestRendering:
    def test_render_names_operators_and_outcome(self):
        audit = _sample_audit(
            outcome="rescaled",
            applied={"worker": 2},
            outage_seconds=12.5,
        )
        text = render_decision_audit(audit)
        assert "outcome=rescaled" in text
        assert "worker" in text
        assert "applied: worker=2 after 12.5s outage" in text
        assert "operator" in text and "optimal" in text

    def test_render_skipped_shows_reason(self):
        audit = finalize_audit(
            DecisionAudit(
                time=5.0,
                controller="ds2",
                window_start=0.0,
                window_end=5.0,
                window_age=0.0,
                outage_fraction=0.0,
                truncated=True,
                in_outage=False,
                degraded=False,
                rate_compensation=1.0,
                completeness={},
                source_target_rates={},
                source_observed_rates={},
                current_parallelism={"worker": 1},
                skip_reason="truncated-window",
            ),
            outcome="skipped",
        )
        text = render_decision_audit(audit)
        assert "outcome=skipped (truncated-window)" in text

    def test_render_failed_rescale(self):
        audit = _sample_audit(
            outcome="rescale-failed",
            attempt=2,
            failure_reason="runtime rejected",
        )
        text = render_decision_audit(audit)
        assert "rescale attempt 2 failed: runtime rejected" in text

    def test_unknown_operator_rendered_as_question_mark(self):
        payload = to_json(_sample_audit())
        payload["operators"][0]["unknown"] = True
        text = render_decision_audit(from_json(DecisionAudit, payload))
        assert "worker" in text
        assert "?" in text


class TestSummary:
    def test_summarize_counts_outcomes(self):
        audits = [
            _sample_audit(outcome="rescaled", applied={"worker": 2}),
            _sample_audit(outcome="rescale-failed", attempt=1),
            _sample_audit(),
        ]
        skipped = finalize_audit(
            replace(_sample_audit(), skip_reason="frozen"),
            outcome="skipped",
        )
        audits.append(skipped)
        summary = summarize_audits(audits)
        assert summary.invocations == 4
        assert summary.rescales == 1
        assert summary.failed_rescales == 1
        assert summary.holds == 1
        assert dict(summary.skips) == {"frozen": 1}
        assert summary.proposals == 4

    def test_render_summary(self):
        summary = summarize_audits(
            [_sample_audit(outcome="rescaled", applied={"worker": 2})]
        )
        text = render_audit_summary(summary)
        assert "1 invocations" in text
        assert "1 rescales" in text
