"""Trace schema validation, summarization, and the golden trace.

The golden-file test regenerates a small controlled run with tracing
active and byte-compares the JSONL export against the committed
``golden_trace.jsonl``. It fails whenever the trace schema, the event
vocabulary, or the simulator's determinism drifts; regenerate with::

    PYTHONPATH=src python -m tests.telemetry.test_trace_io
"""

from pathlib import Path

import pytest

from repro.core.controller import ControlLoop, Controller
from repro.dataflow.graph import Edge, LogicalGraph
from repro.dataflow.operators import (
    CostModel,
    RateSchedule,
    map_operator,
    sink,
    source,
)
from repro.dataflow.physical import PhysicalPlan
from repro.engine.runtimes import FlinkRuntime
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import TelemetryError
from repro.telemetry import (
    EPOCH_KIND,
    Tracer,
    read_trace,
    render_trace_summary,
    summarize_trace,
    tracing,
    validate_trace_record,
)

GOLDEN = Path(__file__).parent / "golden_trace.jsonl"


def _record(seq=0, t=0.0, kind="k", data=None):
    return {"seq": seq, "t": t, "kind": kind, "data": data or {}}


class TestValidateRecord:
    def test_accepts_a_valid_record(self):
        record = _record(data={"x": 1})
        assert validate_trace_record(record, 1) is record

    def test_rejects_non_object(self):
        with pytest.raises(TelemetryError, match="line 3"):
            validate_trace_record([1, 2], 3)

    def test_rejects_wrong_keys(self):
        with pytest.raises(TelemetryError, match="keys"):
            validate_trace_record({"seq": 0, "t": 0.0, "kind": "k"}, 1)
        extra = dict(_record(), extra=1)
        with pytest.raises(TelemetryError, match="keys"):
            validate_trace_record(extra, 1)

    def test_rejects_bad_seq(self):
        for seq in (-1, 1.5, "0", True):
            with pytest.raises(TelemetryError, match="seq"):
                validate_trace_record(_record(seq=seq), 1)

    def test_rejects_seq_gap(self):
        with pytest.raises(TelemetryError, match="gap-free"):
            validate_trace_record(_record(seq=5), 1, previous_seq=3)

    def test_rejects_empty_kind(self):
        with pytest.raises(TelemetryError, match="kind"):
            validate_trace_record(_record(kind=""), 1)

    def test_rejects_bad_time(self):
        for t in ("1.0", None, True):
            with pytest.raises(TelemetryError, match="t must"):
                validate_trace_record(_record(t=t), 1)

    def test_rejects_time_regression(self):
        with pytest.raises(TelemetryError, match="precedes"):
            validate_trace_record(
                _record(t=1.0), 1, previous_time=5.0
            )

    def test_epoch_kind_may_reset_the_clock(self):
        record = _record(t=0.0, kind=EPOCH_KIND)
        assert (
            validate_trace_record(record, 1, previous_time=1200.0)
            is record
        )

    def test_rejects_non_object_data(self):
        with pytest.raises(TelemetryError, match="data"):
            validate_trace_record(_record(data=3), 1)  # type: ignore


class TestReadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            read_trace(tmp_path / "nope.jsonl")

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"data":{},"kind":"k","seq":0,"t":0.0}\nnot json\n'
        )
        with pytest.raises(TelemetryError, match="line 2"):
            read_trace(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"data":{},"kind":"k","seq":0,"t":0.0}\n\n'
            '{"data":{},"kind":"k","seq":1,"t":1.0}\n'
        )
        assert len(read_trace(path)) == 2


class TestSummarize:
    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.events == 0
        assert summary.span == 0.0

    def test_counts_by_category(self):
        records = [
            _record(0, 0.0, "engine.start"),
            _record(1, 5.0, "controller.invoke"),
            _record(2, 5.0, "engine.rescale"),
            _record(3, 6.0, "fault.InstanceCrash"),
            _record(4, 7.0, "fault.MetricDropout"),
        ]
        summary = summarize_trace(records)
        assert summary.decisions == 1
        assert summary.rescales == 1
        assert summary.faults == 2
        assert dict(summary.kinds)["fault.InstanceCrash"] == 1
        assert summary.span == 7.0

    def test_render_notes_ring_eviction(self):
        summary = summarize_trace([_record(seq=10, t=3.0)])
        assert summary.dropped == 10
        text = render_trace_summary(summary)
        assert "seq 10" in text
        assert "the first 10 event(s) are missing" in text
        assert "truncated" in text
        # No tracer drops events any more: the hint names the command
        # that records a complete trace, and no capacity knob.
        assert "`repro run --trace`" in text
        assert "capacity" not in text

    def test_complete_trace_reports_no_drops(self):
        summary = summarize_trace([_record(seq=0, t=3.0)])
        assert summary.dropped == 0
        assert "truncated" not in render_trace_summary(summary)


def _scripted_golden_run() -> Tracer:
    """A fixed seeded run whose trace is committed as the golden file."""

    class Scripted(Controller):
        name = "scripted"

        def __init__(self):
            self.script = [{"worker": 2}]

        def on_metrics(self, observation):
            return self.script.pop(0) if self.script else None

        def notify_rescaled(
            self, time, outage_seconds, new_parallelism
        ):
            pass

    graph = LogicalGraph(
        operators=[
            source("src", rate=RateSchedule.constant(1000.0)),
            map_operator(
                "worker", costs=CostModel(processing_cost=1e-3)
            ),
            sink("snk"),
        ],
        edges=[Edge("src", "worker"), Edge("worker", "snk")],
    )
    plan = PhysicalPlan(graph, {"worker": 1})
    tracer = Tracer()
    with tracing(tracer):
        sim = Simulator(
            plan,
            FlinkRuntime(),
            EngineConfig(tick=0.5, track_record_latency=False),
        )
        loop = ControlLoop(sim, Scripted(), policy_interval=5.0)
        loop.run(15.0)
    return tracer


class TestGoldenTrace:
    def test_golden_trace_is_reproducible(self):
        assert GOLDEN.exists(), (
            "golden_trace.jsonl missing — regenerate with "
            "`python -m tests.telemetry.test_trace_io`"
        )
        regenerated = _scripted_golden_run().to_jsonl()
        assert regenerated == GOLDEN.read_text(encoding="utf-8"), (
            "traced run no longer matches the committed golden trace; "
            "if the schema change is intentional, regenerate it"
        )

    def test_golden_trace_validates(self):
        records = read_trace(GOLDEN)
        assert records, "golden trace is empty"
        assert records[0]["kind"] == EPOCH_KIND
        kinds = {record["kind"] for record in records}
        assert "controller.invoke" in kinds
        assert "controller.audit" in kinds
        assert "engine.rescale" in kinds
        assert "metrics.collect" in kinds

    def test_golden_trace_summary_renders(self):
        summary = summarize_trace(read_trace(GOLDEN))
        text = render_trace_summary(summary)
        assert "decisions: 3" in text
        assert "rescales: 1" in text


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.write_text(
        _scripted_golden_run().to_jsonl(), encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
