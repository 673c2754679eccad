"""Unit tests for the flight recorder."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    active_tracer,
    read_trace,
    tracing,
)


class TestEmit:
    def test_seq_is_gap_free_and_zero_based(self):
        tracer = Tracer()
        tracer.emit("a.b", 1.0, x=1)
        tracer.emit("a.c", 2.0)
        assert [e.seq for e in tracer.events()] == [0, 1]
        assert len(tracer) == 2

    def test_payload_kept_verbatim(self):
        tracer = Tracer()
        tracer.emit("k", 0.5, op="worker", n=3)
        event = tracer.events()[0]
        assert event.kind == "k"
        assert event.time == 0.5
        assert event.data == {"op": "worker", "n": 3}

    def test_empty_kind_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer().emit("", 0.0)

    def test_filter_by_kind(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.emit("b", 1.0)
        tracer.emit("a", 2.0)
        assert [e.time for e in tracer.events("a")] == [0.0, 2.0]


class TestRingBuffer:
    """A tracer keeps every event it is given."""

    def test_unbounded_capacity(self):
        tracer = Tracer()
        for i in range(100):
            tracer.emit("k", float(i))
        assert len(tracer) == 100
        assert [e.seq for e in tracer.events()] == list(range(100))

    def test_clear_resets_everything(self):
        tracer = Tracer()
        tracer.emit("k", 0.0)
        tracer.emit("k", 1.0)
        tracer.clear()
        assert len(tracer) == 0
        tracer.emit("k", 2.0)
        assert tracer.events()[0].seq == 0


class TestJsonl:
    def test_lines_are_sorted_and_compact(self):
        tracer = Tracer()
        tracer.emit("engine.tick", 4.0, queued=1.5, outage=False)
        line = tracer.to_jsonl().splitlines()[0]
        assert line == (
            '{"data":{"outage":false,"queued":1.5},'
            '"kind":"engine.tick","seq":0,"t":4.0}'
        )

    def test_serialization_is_deterministic(self):
        def build():
            tracer = Tracer()
            tracer.emit("a", 0.25, z=1, a=2)
            tracer.emit("b", 0.5, nested={"y": [1, 2]})
            return tracer.to_jsonl()

        assert build() == build()

    def test_write_jsonl_roundtrips_through_read_trace(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a", 0.0, x=1)
        tracer.emit("b", 1.0)
        path = tmp_path / "t.jsonl"
        assert tracer.write_jsonl(path) == 2
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["a", "b"]
        assert records[0]["data"] == {"x": 1}

    def test_every_line_parses_as_json(self):
        tracer = Tracer()
        tracer.emit("k", 1.0, values=[1.0, 2.0], name="x")
        for line in tracer.to_jsonl().splitlines():
            assert sorted(json.loads(line)) == [
                "data", "kind", "seq", "t",
            ]


class TestNullTracer:
    def test_disabled_and_records_nothing(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit("k", 0.0, x=1)
        assert len(tracer) == 0

    def test_shared_instance_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestAmbient:
    def test_default_is_null(self):
        assert active_tracer() is NULL_TRACER

    def test_tracing_nests_and_restores(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            assert active_tracer() is outer
            with tracing(inner):
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is NULL_TRACER

    def test_restored_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracing(tracer):
                raise RuntimeError("boom")
        assert active_tracer() is NULL_TRACER
