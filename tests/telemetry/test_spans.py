"""Unit + determinism tests for the hierarchical span profiler.

The determinism contract (ISSUE 9): span *structure* — names, counts,
nesting — is a pure function of the seeded virtual-time run. Identical
seeds produce identical trees under the serial and process-pool
campaign executors.
Wall-clock seconds live only in the timed channel and are never part
of the compared structure.
"""

import threading

import pytest

from repro.errors import TelemetryError
from repro.faults.campaigns import (
    PROFILES,
    CampaignGenerator,
    CampaignTargets,
)
from repro.faults.executor import CampaignExecutor
from repro.telemetry.spans import (
    NULL_PROFILER,
    SPAN_SCHEMA_VERSION,
    NullSpanProfiler,
    SpanNode,
    SpanProfiler,
    active_profiler,
    profiling,
)
from repro.workloads.wordcount import heron_wordcount_graph


class TestSpanProfiler:
    def test_enter_exit_counts_and_nesting(self):
        profiler = SpanProfiler()
        with profiler.span("engine.tick"):
            with profiler.span("engine.allocate"):
                pass
            with profiler.span("engine.allocate"):
                pass
        with profiler.span("engine.tick"):
            pass
        tree = profiler.tree()
        tick = tree.children["engine.tick"]
        assert tick.count == 2
        assert tick.children["engine.allocate"].count == 2
        assert "engine.allocate" not in tree.children

    def test_exit_accumulates_seconds(self):
        profiler = SpanProfiler()
        with profiler.span("work"):
            pass
        node = profiler.tree().children["work"]
        assert node.seconds >= 0.0

    def test_mismatched_exit_raises(self):
        profiler = SpanProfiler()
        profiler.enter("a")
        with pytest.raises(TelemetryError, match="does not match"):
            profiler.exit("b")

    def test_exit_without_open_span_raises(self):
        profiler = SpanProfiler()
        with pytest.raises(TelemetryError, match="no span open"):
            profiler.exit("a")

    def test_to_dict_sorts_children_and_stamps_schema(self):
        profiler = SpanProfiler()
        for name in ("zeta", "alpha", "mid"):
            with profiler.span(name):
                pass
        payload = profiler.to_dict()
        assert payload["schema"] == SPAN_SCHEMA_VERSION
        assert [c["name"] for c in payload["children"]] == [
            "alpha", "mid", "zeta",
        ]
        assert all("seconds" in c for c in payload["children"])

    def test_structure_excludes_wall_times(self):
        profiler = SpanProfiler()
        with profiler.span("engine.tick"):
            pass
        structure = profiler.structure()
        assert "seconds" not in structure
        assert "seconds" not in structure["children"][0]

    def test_merge_payload_adds_counts(self):
        worker = SpanProfiler()
        with worker.span("engine.tick"):
            with worker.span("engine.allocate"):
                pass
        parent = SpanProfiler()
        with parent.span("engine.tick"):
            pass
        parent.merge(worker.to_dict())
        parent.merge(None)  # tolerated no-op
        tick = parent.tree().children["engine.tick"]
        assert tick.count == 2
        assert tick.children["engine.allocate"].count == 1

    def test_merge_rejects_malformed_payload(self):
        parent = SpanProfiler()
        with pytest.raises(TelemetryError, match="count"):
            parent.merge({"name": "root", "count": "many"})
        with pytest.raises(TelemetryError, match="without a name"):
            parent.merge({
                "name": "root", "count": 1,
                "children": [{"count": 1}],
            })

    def test_threads_record_into_separate_subtrees(self):
        profiler = SpanProfiler()

        def record():
            for _ in range(50):
                with profiler.span("worker.step"):
                    pass

        threads = [
            threading.Thread(target=record) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert profiler.tree().children["worker.step"].count == 200

    def test_clear_drops_recorded_spans(self):
        profiler = SpanProfiler()
        with profiler.span("a"):
            pass
        profiler.clear()
        assert profiler.tree().children == {}

    def test_render_lists_counts(self):
        profiler = SpanProfiler()
        with profiler.span("engine.tick"):
            with profiler.span("engine.allocate"):
                pass
        text = profiler.render(include_times=False)
        assert "engine.tick" in text
        assert "  engine.allocate" in text
        assert "ms" not in text
        assert "ms" in profiler.render(include_times=True)

    def test_span_node_merge_node(self):
        left, right = SpanNode("root"), SpanNode("root")
        left.child("a").count = 1
        right.child("a").count = 2
        right.child("b").count = 3
        left.merge_node(right)
        assert left.children["a"].count == 3
        assert left.children["b"].count == 3


class TestAmbientProfiler:
    def test_default_is_null(self):
        assert active_profiler() is NULL_PROFILER
        assert NULL_PROFILER.enabled is False

    def test_profiling_makes_profiler_ambient(self):
        profiler = SpanProfiler()
        with profiling(profiler) as active:
            assert active is profiler
            assert active_profiler() is profiler
        assert active_profiler() is NULL_PROFILER

    def test_null_profiler_is_inert(self):
        null = NullSpanProfiler()
        null.enter("a")
        null.exit("b")  # no mismatch error: recording is off
        null.merge({"name": "root", "count": 1})
        assert null.tree().children == {}


def _smoke_structure(jobs=None):
    """Span structure of the 2-campaign smoke chaos batch."""
    from repro.experiments.chaos import resolve_workload

    runner = resolve_workload("wordcount").runner(2.0)
    generator = CampaignGenerator(
        PROFILES["smoke"],
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=1,
    )
    executor = (
        CampaignExecutor()
        if jobs is None
        else CampaignExecutor(jobs=jobs, pool_timeout=180.0)
    )
    profiler = SpanProfiler()
    with profiling(profiler):
        runner.run(generator, 2, executor=executor)
    return profiler.structure()


class TestSpanDeterminism:
    def test_identical_seeds_identical_structure(self):
        first = _smoke_structure()
        second = _smoke_structure()
        assert first == second
        names = {c["name"] for c in first["children"]}
        assert "engine.tick" in names
        assert "controller.decide" in names

    def test_serial_matches_jobs_2(self):
        serial = _smoke_structure()
        parallel = _smoke_structure(jobs=2)
        assert serial == parallel

    def test_disabled_profiler_records_nothing(self):
        from repro.experiments.chaos import resolve_workload

        runner = resolve_workload("wordcount").runner(2.0)
        generator = CampaignGenerator(
            PROFILES["smoke"],
            CampaignTargets.from_graph(heron_wordcount_graph()),
            seed=1,
        )
        runner.run(generator, 1, executor=CampaignExecutor())
        assert active_profiler().tree().children == {}
