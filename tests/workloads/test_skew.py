"""Unit tests for the skewed workload builders."""

import pytest

from repro.workloads.skew import PAPER_SKEW_LEVELS, skewed_wordcount_plan
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    flink_wordcount_graph,
    heron_wordcount_graph,
)


class TestSkewPlans:
    def test_paper_levels(self):
        assert PAPER_SKEW_LEVELS == (0.2, 0.5, 0.7)

    def test_count_receives_skewed_weights(self):
        graph = heron_wordcount_graph()
        plan = skewed_wordcount_plan(
            graph, {name: 1 for name in graph.names}, skew=0.5
        )
        plan = plan.with_parallelism({COUNT: 4})
        weights = plan.input_weights(COUNT)
        assert weights[0] == pytest.approx(0.5)
        assert sum(weights) == pytest.approx(1.0)

    def test_flatmap_stays_uniform(self):
        graph = heron_wordcount_graph()
        plan = skewed_wordcount_plan(
            graph, {name: 1 for name in graph.names}, skew=0.5
        )
        plan = plan.with_parallelism({FLATMAP: 4})
        weights = plan.input_weights(FLATMAP)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_heron_builder_defaults_underprovisioned(self):
        graph = heron_wordcount_graph()
        plan = skewed_wordcount_plan(
            graph, {name: 1 for name in graph.names}, skew=0.7
        )
        assert plan.parallelism_of(COUNT) == 1
        assert plan.input_weights(COUNT) == pytest.approx([1.0])

    def test_flink_builder_has_slot_limit(self):
        graph = flink_wordcount_graph()
        plan = skewed_wordcount_plan(
            graph, {name: 1 for name in graph.names}, skew=0.2,
            max_parallelism=36,
        )
        assert plan.max_parallelism == 36
        weights = plan.with_parallelism({COUNT: 5}).input_weights(COUNT)
        assert weights[0] == pytest.approx(0.2)
