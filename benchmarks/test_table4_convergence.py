"""Table 4 / section 5.4: DS2 convergence steps for the Nexmark queries.

All six queries (Table 3 source rates) from initial parallelism 8-28
under DS2 with a 30 s interval, 30 s warm-up, five-interval activation.
The regenerated table shows the per-step parallelism of each query's
main operator; the headline result holds: at most three steps, always
to the same final configuration.
"""

from benchmarks._util import emit_artifact
from repro.experiments.convergence import PAPER_INITIAL_CONFIGS, max_steps
from repro.workloads.nexmark import ALL_QUERIES


def test_table4_flink_convergence(benchmark):
    cells = emit_artifact(benchmark, "table4")

    assert max_steps(cells) <= 3
    # Every query converges to the same final configuration from every
    # starting point (accuracy + stability), matching Figure 8.
    for query in ALL_QUERIES:
        finals = {
            cells[(query.name, initial)].final
            for initial in PAPER_INITIAL_CONFIGS
        }
        assert finals == {query.indicated_flink}


def test_table4_timely_counterpart(benchmark):
    """Section 5.4: 'We also ran the same queries using Timely Dataflow
    and the results were similar' — DS2 picks 4 workers everywhere."""
    cells = emit_artifact(benchmark, "table4-timely")

    for cell in cells.values():
        assert cell.final == 4
        assert cell.step_count <= 3
