"""Figure 6 / section 5.2: DS2 vs Dhalion on the Heron wordcount.

Dhalion takes many single-operator speculative steps (over 30 minutes)
and ends over-provisioned; DS2 identifies the exact optimum — 10
FlatMap, 20 Count — in a single step after one 60-second metrics
window, i.e. two orders of magnitude faster.
"""

from benchmarks._util import emit_artifact


def test_fig6_ds2_vs_dhalion(benchmark):
    dhalion, ds2 = emit_artifact(benchmark, "fig6")

    # DS2: one step, exact optimum, after one 60 s window.
    assert ds2.steps == 1
    assert (ds2.final_flatmap, ds2.final_count) == (10, 20)
    assert ds2.convergence_time <= 120.0
    # Dhalion: many steps, much slower, over-provisioned.
    assert dhalion.steps >= 5
    assert dhalion.convergence_time / ds2.convergence_time > 10
    assert dhalion.overprovisioning_factor > 1.2
