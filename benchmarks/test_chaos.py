"""Robustness: seeded chaos campaigns with SASO scorecards.

The full acceptance batch of the chaos subsystem: 20 sampled campaigns
of the ``mixed`` profile (crashes, metric dropout, metrics lag, counter
corruption, rescale failures) × three controllers on the Heron
wordcount, scored into SASO scorecards, plus the crash-only recovery
comparison across the three runtimes. Headline results:

* hardened DS2 wins the aggregate SASO score against both legacy DS2
  and Dhalion over the whole campaign distribution, not just a
  hand-picked schedule;
* the batch is deterministic — re-running it yields byte-identical
  scorecards and report;
* the three runtimes show distinct crash-recovery distributions
  (Flink savepoint restore > Heron container restart > Timely peer
  re-sync).

Campaign cells honour the ``REPRO_JOBS`` environment variable: set
``REPRO_JOBS=4`` to run this batch on a process pool. The scorecards
and the emitted artifact are byte-identical either way (see
``test_chaos_parallel.py``).
"""

from benchmarks._util import emit_artifact
from repro.experiments.chaos import chaos_report, run_chaos


def test_chaos_campaigns(benchmark):
    result = emit_artifact(benchmark, "chaos")

    # Hardened DS2 tops the ranking on mean SASO score.
    assert result.ranking()[0] == "ds2"
    ds2 = result.aggregates["ds2"]
    legacy = result.aggregates["ds2-legacy"]
    dhalion = result.aggregates["dhalion"]
    assert ds2.mean_score < legacy.mean_score
    assert ds2.mean_score < dhalion.mean_score
    # The hardening specifically suppresses oscillation under telemetry
    # faults — legacy flaps, hardened mostly holds.
    assert ds2.mean_oscillations < legacy.mean_oscillations

    # Distinct per-runtime recovery distributions, meaningfully apart.
    means = {
        runtime: sum(samples) / len(samples)
        for runtime, samples in result.recovery.items()
    }
    assert means["flink"] > 1.5 * means["heron"] > 1.5 * means["timely"]

    # Determinism: the same batch replays to identical scorecards.
    replay = run_chaos(profile="mixed", campaigns=20, seed=1)
    assert replay.scorecards == result.scorecards
    assert chaos_report(replay) == chaos_report(result)
