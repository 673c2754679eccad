"""Fair allocation of a shared capacity among competing demands.

Used in two places:

* dividing a worker's time among the operator instances it runs
  (Timely-style round-robin scheduling), and
* dividing the free space of downstream queues among the parallel
  instances of an upstream operator within one tick — without fairness,
  whichever instance happens to be processed first grabs the space,
  systematically starving the last instance and distorting the
  backpressure limit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import EngineError


def fair_allocate(
    total: float,
    desires: Sequence[float],
    counts: Optional[Sequence[int]] = None,
) -> List[float]:
    """Split ``total`` units among ``desires`` by water-filling.

    Every demand receives at most an equal share of what remains; shares
    unused by small demands are redistributed to larger ones. The result
    sums to ``min(total, sum(desires))`` and never exceeds any
    individual desire.

    ``total`` may be ``math.inf`` (everyone gets their full desire).

    ``counts`` makes entry ``i`` stand for ``counts[i]`` equal demands
    in a row (an engine lane), and the result holds one value per
    entry: bit for bit what the expanded list would give each of them,
    because every step that depends on the order (the sum of desires,
    the ``remaining -= grant`` drain, the active count) is replayed
    once per demand.
    """
    # Written so that NaN fails the check: a NaN total would starve
    # every demand without a word.
    if not total >= 0:
        raise EngineError(f"total must be >= 0, got {total!r}")
    desires = [max(0.0, d) for d in desires]
    if counts is None:
        counts = [1] * len(desires)
    elif len(counts) != len(desires) or any(c < 1 for c in counts):
        raise EngineError(
            "counts must hold one entry >= 1 per desire, got "
            f"{list(counts)!r} for {len(desires)} desires"
        )
    if math.isinf(total) or total >= sum(
        d for d, count in zip(desires, counts) for _ in range(count)
    ):
        return list(desires)
    allocation = [0.0] * len(desires)
    remaining = total
    active = [i for i, d in enumerate(desires) if d > 0]
    while active and remaining > 1e-12:
        width = sum(counts[index] for index in active)
        share = remaining / width
        next_active = []
        progressed = False
        for index in active:
            want = desires[index] - allocation[index]
            grant = min(share, want)
            allocation[index] += grant
            for _ in range(counts[index]):
                remaining -= grant
            if grant < want - 1e-15:
                next_active.append(index)
            else:
                progressed = True
        if not progressed:
            # Every active demand took a full share: the remainder is
            # split evenly and we are done (avoids float residue loops).
            share = remaining / width
            for index in active:
                allocation[index] += share
            remaining = 0.0
            break
        active = next_active
    return allocation


__all__ = ["fair_allocate"]
