"""Keyed state and savepoint cost models.

Rescaling in Flink-style systems works by taking a *savepoint* (a
consistent snapshot of all operator state), halting the job, and
redeploying it with the new parallelism (section 4.2 of the paper; the
paper measures 30-50 s outages for the wordcount job). The outage length
is dominated by snapshotting and restoring state, so we model state size
explicitly: every stateful operator accumulates ``state_bytes_per_record``
for each record processed (bounded by ``max_state_bytes``), and the
savepoint model converts total state bytes into an outage duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from repro.dataflow.graph import LogicalGraph
from repro.errors import EngineError


@dataclass
class StateModel:
    """Tracks accumulated keyed state per operator.

    The model is deliberately coarse: state grows linearly with records
    processed up to a cap (windows expire, joins evict), which is all the
    savepoint cost model needs.
    """

    graph: LogicalGraph
    max_state_bytes: float = 4e9
    _bytes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Written so that NaN fails it, as every check in this module.
        if not self.max_state_bytes > 0:
            raise EngineError("max_state_bytes must be > 0")
        for name in self.graph.names:
            self._bytes.setdefault(name, 0.0)

    def record_processed(self, operator: str, records: float) -> None:
        """Accumulate state for ``records`` processed by ``operator``."""
        if not records >= 0:
            raise EngineError("records must be >= 0")
        spec = self.graph.operator(operator)
        if spec.state_bytes_per_record <= 0:
            return
        grown = self._bytes[operator] + records * spec.state_bytes_per_record
        self._bytes[operator] = min(grown, self.max_state_bytes)

    def record_processed_block(
        self,
        operator: str,
        records: Sequence[float],
        counts: Sequence[int],
    ) -> None:
        """Accumulate state for a batch of per-instance record counts,
        where ``records[i]`` stands for ``counts[i]`` instances in a
        row (an engine lane).

        Bit-identical to calling :meth:`record_processed` once per
        instance in order — the same left-to-right ``min(grown, cap)``
        sequence — with the operator spec looked up and each lane's
        growth computed once. Every growth is >= 0, so the running
        total never decreases and, once capped, stays capped: the cap
        is applied once per lane, after its adds. Used by the engine,
        one call per operator per tick.
        """
        if len(records) != len(counts):
            raise EngineError("records and counts must have equal length")
        for value in records:
            if not value >= 0:
                raise EngineError("records must be >= 0")
        spec = self.graph.operator(operator)
        per_record = spec.state_bytes_per_record
        if per_record <= 0:
            return
        total = self._bytes[operator]
        cap = self.max_state_bytes
        for value, count in zip(records, counts):
            grow = value * per_record
            for _ in range(count):
                total += grow
            # min(total, cap), ties included, once per lane that added.
            if count > 0 and cap < total:
                total = cap
        self._bytes[operator] = total

    def state_bytes(self, operator: str) -> float:
        """Current state size of ``operator`` in bytes."""
        try:
            return self._bytes[operator]
        except KeyError:
            raise EngineError(f"unknown operator {operator!r}") from None

    @property
    def total_bytes(self) -> float:
        """Total state across all operators."""
        return sum(self._bytes.values())

    def snapshot(self) -> Dict[str, float]:
        """A copy of the per-operator state sizes."""
        return dict(self._bytes)

    def restore(self, snapshot: Mapping[str, float]) -> None:
        """Restore per-operator state sizes from a snapshot (state
        survives a rescale: it is redistributed, not discarded)."""
        for name, value in snapshot.items():
            if name not in self._bytes:
                raise EngineError(f"unknown operator {name!r} in snapshot")
            if not value >= 0:
                raise EngineError("state bytes must be >= 0")
            self._bytes[name] = value


@dataclass(frozen=True)
class SavepointModel:
    """Converts state size into a rescaling outage duration.

    ``outage = base_seconds + total_state_bytes / snapshot_bandwidth
    + redeploy_seconds``. Defaults are calibrated to reproduce the
    30-50 s Flink outages reported in section 5.3 for a wordcount job
    with a few GB of counter state.
    """

    base_seconds: float = 10.0
    snapshot_bandwidth: float = 200e6
    redeploy_seconds: float = 15.0

    def __post_init__(self) -> None:
        if not self.base_seconds >= 0:
            raise EngineError("base_seconds must be >= 0")
        if not self.snapshot_bandwidth > 0:
            raise EngineError("snapshot_bandwidth must be > 0")
        if not self.redeploy_seconds >= 0:
            raise EngineError("redeploy_seconds must be >= 0")

    def outage_seconds(self, total_state_bytes: float) -> float:
        """Duration of the halt-snapshot-redeploy outage."""
        if not total_state_bytes >= 0:
            raise EngineError("total_state_bytes must be >= 0")
        return (
            self.base_seconds
            + total_state_bytes / self.snapshot_bandwidth
            + self.redeploy_seconds
        )

    @classmethod
    def instant(cls) -> "SavepointModel":
        """A zero-cost reconfiguration mechanism, useful in unit tests
        and to isolate policy behavior from mechanism latency."""
        return cls(base_seconds=0.0, snapshot_bandwidth=1e18,
                   redeploy_seconds=0.0)


__all__ = ["SavepointModel", "StateModel"]
