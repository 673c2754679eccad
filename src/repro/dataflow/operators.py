"""Operator specifications and cost models for streaming dataflows.

An :class:`OperatorSpec` describes one logical operator: what kind of
computation it performs, how expensive a single record is to deserialize,
process, and serialize (the three activities whose durations make up the
DS2 paper's *useful time*, section 3.2), its selectivity (output records
per input record), and — for sources — the rate at which it produces
records.

The engine consumes these specs to simulate execution; the DS2 controller
never sees them. The controller only observes the counters the engine
derives from them, exactly as the real DS2 only observes instrumentation
counters from Flink/Timely/Heron.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import GraphError


def _finite_at_least_zero(value: float) -> bool:
    """Whether ``value`` is a finite number >= 0. NaN and infinities
    fail: they would poison every rate the engine and DS2 derive."""
    return 0.0 <= value < math.inf


def _finite_above_zero(value: float) -> bool:
    """Whether ``value`` is a finite number > 0."""
    return 0.0 < value < math.inf


class OperatorKind(enum.Enum):
    """The kinds of operators supported by the simulator.

    The set mirrors the operators exercised by the paper's evaluation:
    stateless transformations (map, flatmap, filter), a stateful
    record-at-a-time two-input join, window operators (tumbling, sliding,
    session — captured by :class:`WindowSpec`), plus sources and sinks.
    """

    SOURCE = "source"
    SINK = "sink"
    MAP = "map"
    FLATMAP = "flatmap"
    FILTER = "filter"
    JOIN = "join"
    WINDOW = "window"


@dataclass(frozen=True)
class CostModel:
    """Per-record execution costs of an operator instance, in seconds.

    ``deserialization_cost`` and ``serialization_cost`` apply when a record
    crosses a process boundary (always, in our simulated shared-nothing
    deployment). ``processing_cost`` is the user-logic cost.

    ``coordination_alpha`` models sub-linear scaling (section 3.4 of the
    paper): with parallelism ``p`` the effective per-record cost becomes
    ``base_cost * (1 + coordination_alpha * (p - 1))``. With ``alpha == 0``
    the perfect-scaling assumption holds exactly and DS2 converges in a
    single step; with a small positive alpha, DS2 needs the extra one or
    two refinement steps reported in Table 4.
    """

    processing_cost: float
    deserialization_cost: float = 0.0
    serialization_cost: float = 0.0
    coordination_alpha: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "processing_cost",
            "deserialization_cost",
            "serialization_cost",
            "coordination_alpha",
        ):
            value = getattr(self, name)
            if not _finite_at_least_zero(value):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )

    @property
    def base_cost(self) -> float:
        """Total useful-time cost of one record at parallelism 1."""
        return (
            self.deserialization_cost
            + self.processing_cost
            + self.serialization_cost
        )

    def effective_cost(self, parallelism: int) -> float:
        """Per-record cost at the given parallelism, including the
        coordination overhead that makes scaling sub-linear."""
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        overhead = 1.0 + self.coordination_alpha * (parallelism - 1)
        return self.base_cost * overhead

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every per-record cost multiplied by
        ``factor`` (used e.g. to model instrumentation overhead)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return CostModel(
            processing_cost=self.processing_cost * factor,
            deserialization_cost=self.deserialization_cost * factor,
            serialization_cost=self.serialization_cost * factor,
            coordination_alpha=self.coordination_alpha,
        )


@dataclass(frozen=True)
class Selectivity:
    """Output records produced per input record processed.

    The DS2 model calls the measured ratio ``o[λo] / o[λp]`` the
    selectivity of an operator (Eq. 8). Here it is ground truth the engine
    uses to generate output; the controller re-derives it from counters.
    """

    ratio: float

    def __post_init__(self) -> None:
        if not _finite_at_least_zero(self.ratio):
            raise ValueError(
                f"selectivity ratio must be finite and >= 0, "
                f"got {self.ratio!r}"
            )

    def outputs_for(self, records: float) -> float:
        """Number of output records for ``records`` processed inputs."""
        return records * self.ratio


@dataclass(frozen=True)
class RateSchedule:
    """A piecewise-constant source rate over virtual time.

    ``steps`` is a sequence of ``(start_time, rate)`` pairs sorted by
    start time; the first start time must be 0. The rate is in records
    per second of virtual time. This supports the dynamic-workload
    experiment of section 5.3 (2M records/s for phase one, then 1M).
    """

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("rate schedule needs at least one step")
        if self.steps[0][0] != 0.0:
            raise ValueError("first step of a rate schedule must start at 0")
        previous = -math.inf
        for start, rate in self.steps:
            if not math.isfinite(start):
                raise ValueError(
                    f"rate schedule start times must be finite, "
                    f"got {start!r}"
                )
            if start <= previous:
                raise ValueError("rate schedule steps must be increasing")
            if not _finite_at_least_zero(rate):
                raise ValueError(
                    f"rates must be finite and >= 0, got {rate!r}"
                )
            previous = start

    @classmethod
    def constant(cls, rate: float) -> "RateSchedule":
        """A schedule with a single fixed rate."""
        return cls(steps=((0.0, rate),))

    @classmethod
    def phases(cls, phases: Sequence[Tuple[float, float]]) -> "RateSchedule":
        """Build a schedule from ``(start_time, rate)`` pairs."""
        return cls(steps=tuple(phases))

    def rate_at(self, time: float) -> float:
        """The source rate in effect at virtual time ``time``."""
        if time < 0:
            raise ValueError("time must be >= 0")
        current = self.steps[0][1]
        for start, rate in self.steps:
            if start <= time:
                current = rate
            else:
                break
        return current

    @property
    def max_rate(self) -> float:
        """The highest rate anywhere in the schedule."""
        return max(rate for _, rate in self.steps)


class WindowKind(enum.Enum):
    """Window flavors exercised by the Nexmark queries in the paper:
    sliding (Q5), tumbling (Q8), and session (Q11)."""

    TUMBLING = "tumbling"
    SLIDING = "sliding"
    SESSION = "session"


@dataclass(frozen=True)
class WindowSpec:
    """Behavior of a window operator.

    A naive window operator buffers records cheaply on arrival
    (``assign_cost`` per record) and performs the actual computation when
    the window fires (``fire_cost`` per buffered record), emitting
    ``fire_selectivity`` output records per buffered record. Section 4.2.1
    of the paper discusses exactly this bursty profile: the processing
    rate looks high while records are merely assigned, then drops when a
    window fires. The engine reproduces that profile; DS2's activation
    time smooths it out.

    ``length`` is the window size in seconds of virtual (event) time;
    ``slide`` applies to sliding windows (fires every ``slide`` seconds,
    each record belongs to ``length / slide`` windows); ``gap`` applies to
    session windows (a session closes after ``gap`` seconds without input,
    simulated as periodic fires at the average session length).
    """

    kind: WindowKind
    length: float
    slide: Optional[float] = None
    gap: Optional[float] = None
    assign_cost: float = 1e-7
    fire_cost: float = 1e-6
    fire_selectivity: float = 0.01
    #: Whether firing is spread continuously over time instead of
    #: happening in synchronized bursts. Tumbling and sliding windows
    #: are epoch-aligned and fire all keys at once (the load spikes
    #: section 5.5 discusses for Q5); session windows close per key
    #: whenever that key goes quiet, so their fire work arrives smoothly.
    staggered: bool = False

    def __post_init__(self) -> None:
        if not _finite_above_zero(self.length):
            raise ValueError("window length must be finite and > 0")
        if self.kind is WindowKind.SLIDING:
            if self.slide is None or not _finite_above_zero(self.slide):
                raise ValueError("sliding windows need a positive slide")
            if self.slide > self.length:
                raise ValueError("slide must be <= window length")
        if self.kind is WindowKind.SESSION:
            if self.gap is None or not _finite_above_zero(self.gap):
                raise ValueError("session windows need a positive gap")
        if not (
            _finite_at_least_zero(self.assign_cost)
            and _finite_at_least_zero(self.fire_cost)
        ):
            raise ValueError("window costs must be finite and >= 0")
        if not _finite_at_least_zero(self.fire_selectivity):
            raise ValueError("fire_selectivity must be finite and >= 0")

    @property
    def fire_interval(self) -> float:
        """Virtual-time interval between consecutive window firings."""
        if self.kind is WindowKind.SLIDING:
            assert self.slide is not None
            return self.slide
        if self.kind is WindowKind.SESSION:
            assert self.gap is not None
            # Sessions close on inactivity; in a steady stream we model an
            # average session duration of length + gap.
            return self.length + self.gap
        return self.length

    @property
    def replication(self) -> float:
        """How many windows each record is assigned to (sliding windows
        replicate records across overlapping windows)."""
        if self.kind is WindowKind.SLIDING:
            assert self.slide is not None
            return self.length / self.slide
        return 1.0


@dataclass(frozen=True)
class OperatorSpec:
    """Complete description of one logical operator.

    Attributes:
        name: Unique operator name within its graph.
        kind: The operator's :class:`OperatorKind`.
        costs: Per-record cost model (ignored for sources, which are
            limited only by their rate schedule).
        selectivity: Output records per processed input record. Sources
            use selectivity implicitly equal to 1 relative to their
            generated records; window operators derive their long-run
            selectivity from the window spec.
        rate: Source rate schedule; required iff ``kind == SOURCE``.
        rate_limit: Optional cap on records processed per second per
            instance, regardless of CPU cost — used to reproduce the
            rate-limited operators of the Dhalion wordcount benchmark.
        window: Window behavior; required iff ``kind == WINDOW``.
        state_bytes_per_record: Bytes of keyed state retained per processed
            record; drives savepoint size and thus rescaling outage.
        record_bytes: Typical serialized size of the records in this
            operator's *input* queue, used to size byte-bounded queues
            (Heron's 100 MiB buffers). For sources it describes the
            emitted records (sources have no input queue).
        data_parallel: Whether the operator can be scaled. DS2 assumes
            data-parallel operators (section 3.3); non-parallel operators
            are pinned at parallelism 1 and skipped by the policy.
        busy_spin: Whether idle instances consume their time budget
            spinning (Timely-style) rather than blocking (Flink-style).
            Engine runtimes may override this globally.
    """

    name: str
    kind: OperatorKind
    costs: CostModel = field(
        default_factory=lambda: CostModel(processing_cost=1e-6)
    )
    selectivity: Selectivity = field(
        default_factory=lambda: Selectivity(ratio=1.0)
    )
    rate: Optional[RateSchedule] = None
    rate_limit: Optional[float] = None
    window: Optional[WindowSpec] = None
    state_bytes_per_record: float = 0.0
    record_bytes: float = 100.0
    data_parallel: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("operator name must be non-empty")
        if self.kind is OperatorKind.SOURCE and self.rate is None:
            raise GraphError(
                f"source operator {self.name!r} needs a rate schedule"
            )
        if self.kind is not OperatorKind.SOURCE and self.rate is not None:
            raise GraphError(
                f"non-source operator {self.name!r} cannot have a rate"
            )
        if self.kind is OperatorKind.WINDOW and self.window is None:
            raise GraphError(
                f"window operator {self.name!r} needs a window spec"
            )
        if self.kind is not OperatorKind.WINDOW and self.window is not None:
            raise GraphError(
                f"non-window operator {self.name!r} cannot have a window"
            )
        if self.rate_limit is not None and not _finite_above_zero(
            self.rate_limit
        ):
            raise GraphError("rate_limit must be finite and > 0 when given")
        if not _finite_at_least_zero(self.state_bytes_per_record):
            raise GraphError("state_bytes_per_record must be finite and >= 0")
        if not _finite_above_zero(self.record_bytes):
            raise GraphError("record_bytes must be finite and > 0")

    @property
    def is_source(self) -> bool:
        return self.kind is OperatorKind.SOURCE

    @property
    def is_sink(self) -> bool:
        return self.kind is OperatorKind.SINK

    @property
    def long_run_selectivity(self) -> float:
        """Average output records per input record over long horizons.

        For window operators the instantaneous selectivity oscillates
        (zero between fires, large at a fire); the long-run value is
        ``replication * fire_selectivity``.
        """
        if self.window is not None:
            return self.window.replication * self.window.fire_selectivity
        return self.selectivity.ratio

    def per_record_cost(self) -> float:
        """Steady-state useful-time cost of one input record at p=1.

        For window operators this is the assignment cost plus the
        amortized fire cost per record (each record is assigned to
        ``replication`` windows and eventually processed by each fire).
        """
        if self.window is not None:
            w = self.window
            return (
                self.costs.base_cost
                + w.replication * (w.assign_cost + w.fire_cost)
            )
        if self.rate_limit is not None:
            # A rate-limited instance cannot process faster than the cap
            # even if its CPU cost is lower.
            return max(self.costs.base_cost, 1.0 / self.rate_limit)
        return self.costs.base_cost


def source(
    name: str,
    rate: RateSchedule,
    record_bytes: float = 100.0,
) -> OperatorSpec:
    """Create a source operator producing records at ``rate``."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.SOURCE,
        rate=rate,
        record_bytes=record_bytes,
        costs=CostModel(processing_cost=0.0),
    )


def sink(name: str, costs: Optional[CostModel] = None) -> OperatorSpec:
    """Create a sink operator (records are consumed, nothing emitted).

    The default cost models a null sink (the benchmarks' sinks discard
    records); it is cheap enough that a single unscaled sink instance
    never bottlenecks the dataflows used here. Pass ``costs`` to model
    an expensive sink (e.g. an external writer).
    """
    return OperatorSpec(
        name=name,
        kind=OperatorKind.SINK,
        costs=costs or CostModel(processing_cost=1e-9),
        selectivity=Selectivity(ratio=0.0),
    )


def map_operator(
    name: str,
    costs: CostModel,
    rate_limit: Optional[float] = None,
    state_bytes_per_record: float = 0.0,
    record_bytes: float = 100.0,
) -> OperatorSpec:
    """Create a 1-to-1 map operator."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.MAP,
        costs=costs,
        selectivity=Selectivity(ratio=1.0),
        rate_limit=rate_limit,
        state_bytes_per_record=state_bytes_per_record,
        record_bytes=record_bytes,
    )


def flatmap(
    name: str,
    costs: CostModel,
    selectivity: float,
    rate_limit: Optional[float] = None,
    state_bytes_per_record: float = 0.0,
    record_bytes: float = 100.0,
) -> OperatorSpec:
    """Create a flatmap operator emitting ``selectivity`` records per
    input record (may be > 1, e.g. sentence splitting)."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.FLATMAP,
        costs=costs,
        selectivity=Selectivity(ratio=selectivity),
        rate_limit=rate_limit,
        state_bytes_per_record=state_bytes_per_record,
        record_bytes=record_bytes,
    )


def filter_operator(
    name: str,
    costs: CostModel,
    pass_ratio: float,
    record_bytes: float = 100.0,
) -> OperatorSpec:
    """Create a filter operator passing ``pass_ratio`` of its input."""
    if not 0.0 <= pass_ratio <= 1.0:
        raise GraphError("pass_ratio must be in [0, 1]")
    return OperatorSpec(
        name=name,
        kind=OperatorKind.FILTER,
        costs=costs,
        selectivity=Selectivity(ratio=pass_ratio),
        record_bytes=record_bytes,
    )


def join(
    name: str,
    costs: CostModel,
    selectivity: float,
    state_bytes_per_record: float = 64.0,
    record_bytes: float = 150.0,
) -> OperatorSpec:
    """Create a stateful two-input incremental join (Nexmark Q3-style)."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.JOIN,
        costs=costs,
        selectivity=Selectivity(ratio=selectivity),
        state_bytes_per_record=state_bytes_per_record,
        record_bytes=record_bytes,
    )


def tumbling_window(
    name: str,
    length: float,
    fire_selectivity: float,
    assign_cost: float = 1e-7,
    fire_cost: float = 1e-6,
    costs: Optional[CostModel] = None,
    state_bytes_per_record: float = 32.0,
) -> OperatorSpec:
    """Create a tumbling window operator (Nexmark Q8-style)."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.WINDOW,
        costs=costs or CostModel(processing_cost=0.0),
        window=WindowSpec(
            kind=WindowKind.TUMBLING,
            length=length,
            assign_cost=assign_cost,
            fire_cost=fire_cost,
            fire_selectivity=fire_selectivity,
        ),
        state_bytes_per_record=state_bytes_per_record,
    )


def sliding_window(
    name: str,
    length: float,
    slide: float,
    fire_selectivity: float,
    assign_cost: float = 1e-7,
    fire_cost: float = 1e-6,
    costs: Optional[CostModel] = None,
    state_bytes_per_record: float = 32.0,
) -> OperatorSpec:
    """Create a sliding window operator (Nexmark Q5-style)."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.WINDOW,
        costs=costs or CostModel(processing_cost=0.0),
        window=WindowSpec(
            kind=WindowKind.SLIDING,
            length=length,
            slide=slide,
            assign_cost=assign_cost,
            fire_cost=fire_cost,
            fire_selectivity=fire_selectivity,
        ),
        state_bytes_per_record=state_bytes_per_record,
    )


def session_window(
    name: str,
    length: float,
    gap: float,
    fire_selectivity: float,
    assign_cost: float = 1e-7,
    fire_cost: float = 1e-6,
    costs: Optional[CostModel] = None,
    state_bytes_per_record: float = 32.0,
) -> OperatorSpec:
    """Create a session window operator (Nexmark Q11-style)."""
    return OperatorSpec(
        name=name,
        kind=OperatorKind.WINDOW,
        costs=costs or CostModel(processing_cost=0.0),
        window=WindowSpec(
            kind=WindowKind.SESSION,
            length=length,
            gap=gap,
            assign_cost=assign_cost,
            fire_cost=fire_cost,
            fire_selectivity=fire_selectivity,
            staggered=True,
        ),
        state_bytes_per_record=state_bytes_per_record,
    )


__all__ = [
    "CostModel",
    "OperatorKind",
    "OperatorSpec",
    "RateSchedule",
    "Selectivity",
    "WindowKind",
    "WindowSpec",
    "source",
    "sink",
    "map_operator",
    "flatmap",
    "filter_operator",
    "join",
    "tumbling_window",
    "sliding_window",
    "session_window",
]
