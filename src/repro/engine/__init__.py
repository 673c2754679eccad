"""The simulated streaming engines (the substrate under DS2).

The engine executes a physical dataflow plan in discrete virtual-time
ticks under one of three execution models (Flink-like, Timely-like,
Heron-like), produces the instrumentation counters DS2 consumes, and
implements the savepoint-halt-redeploy rescaling mechanism.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.buffers import Queue
    from repro.engine.latency import (
        EpochLatencyTracker,
        LatencyDistribution,
        RecordLatencyTracker,
    )
    from repro.engine.metrics_manager import MetricsManager
    from repro.engine.recovery import (
        ContainerRestartRecovery,
        PeerSyncRecovery,
        RecoveryModel,
        SavepointRecovery,
    )
    from repro.engine.runtimes import (
        FlinkRuntime,
        HeronRuntime,
        Runtime,
        TimelyRuntime,
    )
    from repro.engine.simulator import EngineConfig, Simulator, TickStats

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.buffers": ("Queue",),
    "repro.engine.latency": (
        "EpochLatencyTracker", "LatencyDistribution", "RecordLatencyTracker",
    ),
    "repro.engine.metrics_manager": ("MetricsManager",),
    "repro.engine.recovery": (
        "ContainerRestartRecovery", "PeerSyncRecovery", "RecoveryModel",
        "SavepointRecovery",
    ),
    "repro.engine.runtimes": (
        "FlinkRuntime", "HeronRuntime", "Runtime", "TimelyRuntime",
    ),
    "repro.engine.simulator": ("EngineConfig", "Simulator", "TickStats"),
})

__all__ = [
    "ContainerRestartRecovery",
    "EngineConfig",
    "EpochLatencyTracker",
    "FlinkRuntime",
    "HeronRuntime",
    "LatencyDistribution",
    "MetricsManager",
    "PeerSyncRecovery",
    "Queue",
    "RecordLatencyTracker",
    "RecoveryModel",
    "Runtime",
    "SavepointRecovery",
    "Simulator",
    "TickStats",
    "TimelyRuntime",
]
