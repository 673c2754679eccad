"""Per-runtime crash-recovery cost models.

Rescaling and crash recovery are different mechanisms with different
costs. A *rescale* always pays the runtime's savepoint-halt-redeploy
outage (:class:`~repro.dataflow.state.SavepointModel`), but what a
*crash* costs depends on how the runtime restores the lost worker's
state:

* **Flink** restores the *whole job* from the last consistent savepoint
  — every instance rewinds, so the outage is proportional to total
  state size, the same 30-50 s band the paper measures for rescaling
  the wordcount job (section 5.3). :class:`SavepointRecovery`.
* **Timely** has no savepoints: the failed worker rejoins the cluster
  and re-syncs only *its own shard* of the state from its peers, which
  hold overlapping progress information. Outage is proportional to one
  worker's slice, not the whole job. :class:`PeerSyncRecovery`.
* **Heron** runs each instance in its own container under a scheduler
  (Aurora/Mesos) that simply restarts the failed container. Stream
  managers reconnect and the restarted instance replays its own —
  typically small — state, so the outage is dominated by a roughly
  constant container-restart time. :class:`ContainerRestartRecovery`.

The models consume the simulator's per-operator state sizes
(:meth:`~repro.dataflow.state.StateModel.snapshot`) plus the deployed
parallelism, and return the seconds the job halts. They are consulted
by :meth:`~repro.engine.simulator.Simulator.fail_instance`, which is
what :class:`~repro.faults.events.InstanceCrash` events trigger — so
campaign results differ meaningfully by runtime.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping

from repro.dataflow.state import SavepointModel
from repro.errors import EngineError


class RecoveryModel(abc.ABC):
    """Cost model for recovering from one instance/worker crash."""

    #: Human-readable mechanism name (used in reports).
    name: str = "abstract"

    @abc.abstractmethod
    def outage_seconds(
        self,
        state_bytes: Mapping[str, float],
        parallelism: Mapping[str, int],
        operator: str,
    ) -> float:
        """Seconds the job halts to recover from a crash of one
        instance of ``operator``.

        Args:
            state_bytes: Current per-operator state sizes in bytes.
            parallelism: Deployed parallelism per operator.
            operator: The operator whose instance crashed.
        """


@dataclass(frozen=True)
class SavepointRecovery(RecoveryModel):
    """Flink-style recovery: restore the whole job from the last
    savepoint.

    Every instance rewinds to the snapshot, so the outage is the full
    savepoint-halt-redeploy cost for *total* job state — crash recovery
    and rescaling cost the same, which is exactly how Flink's
    checkpoint-restore mechanism behaves. The default
    :class:`~repro.dataflow.state.SavepointModel` constants land in the
    paper's 30-50 s band for a wordcount job with a few GB of counter
    state (section 5.3).
    """

    savepoint: SavepointModel = field(default_factory=SavepointModel)

    name = "savepoint-restore"

    def outage_seconds(
        self,
        state_bytes: Mapping[str, float],
        parallelism: Mapping[str, int],
        operator: str,
    ) -> float:
        return self.savepoint.outage_seconds(sum(state_bytes.values()))


@dataclass(frozen=True)
class PeerSyncRecovery(RecoveryModel):
    """Timely-style recovery: the failed worker re-syncs its shard from
    peers.

    There is no savepoint; each worker holds ``total / workers`` of the
    job's state (every operator runs on every worker), and on rejoin
    only that slice is streamed back from the surviving peers. Outage =
    ``base + (total / workers) / sync_bandwidth + rejoin`` — an order
    of magnitude cheaper than a Flink full restore for the same job.
    """

    base_seconds: float = 4.0
    sync_bandwidth: float = 400e6
    rejoin_seconds: float = 3.0

    name = "peer-resync"

    def __post_init__(self) -> None:
        if not self.base_seconds >= 0:
            raise EngineError("base_seconds must be >= 0")
        if not self.sync_bandwidth > 0:
            raise EngineError("sync_bandwidth must be > 0")
        if not self.rejoin_seconds >= 0:
            raise EngineError("rejoin_seconds must be >= 0")

    def outage_seconds(
        self,
        state_bytes: Mapping[str, float],
        parallelism: Mapping[str, int],
        operator: str,
    ) -> float:
        # Timely plans are globally uniform: instance k of every
        # operator lives on worker k, so a crash of any instance is a
        # crash of one worker holding 1/workers of the total state.
        workers = max(1, parallelism.get(operator, 1))
        shard = sum(state_bytes.values()) / workers
        return (
            self.base_seconds
            + shard / self.sync_bandwidth
            + self.rejoin_seconds
        )


@dataclass(frozen=True)
class ContainerRestartRecovery(RecoveryModel):
    """Heron-style recovery: the scheduler restarts the failed
    container.

    Only the crashed instance's container restarts; stream managers
    reconnect and the instance replays its own state slice
    (``operator_state / parallelism``), which for Heron topologies is
    small. The outage is dominated by the constant container-restart
    latency, so it is nearly independent of job state size.
    """

    restart_seconds: float = 12.0
    replay_bandwidth: float = 150e6

    name = "container-restart"

    def __post_init__(self) -> None:
        if not self.restart_seconds >= 0:
            raise EngineError("restart_seconds must be >= 0")
        if not self.replay_bandwidth > 0:
            raise EngineError("replay_bandwidth must be > 0")

    def outage_seconds(
        self,
        state_bytes: Mapping[str, float],
        parallelism: Mapping[str, int],
        operator: str,
    ) -> float:
        instances = max(1, parallelism.get(operator, 1))
        slice_bytes = state_bytes.get(operator, 0.0) / instances
        return self.restart_seconds + slice_bytes / self.replay_bandwidth


__all__ = [
    "ContainerRestartRecovery",
    "PeerSyncRecovery",
    "RecoveryModel",
    "SavepointRecovery",
]
