"""DS2: the scaling model, policy, manager, and control loop.

This package is the paper's primary contribution:

* :mod:`repro.core.model` — the performance model (Eq. 1-8).
* :mod:`repro.core.policy` — one scaling decision per metrics window,
  adapted to per-operator (Flink/Heron) or global (Timely) execution.
* :mod:`repro.core.manager` — the scaling manager's operational logic
  (warm-up, activation, target-rate ratio, rollback, decision limit).
* :mod:`repro.core.controller` — the controller interface and the
  closed control loop between controller and simulated engine.
* :mod:`repro.core.baselines` — Dhalion-style and threshold baselines.
"""

from repro.core.backoff import capped_backoff, invalid_backoff_reason
from repro.core.controller import (
    ControlLoop,
    Controller,
    FailedRescale,
    LoopResult,
    Observation,
    RetryConfig,
    ScalingEvent,
)
from repro.core.learning import (
    LearningDS2Controller,
    ScalingCurve,
    ScalingCurveLearner,
)
from repro.core.manager import DS2Controller, ManagerConfig
from repro.core.offline import (
    OperatorProfile,
    microbenchmark_operator,
    offline_provisioning,
)
from repro.core.model import (
    ModelEvaluation,
    OperatorEstimate,
    compute_optimal_parallelism,
)
from repro.core.policy import DS2Policy, ExecutionModel, PolicyDecision

__all__ = [
    "ControlLoop",
    "Controller",
    "DS2Controller",
    "DS2Policy",
    "ExecutionModel",
    "FailedRescale",
    "LearningDS2Controller",
    "LoopResult",
    "ManagerConfig",
    "ModelEvaluation",
    "Observation",
    "OperatorEstimate",
    "OperatorProfile",
    "PolicyDecision",
    "RetryConfig",
    "ScalingCurve",
    "ScalingCurveLearner",
    "ScalingEvent",
    "capped_backoff",
    "compute_optimal_parallelism",
    "invalid_backoff_reason",
    "microbenchmark_operator",
    "offline_provisioning",
]
