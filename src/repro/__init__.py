"""Reproduction of DS2 (Kalavri et al., OSDI 2018).

DS2 is an automatic scaling controller for distributed streaming
dataflows. It estimates each operator's *true* processing and output
rates (records per unit of useful time) from lightweight
instrumentation and combines them with the dataflow topology to compute
the optimal parallelism of every operator in a single decision.

This library contains:

* ``repro.core`` — the DS2 model, policy, scaling manager, and the
  baseline controllers it is compared against;
* ``repro.dataflow`` — logical graphs, operator cost models, physical
  plans;
* ``repro.engine`` — a discrete-time simulator standing in for Apache
  Flink, Timely Dataflow, and Heron, with DS2's instrumentation built
  in;
* ``repro.workloads`` — the wordcount (Dhalion benchmark) and Nexmark
  workloads used in the paper's evaluation;
* ``repro.experiments`` — harnesses regenerating every table and figure
  of the paper's evaluation section;
* ``repro.faults`` — deterministic fault injection (instance crashes,
  metric dropout/lag/corruption, failed rescales) for exercising the
  hardened control path.

See ``examples/quickstart.py`` for a complete end-to-end run.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.controller import ControlLoop, Controller
    from repro.core.manager import DS2Controller, ManagerConfig
    from repro.core.model import compute_optimal_parallelism
    from repro.core.policy import DS2Policy, ExecutionModel
    from repro.dataflow.graph import LogicalGraph
    from repro.dataflow.physical import PhysicalPlan
    from repro.engine.runtimes import FlinkRuntime, HeronRuntime, TimelyRuntime
    from repro.engine.simulator import EngineConfig, Simulator
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule, parse_faults
    from repro.metrics import InstanceCounters, MetricsWindow

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.controller": ("ControlLoop", "Controller"),
    "repro.core.manager": ("DS2Controller", "ManagerConfig"),
    "repro.core.model": ("compute_optimal_parallelism",),
    "repro.core.policy": ("DS2Policy", "ExecutionModel"),
    "repro.dataflow.graph": ("LogicalGraph",),
    "repro.dataflow.physical": ("PhysicalPlan",),
    "repro.engine.runtimes": ("FlinkRuntime", "HeronRuntime", "TimelyRuntime"),
    "repro.engine.simulator": ("EngineConfig", "Simulator"),
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.schedule": ("FaultSchedule", "parse_faults"),
    "repro.metrics": ("InstanceCounters", "MetricsWindow"),
})

__version__ = "1.0.0"

__all__ = [
    "ControlLoop",
    "Controller",
    "DS2Controller",
    "DS2Policy",
    "EngineConfig",
    "ExecutionModel",
    "FaultInjector",
    "FaultSchedule",
    "FlinkRuntime",
    "HeronRuntime",
    "InstanceCounters",
    "LogicalGraph",
    "ManagerConfig",
    "MetricsWindow",
    "PhysicalPlan",
    "Simulator",
    "TimelyRuntime",
    "compute_optimal_parallelism",
    "parse_faults",
    "__version__",
]
