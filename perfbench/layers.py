"""Per-layer spans for the traced benchmark run, recorded from outside.

The traced child process (``launch.py trace``) installs a wrapper
around each callable in :data:`LAYERS` before it calls
``repro.cli.main``. Each wrapped call appends one span (layer, parent
span, start, end) to flat in-memory arrays; nothing is written until
main returns, when :meth:`SpanRecorder.dump` saves them in one go. The
driver then folds the spans into per-layer call counts and self time
(a span's duration minus the durations of its direct child spans) with
:func:`layer_metrics`.

Module functions are patched on the module their callers look them up
in, so a caller that reads the module global at call time sees the
wrapper. A callable that is pickled into a process pool must never be
replaced: pickle resolves it by name and refuses the wrapper, and the
pool then quarantines every cell. Such entries are marked
``crosses_pool`` and are left alone on pooled runs (``parent_only``).
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Root span: the call into ``repro.cli.main``.
ROOT = "cli.main"

ENGINE = "repro.engine.simulator"
DHALION = "repro.core.baselines.dhalion"
INJECTOR = "repro.faults.injector"
CAMPAIGNS = "repro.faults.campaigns"
CHECKPOINT = "repro.faults.checkpoint"
CHAOS = "repro.experiments.chaos"
CONVERGENCE = "repro.experiments.convergence"

#: (layer, module, attribute path, crosses the pool boundary). A layer
#: may wrap several callables; their spans share the layer's name.
LAYERS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("engine.step", ENGINE, "Simulator.step", False),
    ("engine.collect_metrics", ENGINE, "Simulator.collect_metrics", False),
    ("engine.rescale", ENGINE, "Simulator.rescale", False),
    ("engine.fail_instance", ENGINE, "Simulator.fail_instance", False),
    ("engine.init", ENGINE, "Simulator.__init__", False),
    ("core.decide", "repro.core.manager", "DS2Controller.on_metrics", False),
    ("core.decide", DHALION, "DhalionController.on_metrics", False),
    ("core.loop", "repro.core.controller", "ControlLoop.run", False),
    ("faults.injector", INJECTOR, "FaultInjector.step", False),
    ("faults.injector", INJECTOR, "FaultInjector.collect_metrics", False),
    ("faults.injector", INJECTOR, "FaultInjector.rescale", False),
    ("faults.schedule", CAMPAIGNS, "CampaignGenerator.schedule", False),
    ("faults.score", CAMPAIGNS, "score_campaign_run", False),
    ("faults.cell", CAMPAIGNS, "run_campaign_cell", True),
    ("faults.executor", CAMPAIGNS, "SerialExecutor.run_cells", False),
    ("faults.executor", CHECKPOINT, "SupervisedExecutor.execute", False),
    ("faults.journal", CHECKPOINT, "CheckpointJournal.open", False),
    ("faults.journal", CHECKPOINT, "CheckpointJournal.record_cell", False),
    ("faults.journal", CHECKPOINT, "CheckpointJournal.record_heartbeat", False),
    ("faults.journal", CHECKPOINT, "CheckpointJournal.close", False),
    ("experiments.recovery", CHAOS, "recovery_distributions", False),
    ("experiments.cell", CONVERGENCE, "run_flink_convergence_cell", False),
    ("experiments.report", CHAOS, "chaos_report", False),
    ("experiments.report", CONVERGENCE, "format_table4", False),
)

#: What each layer reports: ``calls`` (exact count), ``self_s`` (summed
#: self time), ``us`` (mean inclusive microseconds per call) and
#: ``total_s`` (summed inclusive time).
LAYER_METRICS: Dict[str, Tuple[str, ...]] = {
    "engine.step": ("calls", "self_s", "us"),
    "engine.collect_metrics": ("calls", "self_s"),
    "engine.rescale": ("calls", "self_s"),
    "engine.fail_instance": ("calls", "self_s"),
    "engine.init": ("calls", "self_s"),
    "core.decide": ("calls", "self_s"),
    "core.loop": ("self_s",),
    "faults.injector": ("self_s",),
    "faults.schedule": ("self_s",),
    "faults.score": ("self_s",),
    "faults.cell": ("calls", "self_s"),
    "faults.executor": ("self_s",),
    "faults.journal": ("calls", "self_s"),
    "experiments.recovery": ("total_s", "self_s"),
    "experiments.cell": ("calls", "self_s"),
    "experiments.report": ("self_s",),
    ROOT: ("self_s",),
}

#: Whole-process figures of the traced run, reported beside the layers.
PROCESS_METRICS = (
    "process.import_s",
    "unattributed_s",
    "trace_overhead_s",
)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us": "us"}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [
        (f"{layer}.{kind}", UNITS[kind])
        for layer, kinds in LAYER_METRICS.items()
        for kind in kinds
    ]
    return names + [(name, "s") for name in PROCESS_METRICS]


class SpanRecorder:
    """Flat, append-only span store for one process.

    Spans are kept in parallel arrays indexed by span number; ``parent``
    is the enclosing span's number or -1. Recording switches itself off
    in forked children, whose spans would be lost with the process.
    """

    def __init__(self) -> None:
        self.names: List[str] = list(LAYER_METRICS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: List[int] = [-1]
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with one span per call recorded under ``layer``."""
        layer_id = self._ids[layer]
        stack = self._stack
        layers, parents = self.layer, self.parent
        starts, ends = self.start, self.end
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(out)


def install(recorder: SpanRecorder, *, parent_only: bool) -> None:
    """Wrap every callable in :data:`LAYERS` (see the module docstring
    for what ``parent_only`` leaves out)."""
    os.register_at_fork(after_in_child=recorder.disable)
    for layer, module_name, path, crosses_pool in LAYERS:
        if parent_only and crosses_pool:
            continue
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(layer, raw.__func__)))
        else:
            setattr(owner, attr, recorder.wrap(layer, raw))


@dataclass
class Spans:
    """What :meth:`SpanRecorder.dump` wrote, as parallel columns."""

    names: List[str]
    layer: Sequence[int]
    parent: Sequence[int]
    start: Sequence[float]
    end: Sequence[float]


def load_spans(path: str) -> Spans:
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array.array(code)
            column.fromfile(source, header["count"])
            columns.append(column)
    return Spans(header["names"], *columns)


def layer_metrics(
    spans: Spans, *, wall_s: float, import_s: float
) -> Dict[str, float]:
    """Fold spans into the per-layer metrics, plus ``process.import_s``
    and ``unattributed_s``: the traced wall time outside both start-up
    and the ``cli.main`` span. Self times, ``process.import_s`` and
    ``unattributed_s`` add up to ``wall_s`` when the spans nest."""
    names, layer, parent = spans.names, spans.layer, spans.parent
    duration = [end - start for start, end in zip(spans.start, spans.end)]
    children = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += duration[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    root = names.index(ROOT)
    main_s = 0.0
    for i, lid in enumerate(layer):
        calls[lid] += 1
        total[lid] += duration[i]
        own[lid] += duration[i] - children[i]
        if lid == root and parent[i] < 0:
            main_s += duration[i]
    metrics: Dict[str, float] = {}
    for lid, name in enumerate(names):
        for kind in LAYER_METRICS[name]:
            if kind == "calls":
                value: float = calls[lid]
            elif kind == "self_s":
                value = own[lid]
            elif kind == "total_s":
                value = total[lid]
            else:
                value = 1e6 * total[lid] / calls[lid] if calls[lid] else 0.0
            metrics[f"{name}.{kind}"] = value
    metrics["process.import_s"] = import_s
    metrics["unattributed_s"] = wall_s - import_s - main_s
    return metrics
