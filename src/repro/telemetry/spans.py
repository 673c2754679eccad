"""Hierarchical span profiler for the hot phases of a run.

Scorecards say *what* a campaign concluded; spans say *where the time
went* while it ran. A :class:`SpanProfiler` maintains a tree of named
spans — ``engine.tick`` containing ``engine.allocate`` and
``engine.window_fire``, ``controller.decide`` containing
``metrics.collect`` — each node accumulating an invocation count and
wall-clock seconds. The profiler is ambient, like the tracer: engine
components resolve :func:`active_profiler` at construction time and
pay a single attribute read per instrumented site when profiling is
disabled (the default).

Two determinism rules keep spans out of the decision path:

* span *structure* (names, counts, nesting) is a pure function of the
  seeded virtual-time run, so identical seeds produce identical trees
  serial or process-pool — :meth:`SpanProfiler.structure` exports exactly that shape, with
  wall-times stripped, and the test suite gates on it;
* wall-clock durations live only in the span channel. They are never
  mixed into traces, scorecards, or any golden artifact.

Thread safety: each thread records into its own subtree (registered on
first use), so ``enter``/``exit`` never contend on a lock. They read the
thread's stack straight off a :class:`threading.local` and the clock
without a wrapper call, which keeps an enabled span pair cheap next to
an engine tick.
:meth:`tree` merges the per-thread subtrees on demand. Process-pool
campaign workers profile into a fresh local profiler and return its
:meth:`to_dict` payload through the result channel; the parent folds
the payloads back in canonical cell order with :meth:`merge`.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from time import perf_counter as _clock
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.errors import TelemetryError

SPAN_SCHEMA_VERSION = 1


def wall_clock() -> float:
    """Monotonic wall-clock seconds, for span timings and host-side
    bookkeeping (heartbeat durations, pool deadlines) only.

    This module is the one place telemetry reads the host clock (here
    and in :class:`SpanProfiler`'s ``enter``/``exit``); trace events
    and audit records must never call it (they carry virtual time so
    traces stay deterministic).
    """
    return _clock()  # repro: allow[REPRO101]


class SpanNode:
    """One node of the span tree: a named phase with an invocation
    count, accumulated wall-clock seconds, and child phases.

    ``started`` is when the open invocation began: a node sits in one
    thread's subtree and under one path, so at most one invocation of
    it is open at a time."""

    __slots__ = ("name", "count", "seconds", "children", "started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.children: Dict[str, "SpanNode"] = {}
        self.started = 0.0

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self, include_times: bool = True) -> Dict[str, Any]:
        """Serialize the subtree. Children are sorted by name so the
        payload is deterministic regardless of entry order; wall-times
        are included only on request (never in golden artifacts)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
        }
        if include_times:
            payload["seconds"] = round(self.seconds, 9)
        payload["children"] = [
            self.children[name].to_dict(include_times=include_times)
            for name in sorted(self.children)
        ]
        return payload

    def merge_payload(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_dict` payload into this subtree."""
        count = payload.get("count", 0)
        seconds = payload.get("seconds", 0.0)
        if (
            not isinstance(count, int)
            or isinstance(count, bool)
            or count < 0
        ):
            raise TelemetryError(
                f"span payload {payload.get('name')!r}: count must be "
                f"a non-negative integer, got {count!r}"
            )
        if (
            not isinstance(seconds, (int, float))
            or isinstance(seconds, bool)
            or not 0 <= seconds <= sys.float_info.max
        ):
            raise TelemetryError(
                f"span payload {payload.get('name')!r}: seconds must "
                f"be a finite non-negative number, got {seconds!r}"
            )
        children = payload.get("children", [])
        if not isinstance(children, list):
            raise TelemetryError(
                f"span payload {payload.get('name')!r}: children must "
                f"be a list, got {children!r}"
            )
        self.count += count
        self.seconds += float(seconds)
        for child in children:
            if not isinstance(child, dict):
                raise TelemetryError(
                    f"span payload {payload.get('name')!r}: child must "
                    f"be an object, got {child!r}"
                )
            name = child.get("name")
            if not isinstance(name, str) or not name:
                raise TelemetryError(
                    "span payload child without a name: "
                    f"{child!r}"
                )
            self.child(name).merge_payload(child)

    def merge_node(self, other: "SpanNode") -> None:
        self.count += other.count
        self.seconds += other.seconds
        for name in sorted(other.children):
            self.child(name).merge_node(other.children[name])


class _Stacks(threading.local):
    """Each thread's stack of open span nodes, its subtree's root at
    the bottom. A thread's first use builds its root and hands it to
    ``register``."""

    def __init__(self, register: Callable[[SpanNode], None]) -> None:
        root = SpanNode("root")
        register(root)
        self.stack = [root]


class SpanProfiler:
    """Collects a hierarchy of timed spans.

    Use the context-manager API on cold paths::

        profiler = active_profiler()
        with profiler.span("checkpoint.append"):
            ...

    and the guarded ``enter``/``exit`` pair on hot paths, where even a
    no-op context manager per tick would show up in benchmarks::

        if profiler.enabled:
            profiler.enter("engine.tick")
        try:
            ...
        finally:
            if profiler.enabled:
                profiler.exit("engine.tick")
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._roots: List[SpanNode] = []
        self._local = _Stacks(self._register)

    # -- recording ----------------------------------------------------

    def _register(self, root: SpanNode) -> None:
        with self._lock:
            self._roots.append(root)

    def enter(self, name: str) -> None:
        """Open a span named ``name`` under the current span."""
        stack = self._local.stack
        parent = stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.child(name)
        node.count += 1
        stack.append(node)
        node.started = _clock()  # repro: allow[REPRO101]

    def exit(self, name: str) -> None:
        """Close the current span; ``name`` guards against mismatched
        pairs (a structural bug, so it raises rather than mis-files
        the elapsed time)."""
        now = _clock()  # repro: allow[REPRO101]
        stack = self._local.stack
        if len(stack) <= 1:
            raise TelemetryError(
                f"span exit({name!r}) with no span open"
            )
        node = stack.pop()
        if node.name != name:
            raise TelemetryError(
                f"span exit({name!r}) does not match open span "
                f"{node.name!r}"
            )
        node.seconds += now - node.started

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`enter`/:meth:`exit`."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    # -- reading ------------------------------------------------------

    def tree(self) -> SpanNode:
        """Merged view over every thread's subtree. Call after the
        recording threads have quiesced for exact numbers."""
        merged = SpanNode("root")
        with self._lock:
            roots = list(self._roots)
        for root in roots:
            merged.merge_node(root)
        return merged

    def to_dict(self, include_times: bool = True) -> Dict[str, Any]:
        """Serializable span tree (the worker result-channel payload)."""
        payload = self.tree().to_dict(include_times=include_times)
        payload["schema"] = SPAN_SCHEMA_VERSION
        return payload

    def structure(self) -> Dict[str, Any]:
        """The deterministic shape of the tree: names, counts, and
        nesting only — what golden tests compare."""
        return self.tree().to_dict(include_times=False)

    def merge(self, payload: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`to_dict` payload (e.g. returned by a campaign
        worker) into this profiler's tree."""
        if payload is None:
            return
        self._local.stack[0].merge_payload(payload)

    def clear(self) -> None:
        """Drop every recorded span (open spans stay open)."""
        with self._lock:
            for root in self._roots:
                root.children = {}
                root.count = 0
                root.seconds = 0.0

    def render(self, include_times: bool = True) -> str:
        """Human-readable indented tree, deepest phases indented."""
        lines: List[str] = []

        def walk(node: SpanNode, depth: int) -> None:
            label = "  " * depth + node.name
            if include_times:
                lines.append(
                    f"{label:<40} {node.count:>8} "
                    f"{node.seconds * 1000.0:>10.1f} ms"
                )
            else:
                lines.append(f"{label:<40} {node.count:>8}")
            for name in sorted(node.children):
                walk(node.children[name], depth + 1)

        root = self.tree()
        if include_times:
            lines.append(f"{'span':<40} {'count':>8} {'total':>13}")
        else:
            lines.append(f"{'span':<40} {'count':>8}")
        for name in sorted(root.children):
            walk(root.children[name], 0)
        return "\n".join(lines)


class NullSpanProfiler(SpanProfiler):
    """Inert profiler used when profiling is off: every instrumented
    site sees ``enabled is False`` and skips its enter/exit pair."""

    enabled = False

    def enter(self, name: str) -> None:  # pragma: no cover - trivial
        pass

    def exit(self, name: str) -> None:  # pragma: no cover - trivial
        pass

    def merge(self, payload: Optional[Mapping[str, Any]]) -> None:
        pass


NULL_PROFILER = NullSpanProfiler()

_ACTIVE: List[SpanProfiler] = [NULL_PROFILER]


def active_profiler() -> SpanProfiler:
    """The innermost :func:`profiling` profiler (the shared null
    profiler when none is active)."""
    return _ACTIVE[-1]


@contextmanager
def profiling(profiler: SpanProfiler) -> Iterator[SpanProfiler]:
    """Make ``profiler`` ambient for the duration of the block."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


__all__ = [
    "NULL_PROFILER",
    "NullSpanProfiler",
    "SPAN_SCHEMA_VERSION",
    "SpanNode",
    "SpanProfiler",
    "active_profiler",
    "profiling",
    "wall_clock",
]
