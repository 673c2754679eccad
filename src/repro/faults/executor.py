"""The campaign executor: where campaign cells run, and what happens
when one fails.

A chaos campaign or a parameter sweep is a batch of independent
``(seed, campaign, controller)`` cells
(:class:`~repro.faults.campaigns.CampaignCellSpec`).
:class:`CampaignExecutor` runs a batch and returns a
:class:`CampaignOutcome`. A batch given its own cell body (``runner``)
may use its own spec and result types: the chaos experiment's
crash-recovery replay runs that way, one cell per (campaign, runtime).

* **Where.** ``jobs == 1`` runs cells in-process, one at a time;
  ``jobs > 1`` runs them on a process pool. Every cell builds its own
  simulator, so where it runs changes only the wall clock.
* **Failure.** Without a retry policy each cell gets one attempt and
  the first failure aborts the batch with a
  :class:`~repro.errors.FaultInjectionError` that names the cell and
  carries its traceback. With a :class:`CellRetryPolicy`, failed cells
  are retried after a capped exponential backoff and quarantined once
  they exhaust the budget; the batch completes and
  :class:`CampaignCoverage` says what is missing. ``cell_timeout``
  bounds one attempt (SIGALRM in the executing process).
* **Durability.** With a
  :class:`~repro.faults.checkpoint.CheckpointJournal`, every completed
  cell is fsynced the moment it finishes, and cells already in the
  journal are not re-run.
* **Interrupts.** SIGINT and SIGTERM stop the batch with
  :class:`CampaignInterrupted`. On a journaled pool run, cells already
  on a worker are drained into the journal first.
* **Observability.** An optional
  :class:`~repro.telemetry.progress.ProgressListener` receives one
  heartbeat per cell event (journaled too, when there is a journal).

Determinism contract: results come back in canonical spec order.
Per-cell metrics and span trees are recorded where the cell runs and
folded into the ambient registry and profiler in that same order, so
results and merged telemetry do not depend on ``jobs``, completion
order, resume, or the multiprocessing start method.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import os
import signal
import threading
import time
import traceback
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.backoff import capped_backoff, invalid_backoff_reason
from repro.errors import FaultInjectionError
from repro.faults import campaigns
from repro.faults.campaigns import CellKey, _cell_label
from repro.telemetry.progress import (
    NULL_PROGRESS,
    CellEvent,
    ProgressListener,
    interrupted_cells,
)
from repro.telemetry.registry import (
    MetricsRegistry,
    active_registry,
    metering,
    wall_clock,
)
from repro.telemetry.spans import SpanProfiler, active_profiler, profiling

if TYPE_CHECKING:
    from repro.faults.checkpoint import (
        CheckpointJournal,
        JournalCell,
        JournalHeader,
    )

#: One cell of a batch: a picklable spec with a canonical ``key``
#: (:data:`~repro.faults.campaigns.CellKey`). The default body and the
#: journal take :class:`~repro.faults.campaigns.CampaignCellSpec`; a
#: custom ``runner`` brings its own spec type.
CellSpec = Any

#: What a cell body returns: a
#: :class:`~repro.faults.campaigns.SasoScorecard` for campaign cells.
CellResult = TypeVar("CellResult")

#: A cell body: spec in, result out. Injectable so tests can drive
#: retry, timeout and quarantine with controlled bodies, and so batches
#: other than campaign cells can share the executor; must be a
#: module-level callable when cells run on a pool.
CellRunner = Callable[[CellSpec], CellResult]

#: How often the pool drain wakes up to refresh progress and check the
#: pool deadline when no cell has finished.
POLL_SECONDS = 0.2


# ----------------------------------------------------------------------
# Policy and results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellRetryPolicy:
    """Bounded retry for campaign cells (capped exponential backoff).

    Same curve as the control loop's
    :class:`~repro.core.controller.RetryConfig`, in wall seconds: the
    first retry waits ``initial_backoff_seconds``, each further retry
    multiplies by ``backoff_base``, capped at ``max_backoff_seconds``.
    After ``max_attempts`` total attempts the cell is quarantined.
    """

    max_attempts: int = 3
    backoff_base: float = 2.0
    initial_backoff_seconds: float = 0.25
    max_backoff_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultInjectionError("max_attempts must be >= 1")
        reason = invalid_backoff_reason(
            base=self.backoff_base,
            initial=self.initial_backoff_seconds,
            cap=self.max_backoff_seconds,
            base_name="backoff_base",
            initial_name="initial_backoff_seconds",
            cap_name="max_backoff_seconds",
        )
        if reason is not None:
            raise FaultInjectionError(reason)

    def backoff_seconds(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise FaultInjectionError("attempt must be >= 1")
        return capped_backoff(
            attempt,
            base=self.backoff_base,
            initial=self.initial_backoff_seconds,
            cap=self.max_backoff_seconds,
        )


@dataclass(frozen=True)
class QuarantinedCell:
    """A cell that exhausted its retry budget."""

    key: CellKey
    attempts: int
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class CampaignCoverage:
    """Exactly which cells of a batch produced scorecards."""

    cells: int
    completed: int
    quarantined: int
    quarantined_cells: Tuple[QuarantinedCell, ...] = ()

    @property
    def complete(self) -> bool:
        return self.quarantined == 0 and self.completed == self.cells


@dataclass(frozen=True)
class CampaignOutcome(Generic[CellResult]):
    """Everything one batch produced.

    ``by_index`` maps each completed spec index to its result (a
    scorecard, for campaign cells; quarantined cells are absent);
    ``resumed`` counts cells recovered from the journal rather than run
    live.
    """

    by_index: Dict[int, CellResult]
    coverage: CampaignCoverage
    resumed: int

    @property
    def scorecards(self) -> List[CellResult]:
        """Completed results in canonical spec order."""
        return [self.by_index[i] for i in sorted(self.by_index)]

    def require_complete(self) -> List[CellResult]:
        """The results, or an error naming every quarantined cell."""
        coverage = self.coverage
        if coverage.quarantined:
            labels = ", ".join(
                _cell_label(cell.key)
                for cell in coverage.quarantined_cells
            )
            raise FaultInjectionError(
                f"{coverage.quarantined} campaign cell(s) exhausted "
                f"their retry budget: {labels}"
            )
        return self.scorecards


class CampaignInterrupted(Exception):
    """A campaign was stopped by SIGINT/SIGTERM.

    ``completed``/``cells`` say how far the run got; ``path`` names the
    journal to resume from (``None`` when the run had no checkpoint).
    """

    def __init__(
        self,
        message: str,
        *,
        completed: int,
        cells: int,
        path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.completed = completed
        self.cells = cells
        self.path = path


# ----------------------------------------------------------------------
# The pickle guard: what may cross into a pool worker
# ----------------------------------------------------------------------

def unpicklable_reason(value: object) -> Optional[str]:
    """Why ``value`` cannot cross a process boundary, or None.

    Lambdas, locally defined functions/classes, bound instance
    methods, and partials or mappings holding any of those: each
    either fails to pickle or cannot be re-imported by a fresh worker.
    """
    if isinstance(value, functools.partial):
        inner = unpicklable_reason(value.func)
        if inner is None:
            for captured in list(value.args) + list(
                value.keywords.values()
            ):
                if callable(captured):
                    inner = unpicklable_reason(captured)
                    if inner is not None:
                        break
        if inner is not None:
            return (
                "functools.partial over an unpicklable value: "
                f"{inner}"
            )
        return None
    if isinstance(value, Mapping):
        for key in value:
            inner = unpicklable_reason(value[key])
            if inner is not None:
                return f"{key!r}: {inner}"
        return None
    if inspect.ismethod(value) and not isinstance(value.__self__, type):
        return (
            f"bound method {value.__qualname__!r} captures its "
            "instance and does not pickle; use a module-level function"
        )
    qualname = getattr(value, "__qualname__", "") or ""
    if getattr(value, "__name__", None) == "<lambda>":
        return (
            "lambdas pickle by qualified name, which a lambda does not "
            "have; use a module-level function or functools.partial "
            "of one"
        )
    if "<locals>" in qualname:
        return (
            f"{qualname!r} is defined inside a function and cannot be "
            "imported by a worker process; hoist it to module level"
        )
    return None


def ensure_parallel_safe(
    value: object, *, context: str = "factory"
) -> object:
    """Reject values that cannot cross a process boundary.

    Called by :class:`CampaignExecutor` before its first pool round and
    by ``ChaosWorkload`` at construction, so the violation is reported
    where the value was built, not as a pickle traceback deep inside a
    campaign. Raises :class:`~repro.errors.FaultInjectionError`;
    returns ``value`` unchanged when safe.
    """
    reason = unpicklable_reason(value)
    if reason is not None:
        raise FaultInjectionError(f"{context}: {reason}")
    return value


# ----------------------------------------------------------------------
# One attempt of one cell: the worker entry point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellWork:
    """One cell attempt, as shipped to wherever it runs.

    The telemetry opt-ins travel inside the item, so a pool worker
    meters and profiles exactly when the parent wants it to, whatever
    the multiprocessing start method. ``runner`` is ``None`` for the
    real cell body, which the worker then looks up by name.
    """

    index: int
    spec: CellSpec
    runner: Optional[CellRunner[Any]] = None
    timeout: Optional[float] = None
    meter: bool = False
    profile: bool = False


@dataclass(frozen=True)
class _CellDone:
    index: int
    result: Any
    #: The cell's metrics snapshot and span tree, when opted in.
    telemetry: Optional[Dict[str, object]]
    spans: Optional[Dict[str, object]]
    #: Wall seconds and executing pid (heartbeat and journal data;
    #: never folded into any golden artifact).
    duration: float
    worker: int


@dataclass(frozen=True)
class _CellFailed:
    index: int
    error: str
    traceback: str
    #: The live exception, kept only in the process that raised it:
    #: exceptions need not pickle, so the traceback text is what
    #: crosses the pool.
    cause: Optional[BaseException] = None

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("cause", None)
        return state


_CellOutcome = Union[_CellDone, _CellFailed]


class _CellTimeout(Exception):
    """Raised inside a cell when its SIGALRM deadline fires."""


def _raise_cell_timeout(signum: int, frame: object) -> None:
    raise _CellTimeout()


def _alarm_unusable_reason(in_process: bool) -> Optional[str]:
    """Why a SIGALRM cell deadline cannot be armed (``None`` if it
    can). Pool workers run cells on their main thread; ``in_process``
    means cells run on the calling thread."""
    if not hasattr(signal, "SIGALRM"):
        return "this platform has no SIGALRM"
    if in_process and (
        threading.current_thread() is not threading.main_thread()
    ):
        return (
            "cells run in-process off the main thread, where SIGALRM "
            "cannot be armed"
        )
    return None


@contextmanager
def _cell_alarm(timeout: float) -> Iterator[None]:
    """Arm a per-cell wall-clock deadline via SIGALRM where possible
    (:meth:`CampaignExecutor.execute` warns when it is not)."""
    if _alarm_unusable_reason(in_process=True) is not None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_cell_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the process that started the
    worker is gone. A worker idle on the call queue would otherwise
    wait forever after its parent is SIGKILLed, since no shutdown
    message ever comes; the orphan is reparented, so its parent pid
    changes."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def run_cell_attempt(work: CellWork) -> _CellOutcome:
    """Run one attempt of one cell, in-process or in a pool worker.

    Failures are returned, not raised: ``concurrent.futures`` pickles
    exceptions without their tracebacks, so the traceback is formatted
    here while it still exists, and the executor's policy decides
    whether to abort, retry, or quarantine. KeyboardInterrupt is not
    caught: interrupts belong to the executor.
    """
    runner: Optional[CellRunner[Any]] = work.runner
    if runner is None:
        # Looked up at call time, never pickled: wrappers installed on
        # the module attribute see every in-process cell.
        runner = campaigns.run_campaign_cell
    registry = MetricsRegistry() if work.meter else None
    profiler = SpanProfiler() if work.profile else None
    started = wall_clock()
    try:
        with ExitStack() as stack:
            if work.timeout is not None:
                stack.enter_context(_cell_alarm(work.timeout))
            if registry is not None:
                stack.enter_context(metering(registry))
            if profiler is not None:
                stack.enter_context(profiling(profiler))
            result = runner(work.spec)
    except _CellTimeout:
        return _CellFailed(
            index=work.index,
            error=f"cell exceeded its {work.timeout:g}s timeout",
            traceback="",
        )
    except Exception as error:  # noqa: BLE001 — judged by the policy
        return _CellFailed(
            index=work.index,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc(),
            cause=error,
        )
    return _CellDone(
        index=work.index,
        result=result,
        telemetry=None if registry is None else registry.snapshot(),
        spans=None if profiler is None else profiler.to_dict(),
        duration=wall_clock() - started,
        worker=os.getpid(),
    )


def _future_outcome(
    future: "concurrent.futures.Future[_CellOutcome]", index: int
) -> _CellOutcome:
    try:
        return future.result()
    except Exception as error:
        # Hard worker deaths (BrokenProcessPool) and work items that
        # fail to pickle surface here.
        return _CellFailed(
            index=index,
            error=f"worker died: {type(error).__name__}: {error}",
            traceback="",
        )


@contextmanager
def _terminate_as_interrupt() -> Iterator[None]:
    """Map SIGTERM onto KeyboardInterrupt for the enclosed block, so a
    run stopped with ``kill PID`` drains like one stopped with Ctrl-C.
    Signal handlers are main-thread only; elsewhere the block runs
    unchanged."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: object) -> None:
        raise KeyboardInterrupt()

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class _Batch(Generic[CellResult]):
    """Mutable state of one :meth:`CampaignExecutor.execute` call."""

    def __init__(
        self,
        specs: List[CellSpec],
        journal: Optional["CheckpointJournal"],
        progress: ProgressListener,
    ) -> None:
        self.specs = specs
        self.journal = journal
        self.progress = progress
        self.cards: Dict[int, CellResult] = {}
        self.telemetry: Dict[int, Dict[str, object]] = {}
        self.spans: Dict[int, Dict[str, object]] = {}
        self.failures: Dict[int, _CellFailed] = {}

    def heartbeat(
        self,
        kind: str,
        index: int,
        *,
        worker: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> None:
        """Render one heartbeat and, when journaled, append it so a
        resumed run can say what the dead run was doing. Heartbeats are
        never read back into scorecards, traces, or telemetry."""
        if not self.progress.enabled:
            return
        event = CellEvent(
            kind=kind,
            index=index,
            key=self.specs[index].key,
            completed=len(self.cards),
            total=len(self.specs),
            worker=worker,
            duration=duration,
        )
        self.progress.on_event(event)
        if self.journal is not None:
            self.journal.record_heartbeat(event.to_payload())

    def keep(
        self,
        index: int,
        card: CellResult,
        telemetry: Optional[Dict[str, object]],
        spans: Optional[Dict[str, object]],
    ) -> None:
        self.cards[index] = card
        if telemetry is not None:
            self.telemetry[index] = telemetry
        if spans is not None:
            self.spans[index] = spans

    def restore(self, index: int, cell: "JournalCell") -> None:
        self.keep(index, cell.scorecard, cell.telemetry, cell.spans)
        self.heartbeat("resume", index)

    def complete(self, done: _CellDone) -> None:
        if self.journal is not None:
            assert done.telemetry is not None  # journaled cells meter
            self.journal.record_cell(
                self.specs[done.index],
                done.result,
                done.telemetry,
                spans=done.spans,
                duration=done.duration,
                worker=done.worker,
            )
        self.keep(done.index, done.result, done.telemetry, done.spans)
        self.failures.pop(done.index, None)
        self.heartbeat(
            "done", done.index, worker=done.worker, duration=done.duration
        )


class CampaignExecutor:
    """Runs batches of campaign cells (see the module docstring).

    Contract: given specs in canonical order, every completed cell's
    result equals ``runner(spec)`` (by default
    ``run_campaign_cell(spec)``, a scorecard), and results, merged
    telemetry and traces are the same for any ``jobs``. ``jobs`` picks
    in-process (1) or pool execution; ``retry`` turns fail-fast into
    retry-then-quarantine; ``cell_timeout`` bounds one attempt;
    ``journal`` makes the batch crash-safe and resumable; ``progress``
    receives heartbeats; ``pool_timeout`` bounds the wait for pool
    cells (a deadlock guard). ``runner`` replaces the cell body (tests
    inject controlled failures through it; the chaos recovery replay
    its own cells) and ``sleep`` the backoff wait.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        retry: Optional[CellRetryPolicy] = None,
        cell_timeout: Optional[float] = None,
        journal: Optional["CheckpointJournal"] = None,
        progress: Optional[ProgressListener] = None,
        pool_timeout: Optional[float] = None,
        runner: Optional[CellRunner[Any]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if int(jobs) < 1:
            raise FaultInjectionError(
                f"campaign executor needs jobs >= 1, got {jobs}"
            )
        if cell_timeout is not None and cell_timeout <= 0:
            raise FaultInjectionError(
                f"cell_timeout must be > 0, got {cell_timeout}"
            )
        self._jobs = int(jobs)
        self._retry = retry
        self._cell_timeout = cell_timeout
        self._journal = journal
        self._progress = (
            progress if progress is not None else NULL_PROGRESS
        )
        self._pool_timeout = pool_timeout
        self._runner = runner
        self._sleep = sleep

    # perfbench/layers.py wraps both methods by name, so both stay here.
    def run_cells(self, specs: Sequence[CellSpec]) -> List[Any]:
        """Every cell's result in spec order; a quarantined cell is an
        error (:meth:`execute` returns partial batches instead)."""
        return self.execute(specs).require_complete()

    def execute(
        self, specs: Sequence[CellSpec]
    ) -> CampaignOutcome[Any]:
        """Run the batch: resume from the journal, run what is
        missing, quarantine cells that exhaust the retry budget."""
        batch: _Batch[Any] = _Batch(
            list(specs), self._journal, self._progress
        )
        if self._journal is not None:
            matched = self._journal.match(batch.specs)
            for index in sorted(matched):
                batch.restore(index, matched[index])
        resumed = len(batch.cards)
        pending = [
            index
            for index in range(len(batch.specs))
            if index not in batch.cards
        ]
        self._warn_if_timeout_unenforced()
        if pending and self._jobs > 1:
            self._ensure_submittable(batch.specs, pending)
        meter = self._journal is not None or active_registry().enabled
        profile = active_profiler().enabled
        work = {
            index: CellWork(
                index=index,
                spec=batch.specs[index],
                runner=self._runner,
                timeout=self._cell_timeout,
                meter=meter,
                profile=profile,
            )
            for index in pending
        }
        attempts = 1 if self._retry is None else self._retry.max_attempts
        try:
            with _terminate_as_interrupt():
                attempt = 0
                while pending and attempt < attempts:
                    if attempt:
                        assert self._retry is not None
                        self._sleep(self._retry.backoff_seconds(attempt))
                    attempt += 1
                    if self._jobs == 1:
                        self._run_in_process(batch, pending, work)
                    else:
                        self._run_on_pool(batch, pending, work)
                    pending = sorted(batch.failures)
        except KeyboardInterrupt:
            path = None if self._journal is None else self._journal.path
            raise CampaignInterrupted(
                f"campaign interrupted after {len(batch.cards)} of "
                f"{len(batch.specs)} cells"
                + (
                    f"; completed cells are checkpointed in {path!r}"
                    if path is not None
                    else " (no checkpoint: completed cells are lost)"
                ),
                completed=len(batch.cards),
                cells=len(batch.specs),
                path=path,
            ) from None
        quarantined = [
            self._quarantine(batch, index, attempts)
            for index in sorted(batch.failures)
        ]
        # Canonical-order fold: gauges are last-write-wins, so the
        # order must not depend on completion order; resumed and live
        # cells fold identically.
        registry = active_registry()
        if registry.enabled:
            for index in sorted(batch.telemetry):
                registry.merge_snapshot(batch.telemetry[index])
        profiler = active_profiler()
        if profiler.enabled:
            for index in sorted(batch.spans):
                profiler.merge(batch.spans[index])
        return CampaignOutcome(
            by_index=batch.cards,
            coverage=CampaignCoverage(
                cells=len(batch.specs),
                completed=len(batch.cards),
                quarantined=len(quarantined),
                quarantined_cells=tuple(quarantined),
            ),
            resumed=resumed,
        )

    # -- failures -------------------------------------------------------

    def _settle(self, batch: _Batch[Any], outcome: _CellOutcome) -> None:
        if isinstance(outcome, _CellDone):
            batch.complete(outcome)
            return
        if self._retry is None:
            label = _cell_label(batch.specs[outcome.index].key)
            message = f"campaign cell {label} failed: {outcome.error}"
            if outcome.traceback:
                message += (
                    f"\n--- cell traceback ---\n"
                    f"{outcome.traceback.rstrip()}"
                )
            raise FaultInjectionError(message) from outcome.cause
        batch.failures[outcome.index] = outcome
        batch.heartbeat("retry", outcome.index)

    def _quarantine(
        self, batch: _Batch[Any], index: int, attempts: int
    ) -> QuarantinedCell:
        failure = batch.failures[index]
        spec = batch.specs[index]
        if self._journal is not None:
            self._journal.record_quarantine(
                spec, attempts=attempts, error=failure.error
            )
        batch.heartbeat("quarantine", index)
        return QuarantinedCell(
            key=spec.key,
            attempts=attempts,
            error=failure.error,
            traceback=failure.traceback,
        )

    def _warn_if_timeout_unenforced(self) -> None:
        if self._cell_timeout is None:
            return
        reason = _alarm_unusable_reason(in_process=self._jobs == 1)
        if reason is not None:
            warnings.warn(
                f"cell_timeout={self._cell_timeout:g}s is not enforced: "
                f"{reason}",
                RuntimeWarning,
                stacklevel=3,
            )

    @staticmethod
    def _ensure_submittable(
        specs: Sequence[CellSpec], indices: Sequence[int]
    ) -> None:
        """Reject unpicklable controller factories before the pool
        starts: a configuration error poisoning every cell, not a flaky
        cell to retry. Specs without a factory (the recovery replay's)
        have nothing to check."""
        for index in indices:
            spec = specs[index]
            factory = getattr(spec, "controller_factory", None)
            if factory is None:
                continue
            ensure_parallel_safe(
                factory,
                context=(
                    f"campaign cell {_cell_label(spec.key)} "
                    "controller_factory"
                ),
            )

    # -- one round of attempts ------------------------------------------

    def _run_in_process(
        self,
        batch: _Batch[Any],
        pending: Sequence[int],
        work: Dict[int, CellWork],
    ) -> None:
        for index in pending:
            batch.heartbeat("start", index, worker=os.getpid())
            self._settle(batch, run_cell_attempt(work[index]))

    def _run_on_pool(
        self,
        batch: _Batch[Any],
        pending: Sequence[int],
        work: Dict[int, CellWork],
    ) -> None:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self._jobs, len(pending)),
            initializer=_exit_with_parent,
        )
        running: Dict["concurrent.futures.Future[_CellOutcome]", int] = {}
        # Only a clean finish may block in shutdown: after an error or
        # an interrupt, waiting could hang on a wedged cell.
        graceful = False
        try:
            for index in pending:
                running[pool.submit(run_cell_attempt, work[index])] = index
                batch.heartbeat("start", index)
            self._drain(batch, running)
            graceful = True
        except KeyboardInterrupt:
            if self._journal is not None:
                self._drain_into_journal(batch, pool, running)
            raise
        finally:
            pool.shutdown(wait=graceful, cancel_futures=True)

    def _drain(
        self,
        batch: _Batch[Any],
        running: Dict["concurrent.futures.Future[_CellOutcome]", int],
    ) -> None:
        """Settle cells as they finish, waking every
        :data:`POLL_SECONDS` so the progress renderer can refresh and
        report stalls; ``pool_timeout`` bounds the whole wait."""
        deadline = (
            None
            if self._pool_timeout is None
            else wall_clock() + self._pool_timeout
        )
        while running:
            done, _ = concurrent.futures.wait(
                running,
                timeout=POLL_SECONDS,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                index = running.pop(future)
                self._settle(batch, _future_outcome(future, index))
            self._progress.tick()
            if not done and deadline is not None and wall_clock() > deadline:
                waiting = ", ".join(
                    sorted(
                        _cell_label(batch.specs[index].key)
                        for index in running.values()
                    )
                )
                raise FaultInjectionError(
                    f"campaign cells still pending after "
                    f"{self._pool_timeout}s: {waiting}"
                )

    def _drain_into_journal(
        self,
        batch: _Batch[Any],
        pool: concurrent.futures.ProcessPoolExecutor,
        running: Dict["concurrent.futures.Future[_CellOutcome]", int],
    ) -> None:
        """On interrupt: stop feeding the pool, let the cells already
        on a worker finish (bounded), and journal the ones that
        succeeded."""
        pool.shutdown(wait=False, cancel_futures=True)
        started = [future for future in running if not future.cancelled()]
        if self._cell_timeout is not None:
            grace = self._cell_timeout + 5.0
        elif self._pool_timeout is not None:
            grace = self._pool_timeout
        else:
            grace = 60.0
        finished, _ = concurrent.futures.wait(started, timeout=grace)
        for future in finished:
            outcome = _future_outcome(future, running[future])
            if isinstance(outcome, _CellDone):
                batch.complete(outcome)


@contextmanager
def checkpoint_journal(
    path: Optional[str], header: "JournalHeader", *, resume: bool
) -> Iterator[Optional["CheckpointJournal"]]:
    """Open the run's checkpoint journal (``None`` without a path) and
    close it afterwards.

    Recovery notes (a dropped torn tail) and, on resume, the cells the
    interrupted run was executing are re-emitted as RuntimeWarnings.
    """
    if path is None:
        yield None
        return
    from repro.faults.checkpoint import CheckpointJournal

    with CheckpointJournal.open(path, header, resume=resume) as journal:
        for note in journal.warnings:
            warnings.warn(note, RuntimeWarning, stacklevel=4)
        if resume:
            for note in interrupted_cells(journal.heartbeats):
                warnings.warn(
                    f"interrupted run was executing {note} when it "
                    f"stopped",
                    RuntimeWarning,
                    stacklevel=4,
                )
        yield journal


__all__ = [
    "CampaignCoverage",
    "CampaignExecutor",
    "CampaignInterrupted",
    "CampaignOutcome",
    "CellRetryPolicy",
    "CellRunner",
    "CellWork",
    "QuarantinedCell",
    "checkpoint_journal",
    "ensure_parallel_safe",
    "run_cell_attempt",
    "unpicklable_reason",
]
