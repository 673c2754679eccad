"""Serial ↔ parallel equivalence suite for the campaign executor.

The `CampaignExecutor` contract: running the same cell specs on a
process pool (`jobs > 1`) produces scorecards *byte-identical*
(asserted through a `SasoScorecard` dict round-trip and `repr`) to the
in-process run (`jobs=1`), in the same canonical (campaign-major,
controller-minor) order, regardless of completion order — under every
multiprocessing start method, for span structure and metrics text as
well as scorecards. The suite also covers the failure paths — a
controller factory that raises must surface the failing `(seed,
campaign, controller)` cell with its traceback, in-process or in a
child, and must not hang the pool — plus jobs/env validation, the
rate-less-source regression, and the pickle guard that rejects
lambdas, closures and bound methods before any worker starts. The
chaos experiment's crash-recovery replay runs on the same executor and
is held to the same contract.
"""

import dataclasses
import multiprocessing
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.runtimes import HeronRuntime
from repro.errors import FaultInjectionError
from repro.cli import main
from repro.experiments.chaos import (
    WORKLOADS,
    ChaosWorkload,
    chaos_controllers,
    chaos_report,
    recovery_distributions,
    resolve_workload,
    run_chaos,
)
from repro.experiments.comparison import HERON_POLICY_INTERVAL
from repro.faults.campaigns import (
    JOBS_ENV_VAR,
    PROFILES,
    CampaignGenerator,
    CampaignProfile,
    CampaignRunner,
    CampaignTargets,
    resolve_jobs,
    run_campaign_cell,
)
from repro.faults.executor import (
    CampaignExecutor,
    ensure_parallel_safe,
    unpicklable_reason,
)
from repro.telemetry.registry import MetricsRegistry, metering
from repro.telemetry.spans import SpanProfiler, profiling
from repro.workloads.wordcount import (
    COUNT,
    FLATMAP,
    SINK,
    SOURCE,
    heron_wordcount_graph,
)

#: Generous per-cell ceiling: smoke cells finish in well under a second,
#: so hitting this means the pool deadlocked, which is exactly what the
#: timeout guard is for.
POOL_TIMEOUT = 180.0


def _cards_as_dicts(cards):
    return [dataclasses.asdict(card) for card in cards]


def _wordcount_generator(profile, seed=1):
    return CampaignGenerator(
        profile,
        CampaignTargets.from_graph(heron_wordcount_graph()),
        seed=seed,
    )


def _runner(workload="wordcount", tick=2.0):
    return resolve_workload(workload).runner(tick)


def _assert_equivalent(serial, parallel):
    assert _cards_as_dicts(serial) == _cards_as_dicts(parallel)
    assert repr(serial) == repr(parallel)


class TestSerialParallelEquivalence:
    def test_smoke_profile_golden(self):
        """Fixed-seed golden cells: jobs=2 matches serial exactly."""
        runner = _runner()
        generator = _wordcount_generator(PROFILES["smoke"])
        serial = runner.run(generator, 2, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            2,
            executor=CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)
        # Canonical order is campaign-major, controller-minor.
        assert [(c.campaign, c.controller) for c in serial] == [
            (campaign, controller)
            for campaign in (0, 1)
            for controller in ("ds2", "ds2-legacy", "dhalion")
        ]

    def test_smoke_profile_jobs_three(self):
        """More workers than campaigns still merges canonically."""
        runner = _runner()
        generator = _wordcount_generator(PROFILES["smoke"], seed=7)
        serial = runner.run(generator, 2, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            2,
            executor=CampaignExecutor(jobs=3, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)

    @pytest.mark.slow
    def test_mixed_profile(self):
        runner = _runner(tick=2.0)
        generator = _wordcount_generator(PROFILES["mixed"])
        serial = runner.run(generator, 2, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            2,
            executor=CampaignExecutor(jobs=4, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)

    def test_nexmark_windowed_cell(self):
        """A windowed Nexmark graph runs identically on the pool."""
        runner = _runner("nexmark-q5")
        generator = CampaignGenerator(
            PROFILES["smoke"],
            CampaignTargets.from_graph(
                resolve_workload("nexmark-q5").graph_factory()
            ),
            seed=3,
        )
        serial = runner.run(generator, 1, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            1,
            executor=CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)

    @pytest.mark.slow
    def test_nexmark_timely_global_scaling_cell(self):
        runner = _runner("nexmark-q5-timely")
        generator = CampaignGenerator(
            PROFILES["smoke"],
            CampaignTargets.from_graph(
                resolve_workload("nexmark-q5-timely").graph_factory()
            ),
            seed=3,
        )
        serial = runner.run(generator, 1, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            1,
            executor=CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)

    @pytest.mark.slow
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        events=st.floats(min_value=5.0, max_value=30.0),
        burstiness=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_property_any_profile_matches(
        self, seed, events, burstiness
    ):
        """Hypothesis: equivalence holds across sampled profiles."""
        profile = CampaignProfile(
            name="prop",
            mix={"crash": 1.0, "dropout": 1.0, "lag": 1.0},
            duration=160.0,
            quiet_head=20.0,
            events_per_1000s=events,
            burstiness=burstiness,
            dropout_seconds=(10.0, 40.0),
            lag_seconds=(10.0, 30.0),
        )
        controllers = chaos_controllers()
        runner = CampaignRunner(
            graph=heron_wordcount_graph(),
            runtime=HeronRuntime(),
            initial_parallelism={
                SOURCE: 2, FLATMAP: 1, COUNT: 1, SINK: 1,
            },
            controllers={"ds2": controllers["ds2"]},
            policy_interval=HERON_POLICY_INTERVAL,
        )
        generator = _wordcount_generator(profile, seed=seed)
        serial = runner.run(generator, 1, executor=CampaignExecutor())
        parallel = runner.run(
            generator,
            1,
            executor=CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT),
        )
        _assert_equivalent(serial, parallel)

    def test_run_campaign_cell_matches_runner(self):
        """The extracted cell body is exactly one cell of run()."""
        runner = _runner()
        generator = _wordcount_generator(PROFILES["smoke"])
        specs = runner.cell_specs(generator, 1)
        direct = [run_campaign_cell(spec) for spec in specs]
        batch = runner.run(generator, 1, executor=CampaignExecutor())
        _assert_equivalent(direct, batch)

    def test_empty_batch(self):
        runner = _runner()
        generator = _wordcount_generator(PROFILES["smoke"])
        assert runner.run(
            generator, 0, executor=CampaignExecutor(jobs=2)
        ) == []


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request):
    """Run the test's pools under one multiprocessing start method and
    restore the process default afterwards."""
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} is not available here")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield method
    finally:
        multiprocessing.set_start_method(previous, force=True)


#: Wall-clock step timings differ from run to run (their count does
#: not), so these lines are left out of the compared metrics text.
_TIMED_METRIC_LINES = (
    "repro_engine_step_seconds_bucket",
    "repro_engine_step_seconds_sum",
)


def _observed_smoke_batch(executor):
    """Scorecards, span structure and metrics text of the smoke batch."""
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    with metering(registry), profiling(profiler):
        cards = _runner().run(
            _wordcount_generator(PROFILES["smoke"]), 2, executor=executor
        )
    metrics = [
        line
        for line in registry.render_text().splitlines()
        if not line.startswith(_TIMED_METRIC_LINES)
    ]
    return _cards_as_dicts(cards), profiler.structure(), metrics


@pytest.fixture(scope="module")
def serial_smoke_batch():
    return _observed_smoke_batch(CampaignExecutor())


def _span_counts(structure):
    return {
        child["name"]: child["count"] for child in structure["children"]
    }


def _observed_recovery_replay(jobs):
    """Outage samples, span structure and metrics text of a small
    crash-recovery replay."""
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    with metering(registry), profiling(profiler):
        samples = recovery_distributions(
            campaigns=2, seed=1, tick=2.0, jobs=jobs
        )
    metrics = [
        line
        for line in registry.render_text().splitlines()
        if not line.startswith(_TIMED_METRIC_LINES)
    ]
    return samples, profiler.structure(), metrics


@pytest.fixture(scope="module")
def serial_recovery_replay():
    return _observed_recovery_replay(jobs=1)


class TestStartMethods:
    def test_start_method_recovery_replay_matches_serial(
        self, start_method, serial_recovery_replay
    ):
        serial_samples, serial_spans, serial_metrics = (
            serial_recovery_replay
        )
        samples, spans, metrics = _observed_recovery_replay(jobs=2)
        assert samples == serial_samples
        assert _span_counts(serial_spans)["engine.tick"] > 0
        assert spans == serial_spans
        assert metrics == serial_metrics

    def test_start_method_pool_matches_serial(
        self, start_method, serial_smoke_batch
    ):
        """Worker telemetry arrives whatever the start method: the
        opt-ins travel in each work item, not in inherited state."""
        serial_cards, serial_spans, serial_metrics = serial_smoke_batch
        cards, spans, metrics = _observed_smoke_batch(
            CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT)
        )
        assert cards == serial_cards
        counts = _span_counts(spans)
        serial_counts = _span_counts(serial_spans)
        for name in ("controller.decide", "engine.tick"):
            assert serial_counts[name] > 0
            assert counts.get(name) == serial_counts[name]
        assert spans == serial_spans
        assert metrics == serial_metrics


class TestRecoveryReplayJobs:
    """The replay cells give the same samples, report, trace and
    metrics at any ``--jobs``."""

    def test_recovery_run_chaos_jobs_independent(self):
        serial, pooled = (
            run_chaos(
                profile="smoke",
                campaigns=2,
                tick=2.0,
                include_recovery=True,
                jobs=jobs,
            )
            for jobs in (1, 2)
        )
        assert serial.recovery
        assert pooled.recovery == serial.recovery
        assert chaos_report(pooled) == chaos_report(serial)

    def test_recovery_cli_trace_and_metrics_jobs_independent(
        self, tmp_path, capsys
    ):
        observed = []
        for jobs in ("1", "2"):
            trace = tmp_path / f"trace-{jobs}.jsonl"
            assert main([
                "run", "chaos", "--profile", "smoke", "--seeds", "2",
                "--scale", "0.5", "--jobs", jobs,
                "--trace", str(trace), "--telemetry",
            ]) == 0
            out = capsys.readouterr().out.replace(str(trace), "TRACE")
            lines = [
                line
                for line in out.splitlines()
                if not line.startswith(_TIMED_METRIC_LINES)
            ]
            observed.append((trace.read_bytes(), lines))
        (serial_trace, serial_out), (pooled_trace, pooled_out) = observed
        assert serial_trace
        assert pooled_trace == serial_trace
        assert "Crash-recovery outage per runtime" in "\n".join(serial_out)
        assert pooled_out == serial_out


def _exploding_controller():
    raise RuntimeError("kaboom-controller")


class TestWorkerFailure:
    def _boom_runner(self):
        return CampaignRunner(
            graph=heron_wordcount_graph(),
            runtime=HeronRuntime(),
            initial_parallelism={
                SOURCE: 2, FLATMAP: 1, COUNT: 1, SINK: 1,
            },
            controllers={"boom": _exploding_controller},
            policy_interval=HERON_POLICY_INTERVAL,
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_failure_names_cell_and_traceback(self, jobs):
        """One failure path: in-process and on the pool, the first
        failing cell aborts the batch with its key and traceback."""
        runner = self._boom_runner()
        generator = _wordcount_generator(PROFILES["smoke"], seed=9)
        with pytest.raises(FaultInjectionError) as excinfo:
            runner.run(
                generator,
                2,
                executor=CampaignExecutor(
                    jobs=jobs, pool_timeout=POOL_TIMEOUT
                ),
            )
        message = str(excinfo.value)
        # The failing (seed, campaign, controller) cell is named...
        assert "seed=9" in message
        assert "campaign=" in message
        assert "controller='boom'" in message
        # ...with the cell's own traceback attached.
        assert "RuntimeError: kaboom-controller" in message
        assert "cell traceback" in message
        assert "_exploding_controller" in message
        cause = excinfo.value.__cause__
        if jobs == 1:
            # In-process, the original exception stays chained.
            assert isinstance(cause, RuntimeError)
            assert str(cause) == "kaboom-controller"
        else:
            assert cause is None

    def test_unpicklable_factory_names_cell(self):
        runner = CampaignRunner(
            graph=heron_wordcount_graph(),
            runtime=HeronRuntime(),
            initial_parallelism={
                SOURCE: 2, FLATMAP: 1, COUNT: 1, SINK: 1,
            },
            controllers={"lam": lambda: None},
            policy_interval=HERON_POLICY_INTERVAL,
        )
        generator = _wordcount_generator(PROFILES["smoke"])
        with pytest.raises(
            FaultInjectionError, match="controller='lam'.*lambda"
        ):
            runner.run(
                generator,
                1,
                executor=CampaignExecutor(jobs=2, pool_timeout=POOL_TIMEOUT),
            )


class TestJobsResolution:
    def test_parallel_executor_rejects_nonpositive_jobs(self):
        for jobs in (0, -1):
            with pytest.raises(FaultInjectionError, match="jobs"):
                CampaignExecutor(jobs=jobs)

    def test_resolve_jobs_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        with pytest.raises(FaultInjectionError, match="jobs"):
            resolve_jobs(0)
        with pytest.raises(FaultInjectionError, match="jobs"):
            resolve_jobs(-2)

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs() == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "")
        assert resolve_jobs() == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(FaultInjectionError, match=JOBS_ENV_VAR):
            resolve_jobs()
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        with pytest.raises(FaultInjectionError, match="jobs"):
            resolve_jobs()

    def test_explicit_jobs_beat_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(2) == 2


class TestRateLessSourceRegression:
    def test_targets_for_raises_fault_injection_error(self):
        """A rate-less source must raise (not assert) with the
        operator named — asserts vanish under `python -O`."""
        graph = heron_wordcount_graph()
        runner = CampaignRunner(
            graph=graph,
            runtime=HeronRuntime(),
            initial_parallelism={
                SOURCE: 2, FLATMAP: 1, COUNT: 1, SINK: 1,
            },
            controllers=chaos_controllers(),
            policy_interval=HERON_POLICY_INTERVAL,
        )
        # Sources cannot normally be built without a rate (the spec
        # validates it), so strip it after construction to model a
        # hand-assembled or future graph variant.
        object.__setattr__(graph.operator(SOURCE), "rate", None)
        with pytest.raises(FaultInjectionError) as excinfo:
            runner._targets_for(240.0)
        message = str(excinfo.value)
        assert SOURCE in message
        assert "target_rates" in message
        assert not isinstance(excinfo.value, AssertionError)

    def test_explicit_target_rates_bypass_source_rates(self):
        graph = heron_wordcount_graph()
        runner = CampaignRunner(
            graph=graph,
            runtime=HeronRuntime(),
            initial_parallelism={
                SOURCE: 2, FLATMAP: 1, COUNT: 1, SINK: 1,
            },
            controllers=chaos_controllers(),
            policy_interval=HERON_POLICY_INTERVAL,
            target_rates={SOURCE: 1000.0},
        )
        object.__setattr__(graph.operator(SOURCE), "rate", None)
        assert runner._targets_for(240.0) == {SOURCE: 1000.0}


def _module_factory():
    return object()


class _Holder:
    def method(self):
        return object()


class TestRuntimeGuard:
    def test_module_level_callable_passes(self):
        assert ensure_parallel_safe(_module_factory) is _module_factory
        assert unpicklable_reason(_module_factory) is None

    def test_lambda_is_rejected(self):
        reason = unpicklable_reason(lambda: None)
        assert reason is not None and "lambda" in reason
        with pytest.raises(FaultInjectionError, match="lambda"):
            ensure_parallel_safe(lambda: None)

    def test_local_def_is_rejected(self):
        def local_factory():
            return object()

        reason = unpicklable_reason(local_factory)
        assert reason is not None
        assert "defined inside a function" in reason
        assert "local_factory" in reason

    def test_bound_method_is_rejected(self):
        reason = unpicklable_reason(_Holder().method)
        assert reason is not None and "bound method" in reason

    def test_classmethod_bound_to_type_passes(self):
        # classmethods pickle by qualified name like plain functions.
        assert unpicklable_reason(dict.fromkeys) is None

    def test_partial_over_lambda_is_rejected(self):
        reason = unpicklable_reason(partial(sorted, key=lambda x: x))
        assert reason is not None
        assert "functools.partial" in reason and "lambda" in reason

    def test_partial_over_module_callable_passes(self):
        assert unpicklable_reason(partial(_module_factory)) is None

    def test_mapping_values_are_checked_and_keyed(self):
        reason = unpicklable_reason(
            {"ok": _module_factory, "bad": lambda: None}
        )
        assert reason is not None
        assert "'bad'" in reason and "lambda" in reason

    def test_context_prefixes_the_error(self):
        with pytest.raises(
            FaultInjectionError, match="controllers_factory:"
        ):
            ensure_parallel_safe(
                lambda: None, context="controllers_factory"
            )


class TestProcessBoundaryHooks:
    def test_parallel_executor_rejects_lambda_factory(self):
        spec = SimpleNamespace(
            key=(7, 0, "lam"), controller_factory=lambda: None
        )
        with pytest.raises(FaultInjectionError) as excinfo:
            CampaignExecutor._ensure_submittable([spec], [0])
        message = str(excinfo.value)
        assert "controller='lam'" in message
        assert "lambda" in message

    def test_parallel_executor_accepts_module_factory(self):
        spec = SimpleNamespace(
            key=(7, 0, "ok"), controller_factory=_module_factory
        )
        CampaignExecutor._ensure_submittable([spec], [0])

    def test_chaos_workload_rejects_lambda_factory(self):
        with pytest.raises(
            FaultInjectionError, match="graph_factory.*lambda"
        ):
            ChaosWorkload(
                name="bad",
                description="lambda factory must be rejected",
                policy_interval=1.0,
                graph_factory=lambda: None,
                runtime_factory=_module_factory,
                parallelism_factory=_module_factory,
                controllers_factory=_module_factory,
            )

    def test_shipped_chaos_workloads_construct_cleanly(self):
        # WORKLOADS is built at import time, so importing it at all
        # proves every shipped factory passed ensure_parallel_safe.
        assert WORKLOADS
