#!/usr/bin/env python3
"""Outside-in benchmark of the ``repro`` command line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--engine object|vector]
       python3 perfbench/run.py --record SEED [SEED ...]

Run from the root of a source checkout. Each workload is one real
``repro`` command, run closed-loop: the driver starts it in a fresh
interpreter, waits for it to exit, checks its stdout against the
committed reference, and starts the next, for about ``--seconds`` of
commands. See README.md in this directory for the workloads, the
metrics and the traps.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics (medians over the run's commands); with ``--trace 1``
the last command is traced instead and the object carries the per-layer
metrics. ``--record`` rewrites the output references in reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import layers  # noqa: E402

#: Kill a command (and its process group) that runs longer than this.
COMMAND_TIMEOUT_S = 150.0
#: Start-up-only launches per measured run; the first is a warm-up that
#: fills the bytecode cache and is not counted.
SETUP_PROBES = 6

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

CHAOS_TITLE = "Chaos campaign 'mixed' (4 campaigns, seed {seed}; lower score is better)"
COVERAGE_LINE = "Coverage: 12/12 cells completed, 0 quarantined"


def pool_jobs() -> int:
    """Worker processes for the pooled workload: 2, capped at nproc."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments for a seed and a fresh journal path.
    argv: Callable[[int, str], List[str]]
    #: Seconds one command took on the 2-core reference host (see
    #: README.md). A run makes ``round(seconds / nominal_s)`` commands,
    #: so the parent and a change always run the same number.
    nominal_s: float
    #: Trace without replacing callables that a process pool pickles.
    pooled: bool = False

    def commands(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_s))


def _chaos_argv(seed: int, journal: str) -> List[str]:
    return [
        "run", "chaos", "--profile", "mixed", "--seeds", "4",
        "--fault-seed", str(seed),
    ]


WORKLOADS: Dict[str, Workload] = {
    "chaos-mixed": Workload("chaos-mixed", _chaos_argv, nominal_s=9.7),
    "table4-short": Workload(
        "table4-short",
        lambda seed, journal: ["run", "table4", "--scale", "0.2"],
        nominal_s=18.8,
    ),
    "chaos-mixed-pool": Workload(
        "chaos-mixed-pool",
        lambda seed, journal: _chaos_argv(seed, journal)
        + ["--jobs", str(pool_jobs()), "--checkpoint", journal],
        nominal_s=7.4,
        pooled=True,
    ),
}


@dataclass
class Sample:
    """One finished command."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    spans_path: Optional[str]


def child_env(engine: Optional[str]) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` variable, with
    the checkout's sources first on the path and hashing pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    if engine is not None:
        env["REPRO_ENGINE"] = engine
    return env


class Launcher:
    """Starts commands one at a time and measures each from outside."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.env = env
        self._count = 0

    def _path(self, kind: str) -> str:
        self._count += 1
        return os.path.join(WORK, f"{os.getpid()}-{self._count}.{kind}")

    def launch(self, mode: str, argv: Sequence[str]) -> Sample:
        mark = self._path("mark")
        out_path, err_path = self._path("out"), self._path("err")
        cmd = [sys.executable, LAUNCH, mode, mark, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            watchdog = threading.Timer(
                COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
            )
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.monotonic()
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, "rb") as f:
            stderr = f.read()
        main_start, package = float("nan"), ""
        if os.path.exists(mark):
            with open(mark) as f:
                main_start = float(f.readline())
                package = f.readline().strip()
        for path in (mark, out_path, err_path):
            if os.path.exists(path):
                os.remove(path)
        returncode = proc.returncode
        if returncode == 0 and not package.startswith(SRC + os.sep):
            stderr += f"repro imported from {package!r}, not {SRC}\n".encode()
            returncode = -1
        spans = mark + ".spans"
        return Sample(
            wall_s=ended - spawned,
            setup_s=main_start - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            returncode=returncode,
            stdout=stdout,
            stderr=stderr,
            spans_path=spans if os.path.exists(spans) else None,
        )

    def command(self, workload: Workload, seed: int, mode: str) -> Sample:
        """Run the workload's command once, with a fresh journal."""
        journal = self._path("journal")
        try:
            return self.launch(mode, workload.argv(seed, journal))
        finally:
            if os.path.exists(journal):
                os.remove(journal)


def load_reference() -> Dict[str, object]:
    with open(REFERENCE) as f:
        return json.load(f)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_chaos_report(
    text: str, seed: int, reference: Dict[str, object]
) -> Optional[str]:
    """None if ``text`` is the chaos report for ``seed``, else why not."""
    known: Dict[str, str] = reference["chaos-mixed"]  # type: ignore[assignment]
    expected = known.get(str(seed))
    if expected is not None:
        if _sha256(text.encode()) != expected:
            return f"stdout differs from the reference for seed {seed}"
        return None
    # No committed reference for this seed: check the report's shape.
    lines = text.splitlines()
    if not lines or lines[0] != CHAOS_TITLE.format(seed=seed):
        return "chaos report title missing"
    rows = {line.split(" ", 1)[0] for line in lines}
    missing = {"ds2", "ds2-legacy", "dhalion", "flink", "heron", "timely"} - rows
    if missing:
        return f"chaos report lacks rows {sorted(missing)}"
    return None


def check_output(
    workload: Workload, seed: int, stdout: bytes, reference: Dict[str, object]
) -> Optional[str]:
    """None if the command printed what it should, else why not."""
    try:
        text = stdout.decode()
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if workload.name == "table4-short":
        if _sha256(stdout) != reference["table4-short"]:
            return "stdout differs from the Table 4 reference"
        return None
    if workload.pooled:
        if "quarantined (" in text:
            return "pooled run quarantined cells"
        suffix = f"\n\n{COVERAGE_LINE}\n"
        if not text.endswith(suffix):
            return "pooled run lacks the full-coverage line"
        text = text[: -len(suffix)] + "\n"
    return check_chaos_report(text, seed, reference)


def host_record() -> Dict[str, object]:
    """The facts a result depends on, recorded with every result."""
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout; None outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``.py`` file under ``src/``, so a result names
    the code it measured even where there is no git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


@dataclass
class Run:
    """The commands of one benchmark run and what went wrong in them."""

    samples: List[Sample]
    setups: List[float]
    errors: List[str]
    traced: Optional[Sample] = None

    @property
    def attempted(self) -> int:
        return len(self.samples) + (self.traced is not None)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    launcher: Launcher,
) -> Run:
    """One benchmark run: closed-loop commands filling about ``seconds``.

    Untraced runs first launch :data:`SETUP_PROBES` start-ups, plus one
    warm-up. In a traced run the last of the commands is the traced one.
    """
    reference = load_reference()
    run = Run(samples=[], setups=[], errors=[])
    if not trace:
        for probe in range(SETUP_PROBES + 1):
            sample = launcher.launch("probe", [])
            if sample.returncode != 0:
                raise SystemExit(f"set-up probe failed:\n{sample.stderr.decode()}")
            if probe:
                run.setups.append(sample.setup_s)

    def checked(mode: str) -> Sample:
        sample = launcher.command(workload, seed, mode)
        problem = (
            f"exit code {sample.returncode}: {sample.stderr.decode()[-2000:]}"
            if sample.returncode != 0
            else check_output(workload, seed, sample.stdout, reference)
        )
        if problem is None and run.samples and sample.stdout != run.samples[0].stdout:
            problem = "stdout differs between commands of the same seed"
        if problem is not None:
            run.errors.append(f"{mode} command: {problem}")
        return sample

    for _ in range(max(1, workload.commands(seconds) - trace)):
        sample = checked("run")
        run.samples.append(sample)
        run.setups.append(sample.setup_s)
    if trace:
        run.traced = checked("trace-parent" if workload.pooled else "trace")
    return run


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(s.wall_s for s in run.samples),
        "setup_s": statistics.median(run.setups),
        "cpu_s": statistics.median(s.cpu_s for s in run.samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in run.samples),
    }


def per_layer_metrics(run: Run) -> Dict[str, float]:
    traced = run.traced
    if traced is None or traced.spans_path is None:
        raise SystemExit("traced command wrote no spans")
    spans = layers.load_spans(traced.spans_path)
    os.remove(traced.spans_path)
    metrics = layers.layer_metrics(
        spans, wall_s=traced.wall_s, import_s=traced.setup_s
    )
    metrics["trace_overhead_s"] = traced.wall_s - statistics.median(
        s.wall_s for s in run.samples
    )
    return metrics


def report(
    workload: Workload,
    seed: int,
    trace: bool,
    run: Run,
    metrics: Dict[str, float],
    units: Dict[str, str],
) -> Dict[str, object]:
    """Print the human-readable summary; return the result object."""
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}")
    print(f"host {json.dumps(host_record(), sort_keys=True)}")
    walls = ", ".join(f"{s.wall_s:.3f}" for s in run.samples)
    print(f"commands {run.attempted}; untraced wall_s: {walls}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {units[name]}")
    failed = len(run.errors)
    print(f"  {'failed_frac':<30} {failed / run.attempted:>14.6f} (of {run.attempted})")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def record(seeds: Sequence[int], launcher: Launcher) -> None:
    """Run the serial chaos workload at each seed and store the sha256
    of its stdout (and of Table 4's) in reference.json."""
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    chaos = dict(reference.get("chaos-mixed", {}))
    for seed in seeds:
        sample = launcher.command(WORKLOADS["chaos-mixed"], seed, "run")
        if sample.returncode != 0:
            raise SystemExit(sample.stderr.decode())
        chaos[str(seed)] = _sha256(sample.stdout)
        print(f"chaos-mixed seed {seed}: {chaos[str(seed)]}")
    sample = launcher.command(WORKLOADS["table4-short"], 1, "run")
    if sample.returncode != 0:
        raise SystemExit(sample.stderr.decode())
    reference["table4-short"] = _sha256(sample.stdout)
    reference["chaos-mixed"] = dict(sorted(chaos.items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--engine",
        choices=("object", "vector"),
        help="set REPRO_ENGINE in the child (notes only; not a workload)",
    )
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if args.record is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    launcher = Launcher(child_env(args.engine))
    if args.record is not None:
        record(args.record, launcher)
        return 0
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run = measure(workload, args.seed, args.seconds, trace, launcher)
    if trace:
        metrics = per_layer_metrics(run)
        units = dict(layers.metric_names())
    else:
        metrics = end_to_end_metrics(run)
        units = dict(END_TO_END)
    result = report(workload, args.seed, trace, run, metrics, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
