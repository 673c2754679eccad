"""The benchmark's own checks: layer accounting on a small traced chaos
run, output checking, and agreement with BENCHMARK.json.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import unittest
from unittest import mock

import layers
import run as driver

#: Small traced command: one smoke campaign plus the recovery replay.
SMALL_CHAOS = ["run", "chaos", "--profile", "smoke", "--seeds", "1"]


class TracedChaosAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        os.makedirs(driver.WORK, exist_ok=True)
        launcher = driver.Launcher(driver.child_env(None))
        cls.untraced = launcher.launch("run", SMALL_CHAOS)
        cls.traced = [launcher.launch("trace", SMALL_CHAOS) for _ in range(2)]
        cls.metrics = []
        for sample in cls.traced:
            assert sample.returncode == 0, sample.stderr.decode()
            assert sample.spans_path is not None
            spans = layers.load_spans(sample.spans_path)
            os.remove(sample.spans_path)
            cls.metrics.append(
                layers.layer_metrics(
                    spans, wall_s=sample.wall_s, import_s=sample.setup_s
                )
            )

    def test_self_times_and_unattributed_add_up_to_wall(self) -> None:
        for sample, metrics in zip(self.traced, self.metrics):
            parts = sum(
                value
                for name, value in metrics.items()
                if name.endswith(".self_s")
            )
            parts += metrics["process.import_s"] + metrics["unattributed_s"]
            self.assertAlmostEqual(parts, sample.wall_s, delta=0.01 * sample.wall_s)

    def test_unattributed_is_under_two_percent(self) -> None:
        for sample, metrics in zip(self.traced, self.metrics):
            self.assertGreaterEqual(metrics["unattributed_s"], 0.0)
            self.assertLess(metrics["unattributed_s"], 0.02 * sample.wall_s)

    def test_call_counts_repeat_exactly(self) -> None:
        first, second = (
            {k: v for k, v in m.items() if k.endswith(".calls")}
            for m in self.metrics
        )
        self.assertEqual(first, second)
        self.assertGreater(first["engine.step.calls"], 0)
        self.assertGreater(first["faults.cell.calls"], 0)

    def test_traced_stdout_equals_untraced_stdout(self) -> None:
        self.assertEqual(self.untraced.returncode, 0)
        for sample in self.traced:
            self.assertEqual(sample.stdout, self.untraced.stdout)


class OutputChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.reference = driver.load_reference()
        self.pool = driver.WORKLOADS["chaos-mixed-pool"]
        self.serial = driver.WORKLOADS["chaos-mixed"]
        self.report = (
            driver.CHAOS_TITLE.format(seed=5)
            + "\nds2 |\nds2-legacy |\ndhalion |\n\nflink |\nheron |\ntimely |\n"
        )

    def test_unreferenced_seed_is_checked_by_shape(self) -> None:
        reference = {"chaos-mixed": {}}
        self.assertIsNone(
            driver.check_output(self.serial, 5, self.report.encode(), reference)
        )
        for broken in (
            self.report.replace("heron |\n", ""),
            self.report.replace("seed 5;", "seed 6;"),
        ):
            self.assertIsNotNone(
                driver.check_output(self.serial, 5, broken.encode(), reference)
            )

    def test_pooled_run_fails_on_quarantine(self) -> None:
        ok = self.report + f"\n{driver.COVERAGE_LINE}\n"
        reference = {"chaos-mixed": {}}
        self.assertIsNone(driver.check_output(self.pool, 5, ok.encode(), reference))
        bad = (
            self.report
            + "\nCoverage: 11/12 cells completed, 1 quarantined\n"
            + "  quarantined (seed=5, campaign=0, controller='ds2') "
            + "after 3 attempt(s): boom\n"
        )
        self.assertIsNotNone(driver.check_output(self.pool, 5, bad.encode(), reference))

    def test_committed_reference_is_exact(self) -> None:
        self.assertIsNotNone(
            driver.check_output(self.serial, 1, self.report.encode(), self.reference)
        )

    def test_child_environment_drops_repro_variables(self) -> None:
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "7"}):
            env = driver.child_env(None)
        self.assertFalse([k for k in env if k.startswith("REPRO_")])
        self.assertEqual(env["PYTHONPATH"], driver.SRC)
        self.assertEqual(driver.child_env("vector")["REPRO_ENGINE"], "vector")


class BenchmarkDeclaration(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self) -> None:
        with open(os.path.join(driver.ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]],
            list(driver.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            layers.metric_names(),
        )
        self.assertEqual(
            sorted(w["name"] for w in declared["workloads"]),
            sorted(driver.WORKLOADS),
        )


if __name__ == "__main__":
    unittest.main()
