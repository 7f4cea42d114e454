"""Self-tests of the benchmark's oracle, failure accounting and tracer.

    python3 perfbench/selftest.py

Runs in a few seconds on small requests; needs ``src/cyclo2`` next to
``perfbench/``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
import unittest.mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cyclo2  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from cyclo2 import cli  # noqa: E402
from reference import Speedometer  # noqa: E402
from worker import Measurement  # noqa: E402
from workloads import WORKLOADS, Request, write_presentations  # noqa: E402


def request(key: str) -> Request:
    for reqs in WORKLOADS.values():
        for req in reqs:
            if req.key == key:
                return req
    raise KeyError(key)


class Inputs:
    """Presentation files of the benchmark in a temporary directory."""

    def __enter__(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.paths = write_presentations(self.tmp.name)
        return self

    def __exit__(self, *exc):
        self.tmp.cleanup()

    def run(self, req: Request, seed: int = 0) -> dict:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.run(req.config(self.paths[req.input], seed))[1]


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.expected = oracle.load()

    def test_recorded_reports_pass_for_any_seed(self):
        req = request("f4:verify-approx:hcminus:D0:N6:S3")
        with Inputs() as inputs:
            for seed in (3, 12345):
                report = inputs.run(req, seed)
                self.assertEqual(
                    oracle.check(req, report, self.expected[req.key]), [])

    def test_corrupted_report_trips_the_oracle(self):
        req = request("f4:verify-approx:hcminus:D0:N6:S3")
        with Inputs() as inputs:
            report = inputs.run(req)
        want = self.expected[req.key]
        bad = copy.deepcopy(report)
        bad["entries"][0]["dim_source"] += 1
        self.assertIn("report differs from the recorded digest",
                      oracle.check(req, bad, want))
        bad = copy.deepcopy(report)
        bad["all_iso"] = False
        self.assertIn("smooth input without all_iso",
                      oracle.check(req, bad, want))
        bad = copy.deepcopy(report)
        bad["product_failures"] = 1
        self.assertTrue(oracle.check(req, bad, {}))
        bad = copy.deepcopy(report)
        del bad["entries"][-1]
        self.assertTrue(oracle.check(req, bad, {}))

    def test_hkr_check_trips_on_a_wrong_dimension(self):
        req = Request("poly_xy", "compute", "hh", 3, 3)
        with Inputs() as inputs:
            report = inputs.run(req)
        self.assertEqual(oracle.math_problems(req, report), [])
        entry = next(e for e in report["entries"]
                     if e["n"] == 1 and e["internal"] == 2)
        self.assertEqual(entry["dim"], oracle.hkr_dim(2, 1, 2))
        entry["dim"] += 1
        self.assertEqual(len(oracle.math_problems(req, report)), 1)

    def test_recorded_failure_has_no_digest(self):
        req = request("dual_numbers:verify-approx:hcminus:D0:N4:S3")
        self.assertNotIn("sha256", self.expected[req.key])
        self.assertIn("error", self.expected[req.key])


class RaisingRequestTest(unittest.TestCase):
    """A request that raises is correct only if it raises as recorded."""

    def measure(self, req: Request, error: Exception | None = None):
        def raising(cfg):
            raise error

        with Inputs() as inputs, contextlib.ExitStack() as stack:
            if error is not None:
                stack.enter_context(
                    unittest.mock.patch.object(cli, "run", raising))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            m = Measurement("ungraded-towers", inputs.paths, 0, None)
            m.request(req)
        return m

    def test_raising_where_a_digest_was_recorded_is_wrong(self):
        req = request("f4:verify-approx:hcminus:D0:N6:S3")
        self.assertIn("sha256", oracle.load()[req.key])
        m = self.measure(req, ValueError("fast and wrong"))
        self.assertEqual((m.attempted, m.failed, m.wrong), (1, 1, 1))

    def test_raising_another_error_than_recorded_is_wrong(self):
        req = request("dual_numbers:verify-approx:hcminus:D0:N4:S3")
        m = self.measure(req, ValueError("dimension mismatch in add"))
        self.assertEqual((m.attempted, m.failed, m.wrong), (1, 1, 1))

    def test_the_recorded_error_fails_but_is_correct(self):
        req = request("dual_numbers:verify-approx:hcminus:D0:N4:S3")
        m = self.measure(req)
        self.assertEqual((m.attempted, m.failed, m.wrong), (1, 1, 0))
        [line] = m.failures
        self.assertIn(oracle.load()[req.key]["error"], line)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = tracing.Tracer()
        self.bindings = self._bindings()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    @staticmethod
    def _bindings() -> list[tuple[object, str, object]]:
        return [(mod, name, obj) for mod in tracing.cyclo2_modules()
                for name, obj in vars(mod).items()]

    def test_every_binding_of_a_patched_function_is_wrapped(self):
        originals = {id(fn): label
                     for label, fn in self.tracer.originals.items()}
        wrapped = 0
        for mod, name, obj in self.bindings:
            label = originals.get(id(obj))
            if label is None:
                continue
            wrapped += 1
            self.assertIs(getattr(mod, name), self.tracer.wrapped[label],
                          f"{mod.__name__}.{name} still unwrapped")
        self.assertGreater(wrapped, len(self.tracer.originals) // 2)
        for mod, name, obj in self._bindings():
            self.assertNotIn(id(obj), originals,
                             f"{mod.__name__}.{name} binds an original")
        self.assertIs(cyclo2.homology,
                      self.tracer.wrapped["cyclic.homology"])
        self.assertIs(cyclo2.approx.homology, cyclo2.cyclic.homology)
        self.assertIs(cyclo2.gralg.AlgebraPresentation.mul,
                      self.tracer.wrapped["gralg.AlgebraPresentation.mul"])

    def test_uninstall_restores_every_binding(self):
        self.tracer.uninstall()
        for mod, name, obj in self.bindings:
            self.assertIs(vars(mod)[name], obj)

    def test_self_times_sum_to_the_traced_wall(self):
        reqs = [Request("poly_xy", "verify-approx", "hcminus", 3, 3),
                Request("poly_xy", "compute", "hh", 3, 3),
                request("f4:verify-approx:hc:D0:N6:S3"),
                request("dual_numbers:compute:hcper:D0:N8:S4")]
        speedometer = Speedometer(self.tracer.absorb_probe)
        wall = 0.0
        with Inputs() as inputs:
            speedometer.start()
            try:
                for req in reqs:
                    self.tracer.begin_request()
                    paused = speedometer.paused
                    t0 = time.perf_counter()
                    inputs.run(req)
                    wall += (time.perf_counter() - t0
                             - (speedometer.paused - paused))
            finally:
                speedometer.stop()
        self.assertTrue(speedometer.probes)
        roots = sum(t1 - t0 for _, t0, t1, parent in self.tracer.spans
                    if parent == -1)
        self_s = self.tracer.self_times()
        total = sum(self_s.values())
        self.assertAlmostEqual(total, roots - speedometer.paused, delta=1e-6)
        self.assertLessEqual(total, wall)
        self.assertGreater(total, 0.97 * wall)
        metrics = self.tracer.layer_metrics()
        self.assertAlmostEqual(sum(metrics[f"{layer}.self_share"]
                                   for layer in tracing.LAYERS), 1.0)
        for layer in tracing.LAYERS:
            self.assertGreater(metrics[f"{layer}.calls"], 0, layer)
            self.assertGreaterEqual(self_s[layer], -1e-9, layer)


class CommandTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Next to BENCHMARK.json and perfbench/ alone, run.py refuses to
        run and prints no result."""
        root = os.path.dirname(HERE)
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns(".out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "verify-smooth", "--seed", "1", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_declared_metrics_match_the_tracer(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = {m["name"] for m in spec["per_layer"]}
        produced = set(tracing.Tracer().layer_metrics()) | {
            "traced_wall_s", "trace_overhead"}
        self.assertEqual(declared, produced)


if __name__ == "__main__":
    unittest.main()
