"""Self-tests of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

The smoke tests run every workload once untraced and twice traced with the
shortest possible timing window (under a minute in all on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

EXACT = ("flow.f_evals_per_flow_time", "flow.point_speed_evals",
         "cli.write_outputs.bytes")


def quiet_measure(*args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.measure(*args, **kwargs)


class SpecTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_metric_tables_match_spec(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         bench.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         bench.PER_LAYER_UNITS)

    def test_seed_gives_same_inputs(self):
        for name, cls in WORKLOADS.items():
            a, b = (vars(cls(7, bench.OUT / name)) for _ in range(2))
            self.assertEqual(a, b, name)


class TracerTest(unittest.TestCase):
    def test_threads_nest_and_lose_no_span(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        n_threads, n_calls = 8, 2000
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [outer(i) for i in range(n_calls)])
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            self.assertFalse(any(t.is_alive() for t in threads))
        finally:
            sys.setswitchinterval(old)
        summary = tracer.summary()[-1]
        self.assertEqual(summary["outer"]["calls"], n_threads * n_calls)
        self.assertEqual(summary["inner"]["calls_under"], {"outer": 2 * n_threads * n_calls})
        self.assertEqual(summary["outer"]["calls_under"], {None: n_threads * n_calls})
        self.assertGreaterEqual(summary["outer"]["self_s"], 0.0)

    def test_missing_attribute_is_skipped(self):
        holder = type("Holder", (), {"present": staticmethod(lambda: 1)})
        tracer = Tracer()
        tracer.patch(holder, "absent", "absent")
        tracer.patch(holder, "present", "present")
        self.assertEqual(tracer.missing, {"Holder.absent"})
        self.assertEqual(holder.present(), 1)
        tracer.uninstall()
        self.assertEqual(tracer.summary()[-1]["present"]["calls"], 1)


class SmokeTest(unittest.TestCase):
    """Every workload untraced, and the traced path twice with equal counts."""

    def check_result(self, result, units):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name])
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = quiet_measure(name, 3, 0.0, 0, setup_repeats=1, min_iters=1)
                self.check_result(result, bench.END_TO_END_UNITS)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0.0)

    def test_traced_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = (quiet_measure(name, 3, 0.0, 1, min_iters=1)
                                 for _ in range(2))
                for result in (first, second):
                    self.check_result(result, bench.PER_LAYER_UNITS)
                exact = [k for k in bench.PER_LAYER_UNITS
                         if k.endswith(".calls") or k in EXACT]
                for k in exact:
                    self.assertEqual(first["metrics"][k]["value"],
                                     second["metrics"][k]["value"], k)
                self.assertGreater(first["metrics"]["geometry.snapshot.calls"]["value"], 0)


class BareCheckoutTest(unittest.TestCase):
    def test_refuses_without_program(self):
        bare = bench.OUT / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "point_catalog",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
