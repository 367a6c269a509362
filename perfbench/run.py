#!/usr/bin/env python3
"""imcflow benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one table

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  Workloads and their
correctness gates live in ``workloads.py``; BENCHMARK.json at the checkout
root names the metrics, README.md explains them.

All measuring happens within S seconds of start-up:

--trace 0  set-up is timed in three fresh interpreters, one untimed
           warm-up iteration runs, then iterations run back to back until
           the deadline.  Prints the end-to-end metrics.
--trace 1  untraced and traced iterations alternate until the deadline;
           spans come from wrappers installed around imcflow's layer entry
           points (see ``install_tracing``).  Prints the per-layer metrics
           and the tracing overhead, and writes every span to
           .perfbench_out/spans-<workload>.csv.

Times are host-normalized against the fixed references in
``reference.py``, timed right before and right after every iteration and
every set-up probe, and reported as medians over the run.  Raw seconds,
quartiles and sample counts appear on the lines before the result.

Every iteration's outputs are checked and compared byte for byte with the
warm-up's, traced or not.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A checkout without the
program exits with code 2 and prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_ITERS = 3
READY = "perfbench: set-up done"
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from reference import (REFERENCE_S, SETUP_REFERENCE_CODE, SETUP_REFERENCE_S,  # noqa: E402
                       kernel, reference_time)
from tracer import SETUP_ITERATION, Tracer  # noqa: E402
from workloads import WORKLOADS, SweepCheck  # noqa: E402


class SetupError(Exception):
    """The checkout does not hold a runnable program."""


def import_program():
    """Import imcflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "imcflow" / "__init__.py").is_file():
        raise SetupError(f"no imcflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import imcflow
    if Path(imcflow.__file__).resolve().parent != (SRC / "imcflow").resolve():
        raise SetupError(f"imcflow imported from {imcflow.__file__}, not {SRC}")
    return imcflow


# ---------------------------------------------------------------------------
# environment record

def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load1():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "load1_start": _load1()}


# ---------------------------------------------------------------------------
# set-up time

def _seconds_to_ready(cmd):
    """Seconds from launching cmd until it prints READY; waits for its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != READY:
        raise SetupError(f"{' '.join(cmd[1:3])} exited with code {code}")
    return elapsed


def probe_setup(workload, seed):
    """Seconds from interpreter launch until the workload is set up."""
    workdir = OUT / f"probe-{workload}-{os.getpid()}"
    try:
        return _seconds_to_ready(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_times(workload, seed, repeats):
    """(raw, host-normalized) seconds of `repeats` set-up probes.

    The reference import runs before the first probe and after every probe;
    each probe is scaled by SETUP_REFERENCE_S over the mean of its two
    neighbouring reference imports.
    """
    reference = [sys.executable, "-c", SETUP_REFERENCE_CODE + f"; print({READY!r})"]
    refs = [_seconds_to_ready(reference)]
    raw = []
    for _ in range(repeats):
        raw.append(probe_setup(workload, seed))
        refs.append(_seconds_to_ready(reference))
    scaled = [t * 2.0 * SETUP_REFERENCE_S / (a + b)
              for t, a, b in zip(raw, refs, refs[1:])]
    return raw, scaled


def setup_probe_main(workload, seed, workdir):
    import_program()
    WORKLOADS[workload](seed, workdir).setup()
    print(READY, flush=True)


def _reference_now():
    # the faster of two passes drops a pass disturbed by a passing event,
    # such as write-back of the files an iteration has just written
    return min(reference_time(), reference_time())


def normalized_call(fn):
    """Call fn between two timings of the reference kernel.

    Returns (fn's result, seconds fn took, host scale), where the host scale
    is REFERENCE_S over the mean of the kernel times before and after.
    """
    before = _reference_now()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, 2.0 * REFERENCE_S / (before + _reference_now())


# ---------------------------------------------------------------------------
# tracing

PER_LAYER_UNITS = {
    "warp.warp_at_phi.calls": "count",
    "warp.warp_at_phi.self_s": "s",
    "warp.make_warp.s": "s",
    "manifold.grad.calls": "count",
    "manifold.grad.self_s": "s",
    "manifold.hess.calls": "count",
    "manifold.hess.self_s": "s",
    "geometry.light_fields.calls": "count",
    "geometry.light_fields.self_s": "s",
    "geometry.snapshot.calls": "count",
    "geometry.snapshot.self_s": "s",
    "flow.f_evals_per_flow_time": "evals/flow_time",
    "flow.run.self_s": "s",
    "flow.point_speed_evals": "count",
    "cli.build_setup.s": "s",
    "cli.run.s": "s",
    "cli.write_outputs.s": "s",
    "cli.write_outputs.bytes": "B",
    "cli.load_trace.s": "s",
    "cli.run_checks.s": "s",
    "verify.evolution_residuals.s": "s",
    "verify.check_growth_and_support.s": "s",
    "verify.check_H_floor.s": "s",
    "verify.check_A_bounded.s": "s",
    "cli.sweep.parallel_eff": "ratio",
    "trace_overhead": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "s_per_flow_time": "s/flow_time",
    "area_law_dev": "ratio",
    "peak_rss_mb": "MB",
}


def install_tracing(tracer):
    """Wrap the attributes imcflow calls through at each layer boundary."""
    from imcflow import cli, flow, geometry, manifold, verify, warp

    tracer.patch(warp, "warp_at_phi", "warp.warp_at_phi")
    tracer.patch(warp, "make_warp", "warp.make_warp")
    tracer.patch(cli, "make_warp", "warp.make_warp")
    for name in ("PointBase", "CircleBase", "AxisphereBase", "Torus2Base"):
        # each base class defines its own stencils
        cls = getattr(manifold, name, None)
        if cls is None:
            tracer.missing.add(f"imcflow.manifold.{name}")
            continue
        tracer.patch(cls, "grad", "manifold.grad")
        tracer.patch(cls, "hess", "manifold.hess")
    tracer.patch(geometry, "_light_fields", "geometry.light_fields")
    tracer.patch(geometry, "snapshot", "geometry.snapshot")
    tracer.patch(cli, "snapshot", "geometry.snapshot")
    tracer.patch(flow, "run", "flow.run")
    # cli bound flow.run at import; route it through the traced flow.run
    tracer.patch_with(cli, "run", lambda _: tracer.wrap("cli.run", flow.run))

    def count_speed(scalar_speed):
        # _scalar_speed returns (speed function, phi_lo, phi_hi); count the
        # calls of the speed function
        def traced_scalar_speed(*args, **kwargs):
            speed, *rest = scalar_speed(*args, **kwargs)
            # one run owns this speed function, so one thread increments it
            evals = tracer.counter("flow.point_speed_evals")

            def counted(phi):
                evals[0] += 1
                return speed(phi)
            return (counted, *rest)
        return traced_scalar_speed
    tracer.patch_with(flow, "_scalar_speed", count_speed)

    for name in ("build_setup", "write_outputs", "load_trace", "run_checks"):
        tracer.patch(cli, name, f"cli.{name}")
    for name in ("evolution_residuals", "check_growth_and_support",
                 "check_H_floor", "check_A_bounded"):
        tracer.patch(verify, name, f"verify.{name}")


def per_layer_metrics(tracer, scales, flow_time, extra):
    """Layer figures of the traced iterations.

    ``scales`` maps each traced iteration to its host scale.  Counts must
    repeat exactly in every traced iteration; times are medians over the
    traced iterations of host-normalized seconds.
    """
    summary = tracer.summary()
    counts = tracer.counts()
    iterations = [k for k in scales if k != SETUP_ITERATION]
    problems = []

    def exact(name, fn):
        values = [fn(summary.get(k, {}), k) for k in iterations]
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced iterations: {values}")
        return values[0]

    def seconds(span, key, k):
        return summary.get(k, {}).get(span, {}).get(key, 0.0) * scales[k]

    def timed(span, key):
        return statistics.median(seconds(span, key, k) for k in iterations)

    m = {}
    for layer in ("warp.warp_at_phi", "manifold.grad", "manifold.hess",
                  "geometry.light_fields", "geometry.snapshot"):
        m[f"{layer}.calls"] = exact(f"{layer}.calls",
                                    lambda s, k: s.get(layer, {}).get("calls", 0))
        m[f"{layer}.self_s"] = timed(layer, "self_s")
    # make_warp runs in set-up for the flow workloads, per task in the sweep
    m["warp.make_warp.s"] = (seconds("warp.make_warp", "total_s", SETUP_ITERATION)
                             + timed("warp.make_warp", "total_s"))
    f_evals = exact("flow F-evaluations", lambda s, k: s.get(
        "geometry.light_fields", {}).get("calls_under", {}).get("flow.run", 0))
    m["flow.f_evals_per_flow_time"] = f_evals / flow_time
    m["flow.run.self_s"] = timed("flow.run", "self_s")
    m["flow.point_speed_evals"] = exact(
        "flow.point_speed_evals", lambda s, k: counts.get(("flow.point_speed_evals", k), 0))
    for name in ("build_setup", "run", "write_outputs", "load_trace", "run_checks"):
        m[f"cli.{name}.s"] = timed(f"cli.{name}", "total_s")
    for name in ("evolution_residuals", "check_growth_and_support",
                 "check_H_floor", "check_A_bounded"):
        m[f"verify.{name}.s"] = timed(f"verify.{name}", "total_s")
    m.update(extra)
    return m, problems


# ---------------------------------------------------------------------------
# measurement

class Run:
    """Iteration bookkeeping shared by both modes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.area_law_dev = None
        self.last_out = None

    def iteration(self, k, label):
        """Run one iteration; returns (seconds, host scale), None if it raised."""
        self.attempted += 1
        try:
            out, wall, scale = normalized_call(lambda: self.wl.iterate(k))
        except Exception:
            self.failed += 1
            self.problems.append(f"{label} {k}: raised\n{traceback.format_exc()}")
            return None
        bad = self.wl.check(out)
        fp = self.wl.fingerprint(out)
        if self.reference is None:
            self.reference = fp
            if not bad:
                self.area_law_dev = self.wl.area_law_dev(out)
        elif fp != self.reference:
            bad.append("outputs differ from the warm-up iteration")
        if bad:
            self.failed += 1
            self.problems.extend(f"{label} {k}: {b}" for b in bad)
        self.discard()
        self.last_out = out
        return wall, scale

    def discard(self):
        if self.last_out is not None:
            self.wl.discard(self.last_out)
        self.last_out = None


def _report(label, raw, scaled):
    q1, q2, q3 = (statistics.quantiles(scaled, n=4) if len(scaled) > 1
                  else scaled * 3)
    print(f"{label}: n = {len(raw)}; normalized median {q2:.6g} s, quartiles "
          f"[{q1:.6g}, {q3:.6g}]; raw median {statistics.median(raw):.6g} s, "
          f"min {min(raw):.6g}, max {max(raw):.6g}")


def _keep_going(deadline, walls, min_iters):
    """Start another iteration if it should end before the deadline."""
    if len(walls) < min_iters:
        return True
    return time.perf_counter() + statistics.median(walls) <= deadline


def measure(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
            min_iters=MIN_ITERS):
    """Run one workload; returns the result dict printed as the last line."""
    import_program()
    deadline = time.perf_counter() + seconds
    print("environment: " + json.dumps(environment(), sort_keys=True))
    kernel()  # first pass pays numpy's lazy set-up
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-{os.getpid()}"

    if not trace:
        setup_raw, setup_scaled = setup_times(workload, seed, setup_repeats)
        _report("set-up", setup_raw, setup_scaled)
    wl = WORKLOADS[workload](seed, workdir)
    wl.setup()
    run = Run(wl)
    try:
        t0 = time.perf_counter()
        run.iteration(-1, "warm-up")
        print(f"warm-up: {time.perf_counter() - t0:.6g} s")
        if trace:
            units = PER_LAYER_UNITS
            metrics = _traced(run, workload, seed, workdir, deadline, min_iters)
        else:
            units = END_TO_END_UNITS
            metrics = _untraced(run, deadline, min_iters)
            if metrics:
                metrics["setup_s"] = statistics.median(setup_scaled)
    finally:
        run.discard()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"load1 at end: {_load1()}")
    for p in run.problems:
        print(f"FAILED {p}")
    if not metrics:
        metrics = dict.fromkeys(units, float("nan"))
    return {"correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def _untraced(run, deadline, min_iters):
    raw, scaled = [], []
    while _keep_going(deadline, raw, min_iters):
        result = run.iteration(len(raw), "iteration")
        if result is None:
            return None
        raw.append(result[0])
        scaled.append(result[0] * result[1])
    _report("wall per iteration", raw, scaled)
    wall = statistics.median(scaled)
    return {
        "wall_s": wall,
        "s_per_flow_time": wall / run.wl.flow_time,
        "area_law_dev": run.area_law_dev,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(run, workload, seed, workdir, deadline, min_iters):
    wl = run.wl
    is_sweep = isinstance(wl, SweepCheck)
    tracer = Tracer()
    install_tracing(tracer)
    try:
        # traced set-up on a fresh object: counts make_warp and table builds
        _, _, scale = normalized_call(WORKLOADS[workload](seed, workdir).setup)
    finally:
        tracer.uninstall()
    scales = {SETUP_ITERATION: scale}

    plain, traced, serial, parallel, rounds = [], [], [], [], []
    written = 0
    while _keep_going(deadline, rounds, max(1, min_iters // 2)):
        t_round = time.perf_counter()
        k = 2 * len(rounds)
        result = run.iteration(k, "untraced iteration")
        if result is None:
            return None
        plain.append(result)
        if is_sweep:
            parallel.append((wl.sweep_s, result[1]))
        tracer.iteration = k + 1
        install_tracing(tracer)
        try:
            result = run.iteration(k + 1, "traced iteration")
        finally:
            tracer.uninstall()
        if result is None:
            return None
        traced.append(result)
        scales[k + 1] = result[1]
        if is_sweep:
            written = wl.written_bytes(run.last_out)
            sdir = workdir / "serial"
            code, wall, scale = normalized_call(lambda: wl.sweep(sdir, 1))
            serial.append((wall, scale))
            shutil.rmtree(sdir, ignore_errors=True)
            if code != 0:
                run.problems.append(f"serial sweep exit code {code} != 0")
        rounds.append(time.perf_counter() - t_round)

    spans = OUT / f"spans-{workload}.csv"
    tracer.write(spans)
    print(f"spans: {tracer.n_spans()} written to {spans.relative_to(ROOT)}")
    for name in sorted(tracer.missing):
        print(f"tracing: {name} not found, its figures read 0")

    def normalized(label, pairs):
        scaled = [w * s for w, s in pairs]
        _report(label, [w for w, _ in pairs], scaled)
        return statistics.median(scaled)

    extra = {
        "trace_overhead": (normalized("traced wall per iteration", traced)
                           / normalized("untraced wall per iteration", plain) - 1.0),
        "cli.sweep.parallel_eff": 0.0,
        "cli.write_outputs.bytes": written,
    }
    if is_sweep:
        # a serial sweep's wall is the sum of the tasks' standalone walls
        extra["cli.sweep.parallel_eff"] = (
            normalized("serial sweep (--jobs 1)", serial)
            / (wl.JOBS * normalized(f"parallel sweep (--jobs {wl.JOBS})", parallel)))
    metrics, problems = per_layer_metrics(tracer, scales, wl.flow_time, extra)
    run.problems.extend(problems)
    return metrics


def run_all(seed, seconds, trace):
    """Run every workload in its own interpreter and print one table."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:<24.10g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe_main(args.workload, args.seed, args.workdir)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
