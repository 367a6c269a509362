"""The four benchmark workloads, their seeded inputs and correctness gates.

Every workload is a closed loop with one client, this process: the next
iteration starts only after the previous one has returned.  The constructor
turns the seed into plain numbers or config text, and the program sees
nothing else of the seed.  Seed 0 reproduces the acceptance-test data;
other seeds draw from the ranges stated on each workload, which are kept
narrow so that the work per iteration stays comparable across seeds.

A workload object provides

setup()           work that precedes the first call: imports, make_warp
                  tables, make_base, the initial state, config files
iterate(k)        one timed iteration; returns its outputs
check(out)        failed gates as a list, empty when the outputs are correct
fingerprint(out)  bytes identifying the outputs, for determinism checks
area_law_dev(out) max over snapshots of |A(t) e^{-t} / A(0) - 1|
flow_time         flow time integrated by one iteration
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from pathlib import Path

import numpy as np

# |A(t) e^{-t} / A(0) - 1| must stay below this on every snapshot; the
# measured deviation on the flow workloads is 1e-6 to 1e-5.
AREA_TOL = 1e-4
# criterion 1: |h e^{-t/(n-1)} / h0 - 1| on the point base
POINT_TOL = 1e-8
# criterion 2: slack on the growth sandwich R1 e^{t/2} <= h <= R2 e^{t/2}
SANDWICH_TOL = 1e-2


def area(base_integrate, h, theta, n):
    """A = integral of h^{n-1} / Theta over the base."""
    return base_integrate(h ** (n - 1) / theta)


def area_law_dev(areas):
    """max over (t, A) of |A(t) e^{-t} / A(0) - 1|; IMCF has A = A(0) e^t."""
    t0, a0 = areas[0]
    return max(abs(a * math.exp(-(t - t0)) / a0 - 1.0) for t, a in areas)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _trace_areas(trace):
    base = trace.base
    return [(t, area(base.integrate, s.h, s.theta, trace.n))
            for t, _, s in trace.snapshots]


def _trace_digest(trace):
    parts = [trace.times] + [trace.columns[k] for k in sorted(trace.columns)]
    parts += [st.phi for _, st, _ in trace.snapshots]
    return _digest(*parts) + repr(trace.terminal).encode()


class _FlowWorkload:
    """One imcflow.flow.run per iteration from self.initial and self.cfg."""

    def iterate(self, k):
        from imcflow import flow
        return flow.run(self.initial, self.cfg)

    def area_law_dev(self, trace):
        return area_law_dev(_trace_areas(trace))

    def fingerprint(self, trace):
        return _trace_digest(trace)

    def discard(self, out):
        """Nothing is written to disk."""


class AxisphereCFL(_FlowWorkload):
    """Axisphere M=200, euclidean warp, r = 1 + a cos(theta).

    Criterion 2/4 setup (RK4, safety 0.5, dt_max 1e-3, record 0.1,
    snapshot 0.5) to t = 0.05.  The step is bound by the parabolic CFL
    limit, so the run makes about 62.5k F-evaluations per unit flow time
    through the 1D stencils with a trivial warp.  Seed 0: a = 0.3; other
    seeds: a uniform in [0.295, 0.305].
    """

    name = "axisphere_cfl"
    t_end = 0.05
    M = 200

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.amp = 0.3 if seed == 0 else float(rng.uniform(0.295, 0.305))

    def setup(self):
        from imcflow import flow, geometry, manifold, warp
        w = warp.make_warp("euclidean")
        self.base = manifold.make_base("axisphere", self.M)
        r = 1.0 + self.amp * np.cos(self.base.theta)
        self.initial = geometry.GraphState(self.base, w, warp.radial_potential(w, r), 0.0)
        self.cfg = flow.FlowConfig(t_end=self.t_end, integrator="rk4", safety=0.5,
                                   dt_max=1e-3, record_every=0.1, snapshot_every=0.5)
        self.flow_time = self.t_end

    def check(self, trace):
        bad = []
        if not trace.completed:
            return [f"run ended early: {trace.terminal}"]
        r1, r2 = 1.0 - self.amp, 1.0 + self.amp
        for t, _, s in trace.snapshots:
            grow = math.exp(t / 2.0)
            lo = float(np.min(s.h)) / (r1 * grow)
            hi = float(np.max(s.h)) / (r2 * grow)
            if lo < 1.0 - SANDWICH_TOL or hi > 1.0 + SANDWICH_TOL:
                bad.append(f"growth sandwich broken at t={t}: {lo}, {hi}")
        if float(np.min(trace.columns["min_H"])) <= 0.0:
            bad.append("mean curvature not positive")
        dev = self.area_law_dev(trace)
        if not dev < AREA_TOL:
            bad.append(f"area law deviation {dev} >= {AREA_TOL}")
        return bad


class TorusTabulated(_FlowWorkload):
    """Torus2 M=32, schwarzschild3 m=0.5, r = 2 (1 + three Fourier modes).

    Modes cos(p x + q y + phase) with (p, q) = (1, 0), (0, 1), (1, 1), as
    in criterion 8 but with fixed wavenumbers.  Seed 0: amplitudes 0.05 and
    phases 0; other seeds: amplitudes uniform in [0.048, 0.05], phases
    uniform in [0, 0.1].  Same flow config as axisphere_cfl, to t = 0.1.
    The step is set by dt_max (about 4k F-evaluations per unit flow time),
    and the tabulated warp inversion in warp_at_phi is about half the cost.
    """

    name = "torus_tabulated"
    t_end = 0.1
    M = 32
    WAVES = ((1, 0), (0, 1), (1, 1))

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        if seed == 0:
            self.modes = [(p, q, 0.05, 0.0) for p, q in self.WAVES]
        else:
            self.modes = [(p, q, float(rng.uniform(0.048, 0.05)),
                           float(rng.uniform(0.0, 0.1))) for p, q in self.WAVES]

    def setup(self):
        from imcflow import flow, geometry, manifold, warp
        w = warp.make_warp("schwarzschild3", m=0.5)
        self.base = manifold.make_base("torus2", self.M)
        x, y = self.base.x[:, None], self.base.x[None, :]
        r = np.ones(self.base.shape)
        for p, q, a, ph in self.modes:
            r = r + a * np.cos(p * x + q * y + ph)
        r = 2.0 * r
        self.initial = geometry.GraphState(self.base, w, warp.radial_potential(w, r), 0.0)
        self.cfg = flow.FlowConfig(t_end=self.t_end, integrator="rk4", safety=0.5,
                                   dt_max=1e-3, record_every=0.1, snapshot_every=0.5)
        self.flow_time = self.t_end

    def check(self, trace):
        if not trace.completed:
            return [f"run ended early: {trace.terminal}"]
        dev = self.area_law_dev(trace)
        return [] if dev < AREA_TOL else [f"area law deviation {dev} >= {AREA_TOL}"]


class PointCatalog(_FlowWorkload):
    """Point base d=2, r0=1, four warps to t=5 with dt_max 1e-3 (criterion 1).

    Warps: euclidean, hyperbolic, schwarzschild3 m=0.5, saturating a=2 b=1
    k=1; RK4, record 0.1, snapshot 1.  The point base has no modes, so every
    seed gives the criterion-1 input.
    """

    name = "point_catalog"
    t_end = 5.0

    def __init__(self, seed, workdir):
        self.r0 = 1.0

    def setup(self):
        from imcflow import flow, geometry, manifold, warp
        self.base = manifold.make_base("point", d=2)
        warps = [warp.make_warp("euclidean"), warp.make_warp("hyperbolic"),
                 warp.make_warp("schwarzschild3", m=0.5),
                 warp.make_warp("saturating", a=2.0, b=1.0, k=1.0)]
        self.initials = [
            geometry.GraphState(self.base, w, warp.radial_potential(w, np.array([self.r0])), 0.0)
            for w in warps]
        self.cfg = flow.FlowConfig(t_end=self.t_end, integrator="rk4", dt_max=1e-3,
                                   record_every=0.1, snapshot_every=1.0)
        self.flow_time = self.t_end * len(warps)

    def iterate(self, k):
        from imcflow import flow
        return [flow.run(s, self.cfg) for s in self.initials]

    def area_law_dev(self, traces):
        return max(area_law_dev(_trace_areas(tr)) for tr in traces)

    def check(self, traces):
        bad = []
        for tr in traces:
            if not tr.completed:
                bad.append(f"{tr.warp.preset_id}: run ended early: {tr.terminal}")
                continue
            # omega = h on the point base, and h grows exactly like e^{t/2}
            h = tr.columns["max_omega"]
            drift = float(np.max(np.abs(h * np.exp(-tr.times / 2.0) / h[0] - 1.0)))
            if not drift < POINT_TOL:
                bad.append(f"{tr.warp.preset_id}: drift {drift} >= {POINT_TOL}")
        return bad

    def fingerprint(self, traces):
        return b"".join(_trace_digest(tr) for tr in traces)


SWEEP_CONFIG = """\
warp.preset = euclidean
base.kind = axisphere
base.resolution = 100
initial.modes = 1:{amp!r}
flow.t_end = {t_end!r}
flow.safety = 0.5
flow.record_every = 0.0125
checks = growth_and_support, H_floor, evolution_residuals, A_bounded
sweep.initial.r0 = 1.0, 2.0
sweep.flow.snapshot_every = 0.05, 0.0125
"""


class SweepCheck:
    """`imcflow sweep --jobs 2` over four axisphere runs, then `imcflow check`.

    Axisphere M=100, euclidean, modes 1:a, t_end 0.1, safety 0.5, record
    0.0125, four checks; initial.r0 in {1, 2} x snapshot_every in
    {0.05, 0.0125}.  Each run directory is then re-checked with
    `imcflow check`.  Seed 0: a = 0.3; other seeds: a uniform in
    [0.295, 0.305].  The CLI runs in this process, so its worker threads
    are traced like the rest.  trace.csv and every other output file must
    match the warm-up iteration byte for byte (see ``fingerprint``).
    """

    name = "sweep_check"
    JOBS = 2
    N_RUNS = 4
    T_END = 0.1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.amp = 0.3 if seed == 0 else float(rng.uniform(0.295, 0.305))
        self.workdir = Path(workdir)
        self.flow_time = self.N_RUNS * self.T_END
        self.sweep_s = None

    def setup(self):
        from imcflow import cli  # noqa: F401  (import cost belongs to set-up)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "sweep.cfg"
        self.config.write_text(SWEEP_CONFIG.format(amp=self.amp, t_end=self.T_END),
                               encoding="utf-8")

    def sweep(self, outdir, jobs):
        """Run the sweep alone; returns its exit code."""
        from imcflow import cli
        return cli.main(["sweep", "--config", str(self.config), "--out",
                         str(outdir), "--jobs", str(jobs)])

    def iterate(self, k):
        from imcflow import cli
        outdir = self.workdir / f"iter{k}"
        if outdir.exists():
            shutil.rmtree(outdir)
        t0 = time.perf_counter()
        sweep_code = self.sweep(outdir, self.JOBS)
        self.sweep_s = time.perf_counter() - t0
        runs = sorted(p for p in outdir.iterdir() if p.is_dir())
        sweep_reports = {p.name: (p / "report.json").read_bytes() for p in runs}
        check_codes = {p.name: cli.main(["check", "--config", str(self.config),
                                         "--out", str(p)]) for p in runs}
        return {"dir": outdir, "runs": runs, "sweep_code": sweep_code,
                "sweep_reports": sweep_reports, "check_codes": check_codes}

    def _snapshot_areas(self, run):
        areas = []
        for p in sorted(run.glob("snapshots/t=*.csv"), key=lambda p: float(p.stem[2:])):
            data = np.loadtxt(p, delimiter=",", skiprows=1)
            theta, r, big_theta = data[:, 0], data[:, 1], data[:, 3]
            dtheta = math.pi / len(theta)
            weights = 2.0 * math.pi * np.sin(theta) * dtheta
            # euclidean warp: h = r
            areas.append((float(p.stem[2:]),
                          area(lambda f: float(np.sum(f * weights)), r, big_theta, 3)))
        return areas

    def area_law_dev(self, out):
        return max(area_law_dev(self._snapshot_areas(run)) for run in out["runs"])

    def check(self, out):
        bad = []
        if out["sweep_code"] != 0:
            bad.append(f"sweep exit code {out['sweep_code']} != 0")
        if len(out["runs"]) != self.N_RUNS:
            bad.append(f"sweep wrote {len(out['runs'])} runs, expected {self.N_RUNS}")
        for run in out["runs"]:
            code = out["check_codes"][run.name]
            if code != 0:
                bad.append(f"{run.name}: check exit code {code} != 0")
            if (run / "report.json").read_bytes() != out["sweep_reports"][run.name]:
                bad.append(f"{run.name}: report.json rewritten by check differs")
        if not bad:
            dev = self.area_law_dev(out)
            if not dev < AREA_TOL:
                bad.append(f"area law deviation {dev} >= {AREA_TOL}")
        return bad

    def fingerprint(self, out):
        """Digest of every file of every run: trace.csv, snapshots, meta, report."""
        h = hashlib.sha256()
        for run in out["runs"]:
            for f in sorted(run.rglob("*")):
                if f.is_file():
                    h.update(str(f.relative_to(run)).encode())
                    h.update(f.read_bytes())
        return h.digest()

    def written_bytes(self, out):
        """Bytes in the files write_outputs leaves: all but report.json."""
        return sum(f.stat().st_size for run in out["runs"] for f in run.rglob("*")
                   if f.is_file() and f.name != "report.json")

    def discard(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (AxisphereCFL, TorusTabulated, PointCatalog, SweepCheck)}
