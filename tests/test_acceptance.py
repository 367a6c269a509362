"""Acceptance gate: nine capability criteria and the calibration of the
residual envelopes, one printed verdict per test.

Every test measures first, prints a single [PASS]/[FAIL] line carrying the
observed numbers, then asserts the stated gates.  Each gate comes from the
mathematics it checks (a closed form, a theorem's constant, a linearized
rate or a refinement order), never from the numbers a run happens to give
today; the verdict line prints the measured value beside its gate.  Run
with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
"""

import json
import math
import time
from textwrap import dedent

import numpy as np
import pytest

from imcflow.cli import main as cli_main
from imcflow.flow import FlowConfig, run
from imcflow.geometry import GraphState, embedding_oracle_H, induced_metric, snapshot
from imcflow.manifold import make_base
from imcflow.verify import (DEFAULT_C_RES, check_asymptotics, check_H_floor,
                            curvature_floor, evolution_residuals, fit_decay_rate)
from imcflow.warp import make_warp, radial_potential
from probes import commuting_residual

POINT = make_base("point", d=2)   # surfaces in a 3-dimensional ambient


def verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def point_state(w, r0):
    return GraphState(POINT, w, radial_potential(w, np.array([r0])), 0.0)


def axisphere_run(w, r, t_end, M, snapshot_every=0.5, record_every=0.1,
                  dt_max=1e-3):
    base = make_base("axisphere", M)
    state = GraphState(base, w, radial_potential(w, r), 0.0)
    cfg = FlowConfig(t_end=t_end, integrator="rk4", safety=0.5, dt_max=dt_max,
                     snapshot_every=snapshot_every, record_every=record_every)
    return run(state, cfg)


def wavy_r(M, r0=1.0, amp=0.3):
    return r0 + amp * np.cos(make_base("axisphere", M).theta)


@pytest.fixture(scope="module")
def euclid_t8():
    t0 = time.perf_counter()
    trace = axisphere_run(make_warp("euclidean"), wavy_r(200), 8.0, 200)
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def saturating_t8():
    w = make_warp("saturating", a=2.0, b=1.0, k=1.0)
    t0 = time.perf_counter()
    trace = axisphere_run(w, wavy_r(200), 8.0, 200)
    return trace, time.perf_counter() - t0


def test_criterion_1_point_base_exactness():
    warps = [make_warp("euclidean"), make_warp("hyperbolic"),
             make_warp("schwarzschild3", m=0.5),
             make_warp("saturating", a=2.0, b=1.0, k=1.0)]
    cfg = FlowConfig(t_end=5.0, integrator="rk4", dt_max=1e-3,
                     record_every=0.1, snapshot_every=1.0)
    t0 = time.perf_counter()
    drifts = {}
    for w in warps:
        trace = run(point_state(w, 1.0), cfg)
        # omega = h on the point base, and h compensates e^{t/2} exactly
        h = trace.columns["max_omega"]
        drifts[w.preset_id] = float(np.max(
            np.abs(h * np.exp(-trace.times / 2.0) / h[0] - 1.0)))
    wall = time.perf_counter() - t0
    worst = max(drifts.values())
    ok = worst < 1e-8 and wall < 1.0
    verdict("criterion 1 (point-base exactness)", ok,
            f"max drift {worst:.3e} over 4 presets (gate 1e-8), "
            f"runtime {wall:.2f}s (gate 1s)")
    assert worst < 1e-8
    assert wall < 1.0


def test_criterion_2_growth_sandwich():
    t0 = time.perf_counter()
    trace = axisphere_run(make_warp("euclidean"), wavy_r(200), 6.0, 200,
                          snapshot_every=0.1, record_every=0.1)
    wall = time.perf_counter() - t0
    tol = 1e-2
    worst_lo, worst_hi = math.inf, -math.inf
    for t, _, s in trace.snapshots:
        ex = math.exp(t / 2.0)
        worst_lo = min(worst_lo, float(np.min(s.h)) / (0.7 * ex))
        worst_hi = max(worst_hi, float(np.max(s.h)) / (1.3 * ex))
    min_H = float(np.min(trace.columns["min_H"]))
    ok = (trace.completed and worst_lo >= 1.0 - tol and worst_hi <= 1.0 + tol
          and min_H > 0.0 and wall < 30.0)
    verdict("criterion 2 (growth sandwich)", ok,
            f"h/(0.7 e^(t/2)) >= {worst_lo:.4f}, h/(1.3 e^(t/2)) <= "
            f"{worst_hi:.4f} (tol 1e-2), min H {min_H:.3e} > 0, "
            f"runtime {wall:.1f}s (gate 30s)")
    assert trace.completed
    assert worst_lo >= 1.0 - tol
    assert worst_hi <= 1.0 + tol
    assert min_H > 0.0
    assert wall < 30.0


def test_criterion_3_mean_curvature_floor():
    # e^{-1/(n-1)} sqrt(h0 (n-1)) (R1/R2) min(sqrt(t/2), 1) at n=3, R1=1,
    # R2=2, h0=0.1, written out; earlier revisions quoted 0.09589 and
    # 0.13561, which come from 4-digit intermediates (0.6065 * 0.4472 * 0.5
    # = 0.13561, times 0.7071 = 0.09589) and round the t=1 value the wrong
    # way: the exact value is 0.0959009...
    exact_t1 = math.exp(-0.5) * math.sqrt(0.1) / 2.0
    exact_t2 = math.exp(-0.5) * math.sqrt(0.2) / 2.0
    v1, v2, v3 = (float(curvature_floor(t, 3, 1.0, 2.0, 0.1))
                  for t in (1.0, 2.0, 3.0))
    ok_t1 = math.isclose(v1, exact_t1, rel_tol=1e-12)
    ok_t2 = (math.isclose(v2, exact_t2, rel_tol=1e-12)
             and math.isclose(v3, exact_t2, rel_tol=1e-12))

    w = make_warp("schwarzschild3", m=0.5)
    point_trace = run(point_state(w, 1.0),
                      FlowConfig(t_end=3.0, record_every=0.05,
                                 snapshot_every=0.5))
    rep_point = check_H_floor(point_trace)
    field_trace = axisphere_run(w, wavy_r(100), 3.0, 100)
    rep_field = check_H_floor(field_trace)
    runs_ok = (rep_point.passed is True and rep_point.margin > 0.0
               and rep_field.passed is True and rep_field.margin > 0.0)

    ok = ok_t1 and ok_t2 and runs_ok
    verdict("criterion 3 (mean-curvature floor)", ok,
            f"floor(t=1) {v1!r} vs e^(-1/2) sqrt(0.1)/2 = {exact_t1!r}, "
            f"floor(t>=2) {v2!r} vs e^(-1/2) sqrt(0.2)/2 = {exact_t2!r} "
            f"(rel tol 1e-12); floor margins: point {rep_point.margin:.3f}, "
            f"field {rep_field.margin:.3f}")
    assert runs_ok
    assert ok_t1, (v1, exact_t1)
    assert ok_t2, (v2, v3, exact_t2)


ROUNDNESS_WINDOW = (4.0, 8.0)


def roundness_gate(trace, window=ROUNDNESS_WINDOW):
    """Criterion 4's roundness gate, with every bound taken from theory.

    beta = rho0 / C2^2 (C2 = max H h over the run) is the one-sided decay
    rate that `check_asymptotics` reports.  It is a rate only while
    H h <= C2 stays true as the surface grows, so the gate asks for:
    - every fitted rate (grad_phi, hess_phi, osc, shape_dev) >= beta;
    - osc(t_end) below tol_osc = osc(lo) e^{-beta (t_end - lo)}, the value
      decay at rate beta gives from the start of the fit window;
    - C2 time-uniform: max H h grows over the window at a rate gamma no
      larger than beta, i.e. the constant drifts more slowly than the
      slowest decay it predicts.  In a warp with h' -> a, H h -> (n-1) a and gamma
      -> 0; in hyperbolic space H h ~ (n-1) cosh r and gamma -> 1/(n-1),
      beta -> 0, and the rescaled shape freezes (criterion 5).
    The paper's abstract fixes no constant; tol_osc and the gamma bound are
    this suite's reading of the one-sided construction, not quoted values.
    """
    lo, hi = window
    beta = check_asymptotics(trace, "expect_roundness",
                             fit_window=window).details["beta_predicted"]
    osc_lo = float(np.interp(lo, trace.times,
                             trace.columns["osc_rescaled_h"]))
    tol_osc = osc_lo * math.exp(-beta * (trace.t_final - lo))
    rep = check_asymptotics(trace, "expect_roundness", tol_osc=tol_osc,
                            fit_window=window)
    rates = rep.details["rates"]
    st = [(t, float(np.max(s.H * s.h))) for t, _, s in trace.snapshots
          if lo - 1e-9 <= t <= hi + 1e-9]
    gamma = -fit_decay_rate([t for t, _ in st], [v for _, v in st])
    facts = {"beta": beta, "rates": rates, "osc": rep.details["terminal_osc"],
             "tol_osc": tol_osc, "gamma": gamma,
             "rates_ok": all(v >= beta for v in rates.values()),
             "osc_ok": rep.passed is True, "uniform_ok": gamma <= beta}
    facts["passed"] = (facts["rates_ok"] and facts["osc_ok"]
                       and facts["uniform_ok"])
    return facts


def test_criterion_4_asymptotic_roundness(euclid_t8, saturating_t8):
    results = {}
    for name, (trace, wall) in (("euclidean", euclid_t8),
                                ("saturating", saturating_t8)):
        results[name] = dict(roundness_gate(trace), wall=wall)
    # r = 1 + 0.3 cos(theta) is a center offset plus l>=2 content; in flat
    # space the offset makes osc(e^{-t/(n-1)} h) decay at exactly
    # 1/(n-1) (Gerhardt 1990, Urbas 1990), too slowly to reach a fixed
    # 1e-3 by t=8 (0.6 e^{-t/2} ~ 1.1e-2).  In the saturating warp
    # h' -> a = 2 and the linearized l=1 rate l(l+1)/((n-1)^2 a^2) tends to
    # 1/8, approached from above while h' < a.
    n = euclid_t8[0].n
    euclid_osc_rate = results["euclidean"]["rates"]["osc"]
    ok_flat = math.isclose(euclid_osc_rate, 1.0 / (n - 1), rel_tol=0.03)
    ok = ok_flat and all(r["passed"] and r["wall"] < 60.0
                         for r in results.values())
    verdict("criterion 4 (asymptotic roundness)", ok, "; ".join(
        f"{name}: rates >= beta {r['beta']:.3f} "
        f"(min {min(r['rates'].values()):.4f}), osc(t=8) {r['osc']:.4g} < "
        f"osc(4) e^(-4 beta) = {r['tol_osc']:.4g}, C2 growth "
        f"{r['gamma']:.2e} <= beta, runtime {r['wall']:.1f}s (gate 60s)"
        for name, r in results.items())
        + f"; euclidean osc rate {euclid_osc_rate:.4f} vs 1/(n-1) = "
        f"{1.0 / (n - 1):.4f} (rel tol 3%)")
    for name, r in results.items():
        assert r["wall"] < 60.0, name
        assert r["rates_ok"], (name, r["beta"], r["rates"])
        assert r["osc_ok"], (name, r["osc"], r["tol_osc"])
        assert r["uniform_ok"], (name, r["gamma"], r["beta"])
    assert ok_flat, (euclid_osc_rate, 1.0 / (n - 1))


def test_criterion_5_hyperbolic_obstruction(euclid_t8):
    trace = axisphere_run(make_warp("hyperbolic"), wavy_r(200, r0=2.0), 8.0,
                          200)
    rep = check_asymptotics(trace, "expect_obstruction")
    osc_hyp = rep.details["terminal_osc"]
    osc_euc = float(euclid_t8[0].columns["osc_rescaled_h"][-1])
    contrast = osc_hyp / osc_euc
    # negative control: criterion 4's roundness gate must reject this run
    gate = roundness_gate(trace)
    ok = (rep.passed is True and osc_hyp > 1e-2 and contrast > 10.0
          and not gate["passed"])
    verdict("criterion 5 (hyperbolic obstruction)", ok,
            f"osc(t=8) hyperbolic {osc_hyp:.4g} (floor 1e-2) vs euclidean "
            f"{osc_euc:.4g}, contrast {contrast:.0f}x; criterion 4's gate "
            f"rejects it (rates >= beta {gate['rates_ok']}, osc below "
            f"{gate['tol_osc']:.4g} {gate['osc_ok']}, C2 growth "
            f"{gate['gamma']:.3f} <= beta {gate['beta']:.2e} "
            f"{gate['uniform_ok']})")
    assert rep.passed is True
    assert osc_hyp > 1e-2
    assert contrast > 10.0
    assert not gate["passed"], gate


def test_criterion_6_embedding_oracle_equivalence():
    w = make_warp("euclidean")

    def graph_vs_oracle(r_of, M):
        base = make_base("axisphere", M)
        state = GraphState(base, w, radial_potential(w, r_of(base)), 0.0)
        H = snapshot(state).H
        Ho = embedding_oracle_H(state)
        return float(np.max(np.abs(H - Ho) / np.abs(Ho))), H, Ho

    d200, _, _ = graph_vs_oracle(lambda b: 2.0 + 0.1 * np.cos(b.theta), 200)
    d400, _, _ = graph_vs_oracle(lambda b: 2.0 + 0.1 * np.cos(b.theta), 400)
    factor = d200 / d400

    def sphere(b, R=2.0, d=0.3):
        return d * b.cos + np.sqrt(R ** 2 - (d * b.sin) ** 2)

    errs = {}
    for M in (200, 400):
        _, H, Ho = graph_vs_oracle(sphere, M)
        errs[M] = (float(np.max(np.abs(H - 1.0))),
                   float(np.max(np.abs(Ho - 1.0))))
    sphere_factor = errs[200][0] / errs[400][0]

    ok = (d200 < 1e-3 and 3.2 <= factor <= 4.8
          and errs[200][0] < 1e-3 and errs[200][1] < 1e-3
          and 3.2 <= sphere_factor <= 4.8)
    verdict("criterion 6 (embedding-oracle equivalence)", ok,
            f"graph-vs-oracle rel diff {d200:.3e} at M=200 (gate 1e-3), "
            f"refinement factor {factor:.2f} (gate 4 +/- 20%); off-center "
            f"sphere |H-1| {errs[200][0]:.3e} graph / {errs[200][1]:.3e} "
            f"oracle, factor {sphere_factor:.2f}")
    assert d200 < 1e-3
    assert 3.2 <= factor <= 4.8
    assert errs[200][0] < 1e-3 and errs[200][1] < 1e-3
    assert 3.2 <= sphere_factor <= 4.8


# criterion 7's refinement study, (M, snapshot spacing); the corners give
# its refinement ratios, and all four calibrate DEFAULT_C_RES
RESIDUAL_GRID = ((100, 0.05), (100, 0.0125), (200, 0.05), (200, 0.0125))

# c = max_residual / (dt_snap + dx_min^2) per identity and grid point, as
# measured when DEFAULT_C_RES was set.  They gate no mathematics: they tie
# the constants to the study that set them, so a change that moves a
# euclidean axisphere trace updates them and lists old -> new in CHANGES.md.
RESIDUAL_COEFFICIENTS = {
    "omega_eq": {(100, 0.05): 0.03559227329375437,
                 (100, 0.0125): 0.010868512641644568,
                 (200, 0.05): 0.037854095300892995,
                 (200, 0.0125): 0.021900748876731442},
    "u_eq": {(100, 0.05): 1.450941607052048,
             (100, 0.0125): 1.5492337768367455,
             (200, 0.05): 1.4780143220099478,
             (200, 0.0125): 1.6375650800477246},
    "H_eq": {(100, 0.05): 2.3609719245105,
             (100, 0.0125): 2.4209914106784627,
             (200, 0.05): 2.4094976084595,
             (200, 0.0125): 2.6093201974899403},
    "tw_eq": {(100, 0.05): 0.02286501561738482,
              (100, 0.0125): 0.021834086362037364,
              (200, 0.05): 0.025658993403738062,
              (200, 0.0125): 0.011907740128954665},
}


@pytest.fixture(scope="module")
def residual_study():
    """Each identity's max residual and envelope coefficient per grid point."""
    w = make_warp("euclidean")
    study = {}
    for M, dt_snap in RESIDUAL_GRID:
        trace = axisphere_run(w, wavy_r(M), 0.5, M, snapshot_every=dt_snap,
                              record_every=dt_snap)
        per = evolution_residuals(trace).details["per_identity"]
        delta = dt_snap + trace.base.dx_min ** 2
        study[M, dt_snap] = {k: (v["max_residual"], v["max_residual"] / delta)
                             for k, v in per.items()}
    return study


def test_criterion_7_evolution_identity_residuals(residual_study):
    w = make_warp("euclidean")
    ids = ("omega_eq", "tw_eq")
    coarse, fine = residual_study[RESIDUAL_GRID[0]], residual_study[RESIDUAL_GRID[-1]]
    ratios = {k: coarse[k][0] / fine[k][0] for k in ids}

    ptrace = run(point_state(w, 1.0),
                 FlowConfig(t_end=5e-5, dt_max=1e-5, record_every=1e-5,
                            snapshot_every=1e-5))
    prep = evolution_residuals(ptrace, which=ids)
    pres = {k: prep.details["per_identity"][k]["max_residual"] for k in ids}

    ok = all(v >= 2.0 for v in ratios.values()) and \
        all(v < 1e-10 for v in pres.values())
    verdict("criterion 7 (evolution-identity residuals)", ok,
            f"refinement ratios omega {ratios['omega_eq']:.2f}, "
            f"tw {ratios['tw_eq']:.2f} (gate >= 2); point residuals "
            f"omega {pres['omega_eq']:.2e}, tw {pres['tw_eq']:.2e} "
            f"(gate 1e-10)")
    for k in ids:
        assert ratios[k] >= 2.0, (k, ratios[k])
        assert pres[k] < 1e-10, (k, pres[k])


def test_residual_envelopes_keep_headroom(residual_study):
    # the envelope must pass criterion 7's study with 1.5x to spare, and
    # the study must be the one it was calibrated on
    margins = {w: c / max(p[w][1] for p in residual_study.values())
               for w, c in DEFAULT_C_RES.items()}
    ok = all(m >= 1.5 for m in margins.values())
    verdict("residual envelope headroom", ok,
            ", ".join(f"{w} {m:.3f}" for w, m in margins.items())
            + " (gate >= 1.5)")
    for w, pinned in RESIDUAL_COEFFICIENTS.items():
        for key, c in pinned.items():
            got = residual_study[key][w][1]
            assert math.isclose(got, c, rel_tol=1e-12, abs_tol=0.0), (w, key, got)
    for w, m in margins.items():
        assert m >= 1.5, (w, m)


PRESET_POOL = (
    ("euclidean", {}, (0.5, 3.0)),
    ("hyperbolic", {}, (0.3, 2.0)),
    ("power", {}, (0.5, 3.0)),
    ("saturating", {"a": 2.0, "b": 1.0, "k": 1.0}, (0.5, 10.0)),
    ("schwarzschild3", {"m": 0.5}, (0.5, 5.0)),
)


def _random_state(kind, rng):
    name, params, (lo, hi) = PRESET_POOL[int(rng.integers(len(PRESET_POOL)))]
    w = make_warp(name, **params)
    r0 = float(rng.uniform(lo, hi))
    amps = rng.uniform(0.0, 0.06, size=4)
    if kind == "point":
        base = POINT
        r = np.full(base.shape, r0)
    elif kind in ("circle", "axisphere"):
        base = make_base(kind, 64)
        r = np.ones(base.shape)
        for l, a in enumerate(amps, start=1):
            phase = rng.uniform(0.0, 2.0 * np.pi) if kind == "circle" else 0.0
            r += a * np.cos(l * base.theta + phase)
        r *= r0
    else:
        base = make_base("torus2", 24)
        x1, x2 = base.x[:, None], base.x[None, :]
        r = np.ones(base.shape)
        for _ in range(3):
            p, q = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            r += float(rng.uniform(0.0, 0.05)) * np.cos(
                p * x1 + q * x2 + rng.uniform(0.0, 2.0 * np.pi))
        r *= r0
    return base, w, amps, GraphState(base, w, radial_potential(w, r), 0.0)


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(20240817)
    per_kind = 50
    counts = {}
    worst = {"theta": 0.0, "cs": 0.0, "trace": 0.0, "metric": 0.0,
             "ricci": 0.0}
    conv_ratios = []
    for kind in ("point", "circle", "axisphere", "torus2"):
        euclid_seen = 0
        for i in range(per_kind):
            base, w, amps, state = _random_state(kind, rng)
            s = snapshot(state)
            n = state.n
            assert np.all(s.theta > 0.0) and np.all(s.theta <= 1.0), kind
            worst["theta"] = max(worst["theta"], float(np.max(s.theta)) - 1.0)
            # Cauchy-Schwarz: trace^2 <= (n-1) |A|^2, any sign of H
            cs = np.min((n - 1) * s.A2 - s.H ** 2)
            worst["cs"] = min(worst["cs"], float(cs))
            assert cs >= -1e-10 * max(1.0, float(np.max(s.H ** 2))), kind
            if base.dc > 0:
                tr = np.einsum("ii...", s.shape)
                dev = float(np.max(np.abs(tr - s.H)))
                worst["trace"] = max(worst["trace"], dev)
                assert dev < 1e-12 * max(1.0, float(np.max(np.abs(s.H)))), kind
                g, ginv = induced_metric(state)
                prod = np.einsum("ij...,jk...->ik...", g, ginv)
                for a in range(base.dc):
                    prod[a, a] -= 1.0
                mdev = float(np.max(np.abs(prod)))
                worst["metric"] = max(worst["metric"], mdev)
                assert mdev < 1e-12, kind
            if w.preset_id == "euclidean" and kind != "torus2":
                # flat ambient: both Ricci contractions vanish identically
                euclid_seen += 1
                rdev = max(float(np.max(np.abs(s.ric_vv))),
                           float(np.max(np.abs(s.ric_rr))))
                worst["ricci"] = max(worst["ricci"], rdev)
                assert rdev < 1e-12, kind
            if kind == "axisphere" and i % 5 == 0:
                prof = amps + 0.02   # keep the profile generic
                res = {}
                for M in (100, 200):
                    b = make_base("axisphere", M)
                    f = sum(a * np.cos(l * b.theta)
                            for l, a in enumerate(prof, start=1))
                    res[M] = commuting_residual(b, f)
                conv_ratios.append(res[100] / res[200])
        counts[kind] = per_kind
        if kind != "torus2":
            assert euclid_seen > 0, kind
    assert all(3.0 < q < 5.0 for q in conv_ratios), conv_ratios
    ok = True
    verdict("criterion 8 (structural invariants)", ok,
            f"{sum(counts.values())} random states over {len(counts)} base "
            f"kinds; worst: Theta-1 {worst['theta']:.1e}, Cauchy-Schwarz "
            f"slack {worst['cs']:.1e}, trace dev {worst['trace']:.1e}, "
            f"metric dev {worst['metric']:.1e}, flat Ricci {worst['ricci']:.1e}; "
            f"commutation ratios {min(conv_ratios):.2f}..{max(conv_ratios):.2f}")


def test_criterion_9_determinism(tmp_path):
    cfg_text = dedent("""\
        warp.preset = euclidean
        base.kind = axisphere
        base.resolution = 50
        initial.r0 = 1.0
        initial.modes = 1:0.3
        flow.t_end = 0.3
        flow.safety = 0.5
        flow.snapshot_every = 0.1
        flow.record_every = 0.05
        checks = growth_and_support, evolution_residuals, A_bounded
        """)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same_trace = (outs[0] / "trace.csv").read_bytes() == \
        (outs[1] / "trace.csv").read_bytes()
    same_report = (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()
    ok = same_trace and same_report
    verdict("criterion 9 (determinism)", ok,
            f"repeated runs byte-identical: trace.csv {same_trace}, "
            f"report.json {same_report}")
    assert same_trace
    assert same_report
    # the stored report must reflect passing checks, not merely match
    doc = json.loads((outs[0] / "report.json").read_text())
    assert doc["all_passed"] is True
