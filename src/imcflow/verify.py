"""Theorem-shaped checks over flow traces.

Each check consumes a FlowTrace and returns a CheckReport with a signed
margin: the check passes iff margin >= -tolerance.  Reports distinguish
fail (claim violated on data where its hypotheses hold) from inapplicable
(hypotheses unmet; passed is None), and carry enough detail to re-evaluate
the worst case from the stored trace.  Outside the family with Euclidean
asymptotics (c5_bounded false) a roundness failure stays a fail, with a
note: a run that does not round off, like the hyperbolic obstruction, must
fail the expectation its mode states, not pass it as inapplicable.

Residual checks of the evolution identities use centered differences of
snapshot pairs for the time derivative, so they exercise the public trace
format rather than integrator internals.  Identities stated along the
normal flow are brought into the stored fixed-coordinate gauge by
subtracting the tangential transport (Theta^2/F) phi^k d_k.  Pass
thresholds are c_res * (dt_snap + dx^2) with c_res calibrated once by the
refinement study in fixtures/calibration.json (regenerated via the CLI
--seed-fixtures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .warp import WarpDomainError, check_conditions, infimum_h0, q, r_at_h
from .manifold import covariant_derivatives

__all__ = [
    "CheckReport", "check_growth_and_support", "check_H_floor",
    "check_asymptotics", "evolution_residuals", "check_A_bounded",
    "curvature_floor", "fit_decay_rate", "DEFAULT_C_RES",
]

# Residual envelope constants, one per identity: max residual must stay
# below c_res * (snapshot spacing + dx_min^2).  Calibrated with >= 1.5x
# headroom from the axisphere study recorded in fixtures/calibration.json.
# The u and H constants are set by the first snapshot triple, where high
# time derivatives of the discrete fields are still relaxing; away from
# t=0 those residuals run two orders of magnitude smaller.
DEFAULT_C_RES = {
    "omega_eq": 0.06,
    "u_eq": 2.5,
    "H_eq": 4.0,
    "tw_eq": 0.04,
}

CIRCLE_NOTE = ("circle base: ambient dimension n=2 sits outside the n>=3 "
               "range the estimates assume; values reported as-is")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    # bool before int: True is an int, and report.json writes true, not 1
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


@dataclass
class CheckReport:
    check_id: str
    hypothesis_status: dict
    passed: object            # True | False | None (inapplicable)
    margin: float
    tolerance: float
    details: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def as_dict(self):
        return _json_safe({
            "check_id": self.check_id,
            "hypothesis_status": self.hypothesis_status,
            "pass": self.passed,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "details": self.details,
            "notes": self.notes,
        })


def _default_tol(base):
    return 1e-8 if base.dc == 0 else 1e-2


def _radial_hull(trace):
    rs = [s.r for _, _, s in trace.snapshots]
    return min(float(np.min(r)) for r in rs), max(float(np.max(r)) for r in rs)


def _base_notes(trace, notes):
    if trace.base.kind == "circle":
        notes.append(CIRCLE_NOTE)
    if not trace.completed:
        ev = trace.terminal
        notes.append(f"trace terminated by event {ev.kind} at t={ev.t:.6g}; "
                     "assertions cover the recorded times only")


def _non_finite(a):
    """Flat index of the first non-finite value of the array a, or None."""
    bad = ~np.isfinite(a)
    return int(bad.argmax()) if bad.any() else None


def _worst(slacks):
    """(min slack, index) over a list of (slack, payload)."""
    idx = int(np.argmin([s for s, _ in slacks]))
    return slacks[idx][0], slacks[idx][1]


def check_growth_and_support(trace, R1=None, R2=None, tol=None):
    """Exponential sandwich for h and the support function omega.

    R1/R2 default to the initial min/max of omega.  The h-sandwich and the
    omega upper bound need only the weak convexity conditions, which hold
    on every preset; the omega lower bound is asserted only when the strict
    conditions hold on the radial hull of the run.  A non-finite h or
    omega at any node of any snapshot fails the check.
    """
    if not trace.snapshots:
        raise ValueError("trace has no snapshots")
    n = trace.n
    snap0 = trace.snapshots[0][2]
    om0_min, om0_max = float(np.min(snap0.omega)), float(np.max(snap0.omega))
    if R1 is None:
        R1 = om0_min
    if R2 is None:
        R2 = om0_max
    if tol is None:
        tol = _default_tol(trace.base)

    cond = check_conditions(trace.warp, _radial_hull(trace), rho=trace.base.rho)
    bracket_ok = (R1 <= om0_min + 1e-12 * max(1.0, abs(om0_min))
                  and om0_max <= R2 + 1e-12 * max(1.0, abs(om0_max)))
    hyp = {"c1_weak": cond.c1_weak, "c1_strict": cond.c1_strict,
           "omega_bracket": bracket_ok}

    notes = []
    _base_notes(trace, notes)
    if not bracket_ok:
        notes.append(f"supplied [R1, R2]=[{R1:.6g}, {R2:.6g}] does not bracket "
                     f"initial omega in [{om0_min:.6g}, {om0_max:.6g}]; "
                     "asserting the sandwich for the supplied values anyway")
    assert_omega_lower = cond.c1_strict
    if not assert_omega_lower:
        notes.append("omega lower bound not asserted: strict conditions "
                     "unmet on the radial hull")

    slacks = []
    for t, _, snap in trace.snapshots:
        ex = math.exp(t / (n - 1))
        lo, hi = ex * R1, ex * R2
        pairs = [
            ("h_lower", float(np.min(snap.h)) - lo, lo, int(np.argmin(snap.h))),
            ("h_upper", hi - float(np.max(snap.h)), hi, int(np.argmax(snap.h))),
            ("omega_upper", hi - float(np.max(snap.omega)), hi,
             int(np.argmax(snap.omega))),
        ]
        if assert_omega_lower:
            pairs.append(("omega_lower", float(np.min(snap.omega)) - lo, lo,
                          int(np.argmin(snap.omega))))
        # h meets both bounds, but the omega lower bound may be unasserted
        node = _non_finite(snap.omega)
        if node is not None:
            slacks.append((math.nan, {"quantity": "omega_finite", "t": t, "node": node,
                                      "value": float(snap.omega.flat[node])}))
        for name, raw, scale, node in pairs:
            slacks.append((raw / scale,
                           {"quantity": name, "t": t, "node": node,
                            "bound": scale, "value": scale - raw if
                            name.endswith("upper") else scale + raw}))
    margin, worst = _worst(slacks)
    details = {"R1": R1, "R2": R2, "n_times": len(trace.snapshots),
               "worst": worst}
    return CheckReport("growth_and_support", hyp, bool(margin >= -tol),
                       float(margin), tol, details, notes)


def curvature_floor(t, n, R1, R2, h0):
    """Mean-curvature floor e^{-1/(n-1)} sqrt(h0 (n-1)) R1/R2 min(sqrt(t/2), 1)."""
    t = np.asarray(t, dtype=float)
    ramp = np.minimum(np.sqrt(np.maximum(t, 0.0) / 2.0), 1.0)
    return math.exp(-1.0 / (n - 1)) * math.sqrt(h0 * (n - 1)) * (R1 / R2) * ramp


def check_H_floor(trace, R1=None, R2=None, h0=None, tol=0.0):
    """Lower bound for min H at positive record times.

    Inapplicable (passed None) when R1 or R2 is not finite, supplied or
    taken from omega at t = 0, when h takes R1 or R2 e^{T/(n-1)} at no
    radius of the domain, and unless the strict convexity conditions hold
    on h^{-1}[R1, R2 e^{T/(n-1)}].  h0 defaults to inf h''/h there.
    A non-finite min_H at a positive record time fails the check (margin
    NaN).  Also reports the observed min/max of H h as C1/C2 estimates.
    """
    if not trace.snapshots:
        raise ValueError("trace has no snapshots")
    n = trace.n
    snap0 = trace.snapshots[0][2]
    given = R1, R2
    if R1 is None:
        R1 = float(np.min(snap0.omega))
    if R2 is None:
        R2 = float(np.max(snap0.omega))
    notes = []
    _base_notes(trace, notes)

    def inapplicable(note):
        notes.append(f"{note}; floor not asserted")
        return CheckReport("H_floor", {"c1_weak": None, "c1_strict": None},
                           None, float("nan"), tol, {"R1": R1, "R2": R2}, notes)

    bad = [f"{k} = {v} ({'from omega at t=0' if g is None else 'supplied'})"
           for k, v, g in zip(("R1", "R2"), (R1, R2), given)
           if not math.isfinite(v)]
    if bad:
        return inapplicable(f"{', '.join(bad)} not finite")
    T = trace.t_final
    R2T = R2 * math.exp(T / (n - 1))
    try:
        r_lo, r_hi = r_at_h(trace.warp, R1), r_at_h(trace.warp, R2T)
    except WarpDomainError as exc:
        return inapplicable(f"R1 = {R1} or R2 e^{{T/(n-1)}} = {R2T} outside "
                            f"the range of h ({exc})")
    cond = check_conditions(trace.warp, (r_lo, r_hi), rho=trace.base.rho)
    hyp = {"c1_weak": cond.c1_weak, "c1_strict": cond.c1_strict}

    Hh = [(float(np.min(s.H * s.h)), float(np.max(s.H * s.h)))
          for _, _, s in trace.snapshots]
    C1_obs = min(a for a, _ in Hh)
    C2_obs = max(b for _, b in Hh)
    details = {"R1": R1, "R2": R2, "interval_r": [r_lo, r_hi],
               "C1_obs": C1_obs, "C2_obs": C2_obs}

    if not cond.c1_strict:
        notes.append("strict conditions unmet on h^{-1}[R1, R2 e^{T/(n-1)}]; "
                     "floor not asserted")
        details["witness_r"] = cond.witnesses["c1_strict"]
        return CheckReport("H_floor", hyp, None, float("nan"), tol,
                           details, notes)

    if h0 is None:
        h0 = infimum_h0(trace.warp, (r_lo, r_hi))
    details["h0"] = h0
    if h0 <= 0.0:
        notes.append("h0 = 0 makes the floor vacuous on this horizon")
        details["floor_at_T"] = 0.0
        return CheckReport("H_floor", hyp, True, float("inf"), tol,
                           details, notes)

    mask = trace.times > 0.0
    ts = trace.times[mask]
    minH = trace.columns["min_H"][mask]
    floors = curvature_floor(ts, n, R1, R2, h0)
    # NaN where min_H is not finite; argmin returns the first NaN
    slack = np.where(np.isfinite(minH), (minH - floors) / floors, math.nan)
    i = int(np.argmin(slack))
    details.update({
        "floor_at_T": float(curvature_floor(T, n, R1, R2, h0)),
        "worst": {"quantity": "min_H_vs_floor", "t": float(ts[i]),
                  "value": float(minH[i]), "bound": float(floors[i])},
    })
    margin = float(slack[i])
    if math.isnan(margin):
        notes.append(f"min_H = {minH[i]} at t={ts[i]:.6g} is not finite")
    return CheckReport("H_floor", hyp, bool(margin >= -tol), margin, tol,
                       details, notes)


def fit_decay_rate(times, values, eps=1e-30):
    """Decay rate lambda from a log-linear fit values ~ C exp(-lambda t).

    Returns +inf when the series is identically below eps (exact decay),
    nan when a value is non-finite or fewer than 3 usable points remain.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        return float("nan")
    good = v > eps
    if not np.any(good):
        return float("inf")
    if int(np.sum(good)) < 3:
        return float("nan")
    slope = np.polyfit(t[good], np.log(v[good]), 1)[0]
    return float(-slope)


def check_asymptotics(trace, mode, tol_osc=1e-3, obstruction_floor=1e-2,
                      fit_window=None):
    """Late-time behavior of the rescaled graph.

    expect_roundness: fitted decay rates of max|Dphi|, max|D^2 phi|,
    osc(e^{-t/(n-1)} h) and the normalized shape deviation over the second
    half must all be positive, the terminal oscillation must fall below
    tol_osc, and C2 must be time-uniform: the growth rate gamma of max H h,
    fitted over the snapshots in the window, may not exceed the predicted
    rate beta = rho0 / C2^2 (C2 = max H h over the run).  beta is a decay
    rate only while H h <= C2 holds as the surface grows; in hyperbolic
    space H h ~ (n-1) cosh r grows like e^{t/(n-1)}, and this part rejects
    such runs even when their oscillation decays slowly.  gamma is compared
    after subtracting the rounding floor of the log-linear fit,
    64 eps max(1, |ln H h|) / (window length), so a constant H h (exactly
    round data, gamma ~ 1e-17) is not a failure when beta = 0.  beta and
    gamma are reported in details.  expect_obstruction: the terminal
    oscillation must stay above obstruction_floor.  A non-finite value in
    a fitted series or in H h at any node leaves the check inapplicable
    (passed None), with a note naming the series.
    """
    if mode not in ("expect_roundness", "expect_obstruction"):
        raise ValueError(f"unknown mode {mode!r}")
    if not trace.completed:
        raise ValueError("trace terminated by an event; asymptotics need a "
                         "completed run")
    T = trace.t_final
    if T < 8.0 - 1e-9:
        raise ValueError(f"trace too short for asymptotics (t_end={T:.3g} < 8)")
    if fit_window is None:
        fit_window = (T / 2.0, T)
    lo, hi = fit_window

    n = trace.n
    cond = check_conditions(trace.warp, _radial_hull(trace), rho=trace.base.rho)
    hyp = {"c1_weak": cond.c1_weak, "c1_strict": cond.c1_strict,
           "c5_bounded": cond.c5_bounded}
    notes = []
    _base_notes(trace, notes)
    if not cond.c5_bounded:
        notes.append("c5_bounded false: the warp lies outside the family "
                     "with Euclidean asymptotics; roundness is not predicted")

    tmask = (trace.times >= lo - 1e-9) & (trace.times <= hi + 1e-9)
    ts = trace.times[tmask]
    series = {
        "grad_phi": trace.columns["max_grad_phi"][tmask],
        "hess_phi": trace.columns["max_hess_phi"][tmask],
        "osc": trace.columns["osc_rescaled_h"][tmask],
    }
    win = [lo - 1e-9 <= t <= hi + 1e-9 for t, _, _ in trace.snapshots]
    st = [(t, s) for (t, _, s), w in zip(trace.snapshots, win) if w]
    shape_t = np.array([t for t, _ in st])
    shape_dev = np.array([s.shape_dev_max for _, s in st])
    # NaN where H h is not finite at some node
    Hh = np.array([np.max(p) if np.isfinite(p).all() else math.nan
                   for p in (s.H * s.h for _, _, s in trace.snapshots)])
    Hh_max = Hh[win]

    check_id = "asymptotics_" + mode.removeprefix("expect_")
    bad = [k for k, v in (*series.items(), ("shape_dev", shape_dev),
                          ("max_Hh", Hh)) if not np.isfinite(v).all()]
    if bad:
        notes.append(f"non-finite values in {', '.join(bad)}; nothing fitted")
        return CheckReport(check_id, hyp, None, float("nan"), 0.0,
                           {"fit_window": [lo, hi], "non_finite": bad}, notes)

    rates = {k: fit_decay_rate(ts, v) for k, v in series.items()}
    if len(shape_t) >= 3:
        rates["shape_dev"] = fit_decay_rate(shape_t, shape_dev)
        gamma = -fit_decay_rate(shape_t, Hh_max)
        gamma_floor = (64.0 * np.finfo(float).eps
                       * max(1.0, float(np.max(np.abs(np.log(Hh_max)))))
                       / (shape_t[-1] - shape_t[0]))
    else:
        rates["shape_dev"] = float("nan")
        gamma = gamma_floor = float("nan")
        notes.append("fewer than 3 snapshots in the fit window; shape "
                     "deviation rate and the growth rate of max H h not "
                     "fitted")

    osc_T = float(trace.columns["osc_rescaled_h"][-1])
    C2_obs = float(np.max(Hh))
    rho0 = (n - 2) * trace.base.rho
    beta = rho0 / C2_obs ** 2 if C2_obs > 0 else float("nan")
    details = {"rates": rates, "terminal_osc": osc_T,
               "beta_predicted": beta, "C2_obs": C2_obs, "rho0": rho0,
               "gamma_Hh": gamma,
               "fit_window": [lo, hi],
               "worst": {"quantity": "osc_rescaled_h", "t": T,
                         "value": osc_T}}
    notes.append("beta_predicted is a one-sided construction; observed "
                 "rates may exceed it")

    if trace.base.dc == 0:
        notes.append("point base: no spatial variation; rates are exact")

    if mode == "expect_obstruction":
        margin = (osc_T - obstruction_floor) / obstruction_floor
        details["worst"]["bound"] = obstruction_floor
        return CheckReport(check_id, hyp, bool(margin >= 0.0), float(margin),
                           0.0, details, notes)

    rate_vals = [v for v in rates.values() if not math.isnan(v)]
    osc_margin = (tol_osc - osc_T) / tol_osc
    # NaN gamma (too few snapshots) or NaN beta leaves uniformity unchecked
    excess = gamma - gamma_floor - beta
    uniform = not excess > 0.0
    margins = [osc_margin] + rate_vals
    if not math.isnan(excess):
        margins.append(-excess)
    margin = min(margins)
    details["worst"]["bound"] = tol_osc
    passed = (osc_T < tol_osc and all(v > 0.0 for v in rate_vals)
              and uniform)
    return CheckReport(check_id, hyp, bool(passed), float(margin), 0.0,
                       details, notes)


# ---------------------------------------------------------------------------
# evolution-identity residuals

def _induced_laplacian_1d(base, snap, f):
    """Flux-form Laplacian of the induced metric for 1d-reduced bases.

    g^{tt} = Theta^2 / h^2 in the theta direction for both the circle and
    axisymmetric fields on the axisphere; the volume weight W differs.
    Pole faces on the axisphere carry zero flux (W ~ sin theta -> 0).
    The point base has no derivatives: 0.
    """
    if base.dc == 0:
        return 0.0
    K = snap.theta ** 2 / snap.h ** 2
    if base.kind == "circle":
        W = snap.h / snap.theta
        KW = K * W
        dx = base.dx_min
        kf = 0.5 * (KW + np.roll(KW, -1))            # face j+1/2
        flux = kf * (np.roll(f, -1) - f) / dx
        return (flux - np.roll(flux, 1)) / (W * dx)
    if base.kind == "axisphere":
        W = snap.h ** 2 * base.sin / snap.theta
        KW = K * W
        dx = base.dx_min
        kf = 0.5 * (KW[:-1] + KW[1:])
        flux = np.zeros(f.shape[0] + 1)
        flux[1:-1] = kf * (f[1:] - f[:-1]) / dx      # pole faces stay 0
        return (flux[1:] - flux[:-1]) / (W * dx)
    raise ValueError(f"no induced Laplacian for base kind {base.kind!r}")


def _grad_contract_1d(base, snap, f1, f2):
    """g^{ij} f1_i f2_j for the 1d-reduced induced metric (0 on the point)."""
    if base.dc == 0:
        return 0.0
    g1 = base.differences(f1)[0]
    g2 = base.differences(f2)[0]
    return (snap.theta ** 2 / snap.h ** 2) * g1 * g2


def _rhs_omega(trace, snap):
    n = trace.n
    lap = _induced_laplacian_1d(trace.base, snap, snap.omega)
    smooth_kh = ((1.0 - snap.theta ** 2) * (n - 2) * q(trace.warp, snap.r, snap.h)
                 + snap.theta ** 2 * snap.ric_dphi)
    return (lap / snap.H ** 2 + snap.A2 / snap.H ** 2 * snap.omega
            + snap.omega * smooth_kh / (snap.H ** 2 * snap.h ** 2))


def _rhs_u(trace, snap):
    base, n, u = trace.base, trace.n, snap.u
    lap = _induced_laplacian_1d(base, snap, u)
    gu2 = _grad_contract_1d(base, snap, u, u)
    gHu = _grad_contract_1d(base, snap, snap.H, u)
    return (lap / snap.H ** 2 - 2.0 / u * gu2 / snap.H ** 2
            - 2.0 * gHu / snap.H ** 3
            # u^3 omega^2 = u / H^2, finite where omega^2 overflows
            - (n - 1) * snap.hpp / snap.h * u / snap.H ** 2)


def _rhs_H(trace, snap):
    lap = _induced_laplacian_1d(trace.base, snap, snap.H)
    gH2 = _grad_contract_1d(trace.base, snap, snap.H, snap.H)
    return (lap / snap.H ** 2 - 2.0 * gH2 / snap.H ** 3
            - (snap.A2 + snap.ric_vv) / snap.H)


def _rhs_tw(trace, snap):
    """Evolution of tw = |Dphi|^2 / 2; all operators live on the base."""
    base = trace.base
    n = trace.n
    if base.dc == 0:
        return np.zeros(1)
    tw = 0.5 * snap.dphi2
    grad, hess = snap.grad, snap.hess
    tw_grad, tw_hess = covariant_derivatives(base, tw)
    sinv = base.sigma_inv_diag()
    up = sinv * grad
    theta2 = snap.theta ** 2
    F = snap.F

    def st_contract(T):
        diag = np.einsum("i...,ii...->...", sinv, T)
        return diag - theta2 * np.einsum("i...,j...,ij...->...", up, up, T)

    # G^k is fixed by dF/dphi_k = -2 Theta^2 G^k; differentiating
    # F = Theta^2 ((n-1) h' - st^{ij} phi_ij) directly gives
    # G^k = F phi^k - Theta^2 sigma^{kk} m_k + Theta^4 phi^k (phi^i phi^j phi_ij)
    m = np.einsum("j...,jk...->k...", up, hess)
    sc = np.einsum("i...,i...->...", up, m)
    G = F * up - theta2 * sinv * m + theta2 ** 2 * up * sc
    G_tw = np.einsum("k...,k...->...", G, tw_grad)

    # st^{ij} phi_{ki} phi^k_j, summed with sigma^{kk} on the free pair
    hh = np.einsum("k...,ki...,kj...->ij...", sinv, hess, hess)
    quad = st_contract(hh)

    rhs = (theta2 / F ** 2) * (st_contract(tw_hess) + 2.0 * G_tw - quad
                               - snap.ric_dphi
                               - 2.0 * tw * (n - 1) * snap.h * snap.hpp)
    return rhs


def _advection(base, snap, q):
    """Transport term V^k d_k q with V^k = Theta^2 phi^k / F.

    Only the circle and the axisphere carry the material identities, and
    there only theta-derivatives exist with sigma^{theta theta} = 1, so
    V^k d_k q = Theta^2 phi_theta q_theta / F.
    """
    if base.dc == 0:
        return 0.0
    q_theta = base.differences(q)[0]
    return snap.theta ** 2 / snap.F * (snap.grad[0] * q_theta)


# id -> (field, rhs, material, undefined): the snapshot's evolving field,
# the identity's right-hand side, whether the identity is stated along the
# normal flow, and why the field can be non-finite (None: it cannot).  The
# trace samples fields at fixed base points, so a material identity has
# the tangential transport (Theta^2/F) phi^k d_k Q subtracted from the
# centered time difference; tw_eq is derived directly in the
# fixed-coordinate gauge and needs none.  The material identities use the
# 1d-reduced induced operators, which torus2 lacks.
_IDENTITIES = {
    "omega_eq": (lambda s: s.omega, _rhs_omega, True, None),
    "u_eq": (lambda s: s.u, _rhs_u, True,
             "H <= 0 somewhere; modified speed undefined"),
    "H_eq": (lambda s: s.H, _rhs_H, True, None),
    "tw_eq": (lambda s: 0.5 * s.dphi2, _rhs_tw, False, None),
}


def evolution_residuals(trace, which=None, c_res=None):
    """Max |centered time difference - identity RHS| over snapshot triples.

    Passes when every selected identity stays below c_res * (dt_snap + dx^2),
    with dt_snap the snapshot spacing.  A non-finite residual ends its
    identity's scan: the identity fails with that value, its time and
    node, and the check's margin is -inf.  The material identities need the
    1d-reduced induced operators, so they are unsupported on torus2 and
    reported inapplicable if requested there; so is an identity whose field
    is non-finite in a snapshot triple.
    """
    supported = tuple(w for w, (_, _, material, _) in _IDENTITIES.items()
                      if not material or trace.base.kind != "torus2")
    requested = tuple(which) if which is not None else supported
    for w in requested:
        if w not in _IDENTITIES:
            raise ValueError(f"unknown identity {w!r}")
    if c_res is None:
        c_res = DEFAULT_C_RES

    notes = []
    _base_notes(trace, notes)
    snaps = trace.snapshots
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots for centered differences")
    triples = []
    for i in range(1, len(snaps) - 1):
        d1 = snaps[i][0] - snaps[i - 1][0]
        d2 = snaps[i + 1][0] - snaps[i][0]
        if abs(d2 - d1) <= 1e-9 * max(d1, d2):
            triples.append((i, 0.5 * (d1 + d2)))
    if not triples:
        raise ValueError("no equally spaced snapshot triples in trace")
    dt_snap = float(np.median([d for _, d in triples]))
    dx = 0.0 if trace.base.dc == 0 else trace.base.dx_min

    hyp = {"base": trace.base.kind, "identities": list(requested)}
    details = {"dt_snap": dt_snap, "dx": dx, "per_identity": {}}
    margins = []
    any_applicable = False
    all_pass = True
    for w in requested:
        if w not in supported:
            details["per_identity"][w] = {"status": "inapplicable"}
            notes.append(f"{w} unsupported on base {trace.base.kind}")
            continue
        field, rhs, material, undefined = _IDENTITIES[w]
        worst = (-np.inf, None, None)
        for i, dd in triples:
            q_prev, q_mid, q_next = (field(snaps[k][2])
                                     for k in (i - 1, i, i + 1))
            if undefined and not all(np.isfinite(q).all()
                                     for q in (q_prev, q_mid, q_next)):
                worst = None
                break
            lhs = (q_next - q_prev) / (2.0 * dd)
            if material:
                lhs = lhs - _advection(trace.base, snaps[i][2], q_mid)
            res = np.abs(lhs - rhs(trace, snaps[i][2]))
            # argmax picks the first NaN, else the first inf, else the max
            j = int(np.argmax(res))
            if not math.isfinite(res.flat[j]):
                worst = (float(res.flat[j]), snaps[i][0], j)
                break
            if res.flat[j] > worst[0]:
                worst = (float(res.flat[j]), snaps[i][0], j)
        if worst is None:
            details["per_identity"][w] = {"status": "inapplicable"}
            notes.append(f"{w}: {undefined}")
            continue
        any_applicable = True
        threshold = c_res[w] * (dt_snap + dx ** 2)
        finite = math.isfinite(worst[0])
        ok = finite and worst[0] <= threshold
        all_pass = all_pass and ok
        if not finite:
            margins.append(-math.inf)
        elif math.isfinite(threshold):
            margins.append((threshold - worst[0]) / threshold)
        else:
            margins.append(float("inf"))
        details["per_identity"][w] = {
            "max_residual": worst[0], "t": worst[1], "node": worst[2],
            "threshold": threshold, "c_res": c_res[w],
        }
    if not any_applicable:
        return CheckReport("evolution_residuals", hyp, None, float("nan"),
                           0.0, details, notes)
    margin = float(min(margins))
    return CheckReport("evolution_residuals", hyp, bool(all_pass), margin,
                       0.0, details, notes)


def check_A_bounded(trace):
    """No blow-up trend in max |A|: last-quartile max <= 2 x trace median.

    A non-finite max |A| at any record fails the check (margin NaN, its
    first record the worst), and so does a zero median (margin -inf).  A
    trace with no records raises ValueError.
    """
    maxA = trace.columns["max_A"]
    if not maxA.size:
        raise ValueError("trace has no records")
    times = trace.times
    notes = []
    _base_notes(trace, notes)
    sup_A = float(np.max(maxA))
    med = float(np.median(maxA))
    t_cut = times[0] + 0.75 * (times[-1] - times[0])
    lastq = maxA[times >= t_cut]
    lastq_max = float(np.max(lastq)) if lastq.size else sup_A
    bound = 2.0 * med
    bad = _non_finite(maxA)
    if bad is None:
        margin = (bound - lastq_max) / bound if bound > 0 else float("-inf")
        i = int(np.argmax(maxA))
    else:
        margin, i = math.nan, bad
    details = {"sup_A": sup_A, "median_A": med, "last_quartile_max": lastq_max,
               "worst": {"quantity": "max_A", "t": float(times[i]),
                         "value": float(maxA[i]), "bound": bound}}
    return CheckReport("A_bounded", {}, bool(margin >= 0.0), float(margin),
                       0.0, details, notes)
