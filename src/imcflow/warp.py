"""Warping factors h(r) for rotationally symmetric ambient metrics.

The ambient space is a warped product N x_h (0, r_max) with metric
dr^2 + h(r)^2 sigma.  Everything downstream needs fast pointwise access to
(h, h', h'') along with the radial potential

    Phi(r) = int dr / h(r),

whose inverse converts the evolving graph variable phi back to a radius.
Presets cover the closed-form model geometries plus two families where h
is only available through an ODE or a quadrature; those are tabulated once
at construction and evaluated through cubic coefficient tables.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

__all__ = [
    "WarpSpec",
    "WarpDomainError",
    "ConditionReport",
    "make_warp",
    "eval_warp",
    "radial_potential",
    "r_of_phi",
    "warp_at_phi",
    "hp_at_phi",
    "phi_domain_violation",
    "r_at_h",
    "check_conditions",
    "infimum_h0",
    "PRESETS",
]

TABLE_NODES = 4096


class WarpDomainError(ValueError):
    """Radius or potential value outside the valid domain of a warp.

    ``node`` is the flat index of the first offending value when the input
    was an array, None for scalar input.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class _CubicTable:
    """Piecewise cubic with a cheap vectorized evaluator.

    scipy's PPoly __call__ carries enough per-call overhead to dominate the
    reduced (single node) flow, so we keep the knots and coefficients from a
    CubicSpline fit and do searchsorted + Horner ourselves.
    """

    def __init__(self, x, y):
        sp = CubicSpline(x, y)
        self.x = sp.x
        self.c = sp.c  # (4, len(x) - 1)
        self._last_seg = self.c.shape[1] - 1
        # plain-float copies for the scalar path (single-node flows)
        self._xl = self.x.tolist()
        self._cl = self.c.tolist()

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        idx = self.x.searchsorted(xq) - 1
        idx = np.minimum(np.maximum(idx, 0), self._last_seg)
        t = xq - self.x[idx]
        c = self.c
        return ((c[0, idx] * t + c[1, idx]) * t + c[2, idx]) * t + c[3, idx]

    def scalar(self, xq):
        i = bisect.bisect_left(self._xl, xq) - 1
        if i < 0:
            i = 0
        elif i > self._last_seg:
            i = self._last_seg
        t = xq - self._xl[i]
        c = self._cl
        return ((c[0][i] * t + c[1][i]) * t + c[2][i]) * t + c[3][i]


class WarpSpec:
    """One warping factor: preset id, parameters, domain and anchor.

    Instances are immutable by convention.  ``anchor`` is the (r0, h0) pair
    fixing the integration constant when h itself solves an ODE; for
    closed-form presets it just records h at the reference radius.  The
    additive constant of the radial potential is a per-preset convention
    (see ``radial_potential``) and can be overridden with the parameters
    ``phi_r0`` / ``phi0``.
    """

    def __init__(self, preset_id, params, r_domain, anchor):
        self.preset_id = preset_id
        self.params = dict(params)
        self.r_domain = tuple(r_domain)
        self.anchor = tuple(anchor)
        # table-backed presets fill these in make_warp
        self._h_table = None        # h(r)
        self._phi_table = None      # Phi(r)
        self._r_of_phi_table = None  # r(Phi)
        self._phi_domain = (-math.inf, math.inf)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"WarpSpec({self.preset_id}, {ps})"


PRESETS = {
    "euclidean": {
        "params": {},
        "summary": "h(r) = r; flat ambient space",
        "conditions": "weak convexity only (h'' = 0); bounded-derivative family",
    },
    "hyperbolic": {
        "params": {},
        "summary": "h(r) = sinh r; constant curvature -1",
        "conditions": "strict convexity; h' unbounded, outside the bounded-derivative family",
    },
    "schwarzschild3": {
        "params": {"m": "mass > 0", "r_max": "table extent (default 2000)"},
        "summary": "n = 3 exterior region: h' = sqrt(1 - 2m/h), tabulated h(r)",
        "conditions": "strict convexity for rho >= 1 - 3m/h; bounded-derivative family (alpha <= 1)",
    },
    "saturating": {
        "params": {"a": "limit slope, a > b > 0", "b": "slope deficit", "k": "decay power > 0",
                   "r_max": "table extent (default 1e4)"},
        "summary": "h'(r) = a - b (1+r)^(-k), h(0) = 1",
        "conditions": "strict convexity; bounded-derivative family for alpha <= k",
    },
    "power": {
        "params": {"p": "exponent >= 1"},
        "summary": "h(r) = r^p",
        "conditions": "weak convexity; strict only where rho >= p r^(2p-2); h' unbounded for p > 1",
    },
}


def _schwarzschild_rhs(m):
    def rhs(r, y):
        h = y[0]
        hp = math.sqrt(max(1.0 - 2.0 * m / h, 0.0))
        return [hp, 1.0 / h]
    return rhs


def _geometric_nodes(r_max, n=TABLE_NODES):
    # node 0 at the left edge, then geometric spacing; clusters points where
    # the tabulated functions bend fastest
    tail = np.geomspace(r_max * 1e-7, r_max, n - 1)
    return np.concatenate(([0.0], tail))


def _build_tables(spec, h_closed=None):
    """Tabulate h (if ODE-defined) and Phi on a geometric grid."""
    r_lo, r_max = spec.r_domain
    nodes = _geometric_nodes(r_max)
    if spec.preset_id == "schwarzschild3":
        m = spec.params["m"]
        sol = solve_ivp(_schwarzschild_rhs(m), (0.0, r_max), [spec.anchor[1], 0.0],
                        t_eval=nodes, method="DOP853", rtol=1e-12, atol=1e-13)
        h_vals, phi_vals = sol.y
        spec._h_table = _CubicTable(nodes, h_vals)
    else:
        # h is closed form; only the potential needs quadrature
        def rhs(r, y):
            return [1.0 / h_closed(r)]
        sol = solve_ivp(rhs, (0.0, r_max), [0.0], t_eval=nodes,
                        method="DOP853", rtol=1e-12, atol=1e-13)
        phi_vals = sol.y[0]
    # shift so Phi(phi_r0) = phi0
    phi_r0 = spec.params.get("phi_r0", r_lo + 1.0)
    phi0 = spec.params.get("phi0", 0.0)
    # anchor through the table itself, so Phi(phi_r0) = phi0 on the table
    probe = _CubicTable(nodes, phi_vals)
    shift = float(probe(phi_r0))
    phi_vals = phi_vals - shift + phi0
    spec._phi_table = _CubicTable(nodes, phi_vals)
    spec._r_of_phi_table = _CubicTable(phi_vals, nodes)
    spec._phi_domain = (float(phi_vals[0]), float(phi_vals[-1]))


def make_warp(preset_id, **params):
    """Construct a WarpSpec for one of the named presets."""
    if preset_id == "euclidean":
        return WarpSpec("euclidean", params, (0.0, math.inf), (1.0, 1.0))
    if preset_id == "hyperbolic":
        return WarpSpec("hyperbolic", params, (0.0, math.inf), (1.0, math.sinh(1.0)))
    if preset_id == "power":
        p = float(params.get("p", 1.0))
        if p < 1.0:
            raise ValueError(f"power preset needs p >= 1, got {p}")
        params = dict(params, p=p)
        return WarpSpec("power", params, (0.0, math.inf), (1.0, 1.0))
    if preset_id == "schwarzschild3":
        m = float(params.get("m", 0.5))
        if m <= 0:
            raise ValueError(f"schwarzschild3 preset needs m > 0, got {m}")
        r_max = float(params.get("r_max", 2000.0))
        params = dict(params, m=m, r_max=r_max)
        spec = WarpSpec("schwarzschild3", params, (0.0, r_max), (0.0, 3.0 * m))
        _build_tables(spec)
        return spec
    if preset_id == "saturating":
        a = float(params.get("a", 2.0))
        b = float(params.get("b", 1.0))
        k = float(params.get("k", 1.0))
        if not (a > b > 0.0 and k > 0.0):
            raise ValueError(f"saturating preset needs a > b > 0 and k > 0, got a={a} b={b} k={k}")
        r_max = float(params.get("r_max", 1e4))
        params = dict(params, a=a, b=b, k=k, r_max=r_max)
        spec = WarpSpec("saturating", params, (0.0, r_max), (0.0, 1.0))
        _build_tables(spec, h_closed=lambda r: _saturating_h(a, b, k, r))
        return spec
    raise ValueError(f"unknown warp preset {preset_id!r}")


def _saturating_h(a, b, k, r):
    if k == 1.0:
        return 1.0 + a * r - b * np.log1p(r)
    return 1.0 + a * r + b / (k - 1.0) * ((1.0 + r) ** (1.0 - k) - 1.0)


def _check_r_domain(spec, r):
    lo, hi = spec.r_domain
    rmin = r.min() if np.ndim(r) else r
    rmax = r.max() if np.ndim(r) else r
    # NaN fails both comparisons, infinities fail one; no separate check
    if not (rmin > lo and rmax < hi):
        node = None
        if np.ndim(r):
            node = int((~((r > lo) & (r < hi))).argmax())
        raise WarpDomainError(
            f"radius outside domain ({lo}, {hi}) for {spec.preset_id}: "
            f"range [{rmin}, {rmax}]", node)


def eval_warp(spec, r):
    """Evaluate (h, h', h'') at radii r.

    Parameters
    ----------
    spec : WarpSpec
    r : array_like
        Radii strictly inside ``spec.r_domain``.

    Returns
    -------
    h, hp, hpp : ndarray
        Warping factor and its first two radial derivatives.
    """
    r = np.asarray(r, dtype=float)
    _check_r_domain(spec, r)
    pid = spec.preset_id
    if pid == "euclidean":
        return r.copy(), np.ones_like(r), np.zeros_like(r)
    if pid == "hyperbolic":
        return np.sinh(r), np.cosh(r), np.sinh(r)
    if pid == "power":
        p = spec.params["p"]
        h = r ** p
        return h, p * r ** (p - 1.0), p * (p - 1.0) * r ** (p - 2.0)
    if pid == "saturating":
        a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
        h = _saturating_h(a, b, k, r)
        hp = a - b * (1.0 + r) ** (-k)
        hpp = k * b * (1.0 + r) ** (-k - 1.0)
        return h, hp, hpp
    if pid == "schwarzschild3":
        m = spec.params["m"]
        h = spec._h_table(r)
        hp = np.sqrt(1.0 - 2.0 * m / h)
        hpp = m / h ** 2
        return h, hp, hpp
    raise ValueError(f"unknown preset {pid!r}")


def radial_potential(spec, r):
    """Potential Phi(r) with Phi'(r) = 1/h(r).

    Anchoring conventions: euclidean and power use Phi(1) = 0 (giving
    ln r and (r^(1-p) - 1)/(1-p)); hyperbolic uses ln tanh(r/2); the
    table-backed presets use Phi(1) = 0 unless overridden.
    """
    r = np.asarray(r, dtype=float)
    _check_r_domain(spec, r)
    pid = spec.preset_id
    if pid == "euclidean":
        return np.log(r)
    if pid == "hyperbolic":
        # ln tanh(r/2) = log1p(-2 e^-r / (1 + e^-r)); immune to tanh -> 1
        t = np.exp(-r)
        return np.log1p(-2.0 * t / (1.0 + t))
    if pid == "power":
        p = spec.params["p"]
        if p == 1.0:
            return np.log(r)
        return (r ** (1.0 - p) - 1.0) / (1.0 - p)
    return spec._phi_table(r)


def phi_domain_violation(spec, phi):
    """Flat index of the first potential value outside the image of Phi, or None.

    Non-finite values count as outside.  This is where each preset's
    potential domain is stated: ``r_of_phi`` raises exactly when it is not
    None, and the flow reports the node it returns.
    """
    phi = np.asarray(phi, dtype=float)
    pid = spec.preset_id
    # each test is false on NaN; the bounds also shut out +-inf
    if pid in ("schwarzschild3", "saturating"):
        lo, hi = spec._phi_domain
        ok = (phi > lo) & (phi < hi)
    elif pid == "hyperbolic":
        ok = (phi < 0.0) & (phi > -math.inf)
    elif pid == "power" and spec.params["p"] != 1.0:
        ok = ((1.0 + (1.0 - spec.params["p"]) * phi > 0.0)
              & (phi > -math.inf))
    else:
        ok = np.isfinite(phi)
    if ok.all():
        return None
    return int((~ok).argmax())


def r_of_phi(spec, phi):
    """Invert the radial potential: returns r with Phi(r) = phi.

    Round-trips with ``radial_potential`` to ~1e-14 relative; values of phi
    outside the image of Phi (see ``phi_domain_violation``) raise
    WarpDomainError.
    """
    phi = np.asarray(phi, dtype=float)
    pid = spec.preset_id
    node = phi_domain_violation(spec, phi)
    if node is not None:
        raise WarpDomainError(
            f"potential {float(phi.flat[node])!r} outside the image of Phi for {pid}",
            node if phi.ndim else None)
    if pid == "euclidean":
        return np.exp(phi)
    if pid == "hyperbolic":
        # 2 artanh(e^phi) = log1p(e^phi) - log(-expm1(phi)), stable as phi -> 0-
        return np.log1p(np.exp(phi)) - np.log(-np.expm1(phi))
    if pid == "power":
        p = spec.params["p"]
        if p == 1.0:
            return np.exp(phi)
        return (1.0 + (1.0 - p) * phi) ** (1.0 / (1.0 - p))
    r = spec._r_of_phi_table(phi)
    # one Newton step against the forward table: dPhi/dr = 1/h
    if pid == "schwarzschild3":
        h = spec._h_table(r)
    else:
        a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
        h = _saturating_h(a, b, k, r)
    r = r - (spec._phi_table(r) - phi) * h
    return r


def warp_at_phi(spec, phi):
    """Fused hot-path evaluation: phi -> (r, h, h', h'')."""
    r = r_of_phi(spec, phi)
    h, hp, hpp = eval_warp(spec, r)
    return r, h, hp, hpp


def hp_at_phi(spec, phi):
    """h'(r(phi)) alone, raising WarpDomainError exactly where warp_at_phi does.

    The flat presets (euclidean, power with p = 1) have h' = 1: for them the
    domain check runs on r = e^phi (non-finite phi fails it as well) and the
    float 1.0 is returned, which broadcasts like warp_at_phi's array of ones
    and gives the same products bit for bit.  Other presets go through
    warp_at_phi.
    """
    pid = spec.preset_id
    if pid == "euclidean" or (pid == "power" and spec.params["p"] == 1.0):
        _check_r_domain(spec, np.exp(phi))
        return 1.0
    return warp_at_phi(spec, phi)[2]


def r_at_h(spec, h_target):
    """Radius at which the warping factor reaches ``h_target`` (h is monotone)."""
    lo, hi = spec.r_domain
    lo = max(lo, 1e-12) + 1e-15
    if math.isinf(hi):
        hi = 1.0
        while float(eval_warp(spec, hi)[0]) < h_target:
            hi *= 2.0
            if hi > 1e30:
                raise WarpDomainError(f"h never reaches {h_target}")
    else:
        hi = hi * (1.0 - 1e-12)
    h_lo = float(eval_warp(spec, lo)[0])
    if h_lo >= h_target:
        if abs(h_lo - h_target) / max(h_target, 1.0) < 1e-9:
            return lo
        raise WarpDomainError(f"h >= {h_target} on the whole domain")
    return brentq(lambda r: float(eval_warp(spec, r)[0]) - h_target, lo, hi,
                  xtol=1e-14, rtol=1e-15)


class ConditionReport:
    """Which convexity/boundedness conditions a warp satisfies on an interval.

    Flags
    -----
    c1_weak : h' > 0 and h'' >= 0
    c1_strict : h' > 0, h'' > 0 and h h'' - h'^2 + rho >= 0
    c5_bounded : C >= h' > 0 and C >= h^(1+alpha) h'' >= 0 for the supplied C, alpha
    """

    def __init__(self, c1_weak, c1_strict, c5_bounded, witnesses, interval, rho, C, alpha):
        self.c1_weak = c1_weak
        self.c1_strict = c1_strict
        self.c5_bounded = c5_bounded
        self.witnesses = witnesses
        self.interval = interval
        self.rho = rho
        self.C = C
        self.alpha = alpha

    def as_dict(self):
        return {
            "c1_weak": self.c1_weak,
            "c1_strict": self.c1_strict,
            "c5_bounded": self.c5_bounded,
            "witnesses": self.witnesses,
            "interval": list(self.interval),
            "rho": self.rho,
            "C": self.C,
            "alpha": self.alpha,
        }

    def __repr__(self):
        return (f"ConditionReport(c1_weak={self.c1_weak}, c1_strict={self.c1_strict}, "
                f"c5_bounded={self.c5_bounded})")


# strict sign tolerance: quantities produced through splines wobble at the
# rounding floor, honest zeros (h''=0 for euclidean) must stay non-strict
_SIGN_TOL = 1e-13


def check_conditions(spec, interval, rho, C=math.inf, alpha=1.0, samples=10000):
    """Dense-sample the condition flags on a radius interval.

    The infimum-style flags are decided on >= ``samples`` points plus the
    interval endpoints; witnesses record the most violating radius for each
    flag that fails.
    """
    r_lo, r_hi = float(interval[0]), float(interval[1])
    if not (r_hi > r_lo):
        raise ValueError(f"empty interval [{r_lo}, {r_hi}]")
    lo, hi = spec.r_domain
    r_lo = max(r_lo, lo + (r_hi - r_lo) * 1e-12 + 1e-300)
    r = np.linspace(r_lo, min(r_hi, hi * (1 - 1e-12)), samples)
    h, hp, hpp = eval_warp(spec, r)
    scale = float(np.max(np.abs(hp))) + 1.0

    witnesses = {}

    def worst(flag, values, ok):
        # values < 0 are violations; record argmin when any
        if ok:
            return True
        witnesses[flag] = float(r[int(np.argmin(values))])
        return False

    pos_hp = hp - _SIGN_TOL * scale
    weak_v = np.minimum(pos_hp, hpp + _SIGN_TOL * scale)
    c1_weak = worst("c1_weak", weak_v, bool(np.all(weak_v > 0.0)))

    strict_quad = h * hpp - hp ** 2 + rho
    strict_v = np.minimum(np.minimum(pos_hp, hpp - _SIGN_TOL * scale),
                          strict_quad + _SIGN_TOL * scale * scale)
    c1_strict = worst("c1_strict", strict_v, bool(np.all(strict_v > 0.0)))

    bounded_hpp = h ** (1.0 + alpha) * hpp
    c5_v = np.minimum(np.minimum(pos_hp, C - hp),
                      np.minimum(hpp + _SIGN_TOL * scale, C - bounded_hpp))
    c5_bounded = worst("c5_bounded", c5_v, bool(np.all(c5_v > 0.0)))

    return ConditionReport(c1_weak, c1_strict, c5_bounded, witnesses,
                           (r_lo, r_hi), rho, C, alpha)


def infimum_h0(spec, interval, samples=10000):
    """inf of h''(r)/h(r) over a radius interval.

    Dense sampling plus a local bounded refine around the best sample; exact
    at the endpoints for monotone integrands.
    """
    r_lo, r_hi = float(interval[0]), float(interval[1])
    lo, hi = spec.r_domain
    r_lo = max(r_lo, lo + 1e-12)
    r_hi = min(r_hi, hi * (1 - 1e-12)) if not math.isinf(hi) else r_hi
    r = np.linspace(r_lo, r_hi, samples)
    h, _, hpp = eval_warp(spec, r)
    q = hpp / h
    i = int(np.argmin(q))
    best = float(q[i])
    a = r[max(i - 1, 0)]
    b = r[min(i + 1, samples - 1)]
    if b > a:
        def f(x):
            hh, _, hh2 = eval_warp(spec, x)
            return float(hh2 / hh)
        res = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun < best:
            best = float(res.fun)
    return best
