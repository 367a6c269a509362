"""Warping factors h(r) for rotationally symmetric ambient metrics.

The ambient space is a warped product N x_h (0, r_max) with metric
dr^2 + h(r)^2 sigma.  Everything downstream needs fast pointwise access to
(h, h', h'') along with the radial potential

    Phi(r) = int dr / h(r),

whose inverse converts the evolving graph variable phi back to a radius.
Presets cover the closed-form model geometries.  hyperbolic, power and
schwarzschild3 have h' in closed form in the potential (-1/tanh(phi),
p / (1 + (1-p) phi), tanh(v/2) with h = 2m cosh^2(v/2) and Phi = v + c),
so their stage path needs no radius.  Only saturating's potential is a
quadrature, tabulated once: Phi at 4096 knots by Gauss-Legendre, then Phi(r)
and r(Phi) as quintic Hermite pieces with exact first and second derivatives.

Every preset, its tables and ``r_at_h`` (a Newton solve) need numpy alone.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WarpSpec",
    "WarpDomainError",
    "ConditionReport",
    "make_warp",
    "eval_warp",
    "radial_potential",
    "r_of_phi",
    "warp_at_phi",
    "field_hp",
    "scalar_speed",
    "phi_domain_violation",
    "r_at_h",
    "q",
    "check_conditions",
    "infimum_h0",
    "PRESETS",
]

# e^phi lies in (0, inf) exactly for _EXP_LO < phi < _EXP_HI: below, np.exp
# and math.exp underflow to 0; above, they overflow
_EXP_LO, _EXP_HI = -745.1332191019412, 709.7827128933841
_FLOAT_MAX = float(np.finfo(float).max)


# an array's extremes read at the flat index of argmin (argmax), a third of
# np.minimum.reduce's cost on a stage's arrays: on NaN the first NaN, which
# fails every comparison as the reduction's does; of a 0.0/-0.0 tie the
# first, which compares as the other does
def _min(x):
    return x.item(x.argmin())


def _max(x):
    return x.item(x.argmax())


class WarpDomainError(ValueError):
    """Radius or potential value outside the valid domain of a warp.

    ``node`` is the flat index of the first offending value when the input
    was an array, None for scalar input.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class _HermiteTable:
    """Piecewise quintic Hermite table with a cheap vectorized evaluator.

    Piece i is the quintic that takes the values y, slopes dy and second
    derivatives d2y given at its two knots: sixth order with exact ones, and
    no linear system ties the pieces together.  Evaluation is searchsorted
    plus Horner on our own arrays, since a generic piecewise-polynomial call
    carries enough per-call overhead to dominate the single-node flow.
    Column i of ``rows`` holds piece i's left knot, then its six
    coefficients, highest power first, so one take gathers a piece.
    """

    def __init__(self, x, y, dy, d2y):
        dx = np.diff(x)
        s = np.diff(y) / dx
        d0, d1, e0, e1 = dy[:-1], dy[1:], d2y[:-1], d2y[1:]
        # in t = xq - x[i]: y0 + d0 t + e0 t^2 / 2 and the t^3, t^4, t^5
        # terms that meet y, dy and d2y at the right knot, s the secant slope
        c5 = (6.0 * s - 3.0 * (d0 + d1)) / dx ** 4 + 0.5 * (e1 - e0) / dx ** 3
        c4 = (8.0 * d0 + 7.0 * d1 - 15.0 * s) / dx ** 3 + (1.5 * e0 - e1) / dx ** 2
        c3 = (10.0 * s - 6.0 * d0 - 4.0 * d1) / dx ** 2 + (0.5 * e1 - 1.5 * e0) / dx
        self.x, self.rows = x, np.vstack([x[:-1], c5, c4, c3, 0.5 * e0, d0, y[:-1]])
        self._last_seg = len(x) - 2

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        return self.at(self.segment(xq), xq)

    def segment(self, xq):
        """Index of the polynomial piece each of the points xq falls in."""
        idx = self.x.searchsorted(xq) - 1
        return np.minimum(np.maximum(idx, 0), self._last_seg)

    def at(self, idx, xq):
        """The quintic of piece idx at xq by Horner's rule in t = xq - left
        knot, in place after the first product (the same roundings without
        the temporaries)."""
        cols = self.rows.take(idx, axis=1)
        t = xq - cols[0]
        out = cols[1] * t
        for c in cols[2:6]:
            out += c
            out *= t
        out += cols[6]
        return out


class WarpSpec:
    """One warping factor: preset id, parameters and domains.

    Instances are immutable by convention.  The additive constant of the
    radial potential is a per-preset convention (see ``radial_potential``)
    and can be overridden with the parameters ``phi_r0`` / ``phi0``.
    """

    def __init__(self, preset_id, params, r_domain):
        self.preset_id = preset_id
        self.params = dict(params)
        self.r_domain = tuple(r_domain)     # valid radii, an open interval
        # saturating fills these in make_warp
        self._phi_table = None      # Phi(r)
        self._r_of_phi_table = None  # r(Phi)
        # schwarzschild3: the potential at r = 0, where h = 3m
        self._phi_lo = None
        # valid potentials, an open interval
        self._phi_domain = (_EXP_LO, _EXP_HI)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"WarpSpec({self.preset_id}, {ps})"


PRESETS = {
    "euclidean": {
        "params": {},
        "summary": "h(r) = r; flat ambient space",
        "conditions": "q = h h'' - h'^2 = -1; weak convexity only (h'' = 0); bounded-derivative family",
    },
    "hyperbolic": {
        "params": {},
        "summary": "h(r) = sinh r; constant curvature -1",
        "conditions": "q = -1; strict convexity for rho >= 1; h' unbounded, outside "
                      "the bounded-derivative family",
    },
    "schwarzschild3": {
        "params": {"m": "mass > 0", "r_max": "radius-domain extent (default 2000)",
                   "phi0": "potential at phi_r0 (default 0)",
                   "phi_r0": "radius where the potential is phi0 (default 1)"},
        "summary": "n = 3 exterior region: h' = sqrt(1 - 2m/h), closed form h' = tanh(v/2) in the potential",
        "conditions": "q = 3m/h - 1; strict convexity for rho >= 1 - 3m/h; "
                      "bounded-derivative family (alpha <= 1)",
    },
    "saturating": {
        "params": {"a": "limit slope, a > b > 0", "b": "slope deficit", "k": "decay power > 0",
                   "r_max": "radius-domain extent (default 1e4)",
                   "phi0": "potential at phi_r0 (default 0)",
                   "phi_r0": "radius where the potential is phi0 (default 1)"},
        "summary": "h'(r) = a - b (1+r)^(-k), h(0) = 1",
        "conditions": "q falls from k b - (a-b)^2 at r = 0 towards -a^2; strict "
                      "convexity for rho >= -q; bounded-derivative family for alpha <= k",
    },
    "power": {
        "params": {"p": "exponent >= 1"},
        "summary": "h(r) = r^p",
        "conditions": "q = -p r^(2p-2); weak convexity; strict only for p > 1 and "
                      "rho >= p r^(2p-2); h' unbounded for p > 1",
    },
}


# schwarzschild3 with h = 2m cosh^2(v/2): h' = tanh(v/2) and dr = h dv, so
# the potential is v plus a constant; h(0) = 3m puts r = 0 at v0 = arccosh 2
_SW_V0 = math.acosh(2.0)
_SW_SINH_V0 = math.sqrt(3.0)


def _sw_r(m, w):
    """schwarzschild3 radius at w = v - v0 = phi - phi_lo.

    r = m (v + sinh v) - m (v0 + sinh v0), with sinh v - sinh v0 written as
    a product, which does not cancel as w -> 0.
    """
    return m * (w + 2.0 * np.cosh(_SW_V0 + 0.5 * w) * np.sinh(0.5 * w))


def _sw_hp(w):
    """schwarzschild3 h' = tanh(v/2) at w = v - v0."""
    return np.tanh(0.5 * (_SW_V0 + w))


def _sw_warp(m, w):
    """schwarzschild3 (r, h, h', h'') at w = v - v0: h = m (1 + cosh v) and
    h'' = m / h^2."""
    h = m * (1.0 + np.cosh(_SW_V0 + w))
    return _sw_r(m, w), h, _sw_hp(w), m / h ** 2


def _sw_w_of_r(m, r):
    """w = v - v0 at radii r >= 0: Newton's method on _sw_r, whose slope in
    w is h.  r is convex in w, and the start, where sinh v alone reaches
    r/m + v0 + sinh v0, lies right of the root, so the iterates fall
    monotonically onto it."""
    w = np.arcsinh(r / m + (_SW_V0 + _SW_SINH_V0)) - _SW_V0
    for _ in range(100):
        step = (_sw_r(m, w) - r) / (m * (1.0 + np.cosh(_SW_V0 + w)))
        w = w - step
        if not np.any(np.abs(step) > 4.0 * np.finfo(float).eps * w):
            break
    return w


def _build_tables(spec):
    """Tabulate saturating's Phi = int dr / h on a geometric grid, and its
    inverse, as quintic Hermite tables with the exact derivatives
    Phi' = 1/h, Phi'' = -h'/h^2 and r' = h, r'' = h h'."""
    from numpy.polynomial.legendre import leggauss
    r_lo, r_max = spec.r_domain
    a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
    # 4096 nodes: 0 at the left edge, then geometric spacing, which clusters
    # them where Phi bends fastest
    nodes = np.concatenate(([0.0], np.geomspace(r_max * 1e-7, r_max, 4095)))
    # 8-point Gauss-Legendre on every interval between nodes, summed up
    g, wg = leggauss(8)
    mid, half = 0.5 * (nodes[1:] + nodes[:-1]), 0.5 * np.diff(nodes)
    steps = half * (1.0 / _saturating_h(a, b, k, mid[:, None] + half[:, None] * g) @ wg)
    phi_vals = np.concatenate(([0.0], np.cumsum(steps)))
    h, hp = _saturating_h(a, b, k, nodes), _hp(spec, nodes)
    # shift so Phi(phi_r0) = phi0
    phi_r0 = spec.params.get("phi_r0", r_lo + 1.0)
    phi0 = spec.params.get("phi0", 0.0)
    # anchor through the table itself, so Phi(phi_r0) = phi0 on the table
    shift = float(_HermiteTable(nodes, phi_vals, 1.0 / h, -hp / h ** 2)(phi_r0))
    phi_vals = phi_vals - shift + phi0
    spec._phi_table = _HermiteTable(nodes, phi_vals, 1.0 / h, -hp / h ** 2)
    spec._r_of_phi_table = _HermiteTable(phi_vals, nodes, h, h * hp)
    spec._phi_domain = (float(phi_vals[0]), float(phi_vals[-1]))


def make_warp(preset_id, **params):
    """Construct a WarpSpec for one of the named presets.

    Raises ValueError on an unknown preset, on a parameter the preset does
    not list in ``PRESETS`` and on parameter values outside its range.
    """
    if preset_id not in PRESETS:
        raise ValueError(f"unknown warp preset {preset_id!r}")
    known = PRESETS[preset_id]["params"]
    for name in params:
        if name not in known:
            raise ValueError(f"{preset_id} preset has no parameter {name!r} "
                             f"(known: {', '.join(known) or 'none'})")
    if preset_id == "euclidean":
        return WarpSpec("euclidean", params, (0.0, math.inf))
    if preset_id == "hyperbolic":
        # r ~ 2 e^phi > 0 down to e^phi's underflow; cosh r overflows at
        # r = acosh(FLOAT_MAX), and h' = -1/tanh(phi) at phi = -1/FLOAT_MAX
        spec = WarpSpec("hyperbolic", params, (0.0, math.inf))
        _derive_domains(spec, -1.0, r_good=1.0, r_near=(0.0, math.acosh(_FLOAT_MAX)),
                        phi_near=(_EXP_LO, -1.0 / _FLOAT_MAX))
        return spec
    if preset_id == "power":
        p = float(params.get("p", 1.0))
        if p < 1.0:
            raise ValueError(f"power preset needs p >= 1, got {p}")
        params = dict(params, p=p)
        spec = WarpSpec("power", params, (0.0, math.inf))
        if p != 1.0:
            # r = b^(1/(1-p)), b = 1 + (1-p) phi, rises with phi up to the
            # pole b = 0, past which pow can be positive again (p = 1.5)
            q = 1.0 - p
            pole = _first_outside(lambda phi: 1.0 + q * phi > 0.0, 0.0, math.inf, 1.0 / -q)
            # h = r^p underflows below r = 2^(-1075/p) and overflows above
            # FLOAT_MAX^(1/p); for p < 2 h'' overflows below about FLOAT_MAX^(1/(p-2))
            r_lo = max(2.0 ** (-1075.0 / p), _FLOAT_MAX ** (1.0 / (p - 2.0)) if p < 2.0 else 0.0)
            phi_lo = (math.exp(min(q * math.log(r_lo), 709.0)) - 1.0) / q
            _derive_domains(spec, 0.0, r_good=1.0, phi_bad=pole,
                            r_near=(r_lo, _FLOAT_MAX ** (1.0 / p)), phi_near=(phi_lo, pole))
        return spec
    if preset_id == "schwarzschild3":
        m = float(params.get("m", 0.5))
        if m <= 0:
            raise ValueError(f"schwarzschild3 preset needs m > 0, got {m}")
        r_max = float(params.get("r_max", 2000.0))
        params = dict(params, m=m, r_max=r_max)
        spec = WarpSpec("schwarzschild3", params, (0.0, r_max))
        # Phi(phi_r0) = phi0; r runs from 0 at phi_lo to r_max at
        # phi_lo + w(r_max)
        phi_lo = spec._phi_lo = (params.get("phi0", 0.0)
                                 - float(_sw_w_of_r(m, params.get("phi_r0", 1.0))))
        _derive_domains(spec, phi_lo + float(_sw_w_of_r(m, 0.5 * r_max)),
                        phi_near=(phi_lo, phi_lo + float(_sw_w_of_r(m, r_max))))
        return spec
    a = float(params.get("a", 2.0))
    b = float(params.get("b", 1.0))
    k = float(params.get("k", 1.0))
    if not (a > b > 0.0 and k > 0.0):
        raise ValueError(f"saturating preset needs a > b > 0 and k > 0, got a={a} b={b} k={k}")
    r_max = float(params.get("r_max", 1e4))
    params = dict(params, a=a, b=b, k=k, r_max=r_max)
    spec = WarpSpec("saturating", params, (0.0, r_max))
    _build_tables(spec)
    return spec


def _first_outside(inside, good, bad, near=None):
    """The first float x from ``good`` towards ``bad`` on which
    ``inside(x)`` fails, for a test that holds on good and, once it fails,
    fails all the way to bad: bisection on integer keys that order like the
    floats (-0.0 and 0.0 share 0), between the 2^16 floats round an
    estimate ``near`` of x when the test holds on the first and fails on
    the last of them, which gives the same x."""
    def key(x):
        u = int(np.array(x, dtype=float).view(np.uint64))
        return u if u < 1 << 63 else (1 << 63) - u

    def value(k):
        u = k if k >= 0 else (1 << 63) - k
        return float(np.array(u, dtype=np.uint64).view(float))

    g, b = key(good), key(bad)
    if near is not None:
        w = 1 << 15 if b > g else -1 << 15
        n0, n1 = (sorted((g, key(near) + d, b))[1] for d in (-w, w))
        if inside(value(n0)) and not inside(value(n1)):
            g, b = n0, n1
    while abs(b - g) > 1:
        m = (g + b) // 2
        if inside(value(m)):
            g = m
        else:
            b = m
    return value(b)


def _valid(spec, r, h, hp, hpp):
    """The domain rule, one for every preset: a radius is valid when r, h,
    h' and h'' are finite, r, h and h' are positive, and r lies below r_max
    where the preset has one.  A potential is valid when its unchecked
    inverse is; each domain is one open interval."""
    return ((r > 0.0) & (r < spec.params.get("r_max", math.inf))
            & (h > 0.0) & (h < math.inf) & (hp > 0.0) & (hp < math.inf)
            & (abs(hpp) < math.inf))


def _derive_domains(spec, phi_good, r_good=None, phi_bad=math.inf,
                    r_near=(None, None), phi_near=(None, None)):
    """Set the potential domain (and from ``r_good`` the radius domain) to
    where the domain rule holds, searching from these valid values towards
    -inf and ``phi_bad`` (0 and inf), near any estimates of the (lower,
    upper) ends.  numpy's array loops and its scalars' C functions can
    differ in the last bit, so a one-element array and a scalar must pass."""
    def inside(values):
        return lambda x: all(bool(_valid(spec, *values(v)))
                             for v in (np.array([x]), np.float64(x)))

    with np.errstate(all="ignore"):
        if r_good is not None:
            valid_r = inside(lambda r: (r,) + _warp_at_r(spec, r))
            spec.r_domain = tuple(_first_outside(valid_r, r_good, end, near)
                                  for end, near in zip((0.0, math.inf), r_near))
        valid_phi = inside(lambda phi: _warp_at_phi(spec, phi))
        spec._phi_domain = tuple(_first_outside(valid_phi, phi_good, end, near)
                                 for end, near in zip((-math.inf, phi_bad), phi_near))


def _saturating_h(a, b, k, r):
    if k == 1.0:
        return 1.0 + a * r - b * np.log1p(r)
    return 1.0 + a * r + b / (k - 1.0) * ((1.0 + r) ** (1.0 - k) - 1.0)


def _checked(spec, x, domain, what):
    """x as a float array, once min and max of x lie in the open interval
    ``domain`` (NaN fails that too); else WarpDomainError naming the first
    node outside.  The one domain test of radii and potentials."""
    x = np.asarray(x, dtype=float)
    lo, hi = domain
    if x.ndim:
        if _min(x) > lo and _max(x) < hi:
            return x
    elif lo < x < hi:
        return x
    node = _node_outside(x, lo, hi)
    raise WarpDomainError(
        f"{what} {float(x.flat[node])!r} outside ({lo}, {hi}) for "
        f"{spec.preset_id}", node if x.ndim else None)


def _node_outside(x, lo, hi):
    """Flat index of the first value of the array x outside (lo, hi), or
    None: both tests are false on NaN, and the bounds shut out +-inf."""
    ok = (x > lo) & (x < hi)
    if ok.all():
        return None
    return int((~ok).argmax())


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
    return _warp_at_r(spec, _checked(spec, r, spec.r_domain, "radius"))


def _warp_at_r(spec, r):
    """(h, h', h'') at radii r inside the domain."""
    pid = spec.preset_id
    if _flat(spec):     # p (p-1) r^(p-2) = 0 * inf once 1/r overflows
        return r.copy(), np.ones_like(r), np.zeros_like(r)
    if pid == "hyperbolic":
        return np.sinh(r), _hp(spec, r), np.sinh(r)
    if pid == "power":
        p = spec.params["p"]
        return r ** p, _hp(spec, r), p * (p - 1.0) * r ** (p - 2.0)
    if pid == "saturating":
        a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
        hpp = k * b * (1.0 + r) ** (-k - 1.0)
        return _saturating_h(a, b, k, r), _hp(spec, r), hpp
    if pid == "schwarzschild3":
        m = spec.params["m"]
        return _sw_warp(m, _sw_w_of_r(m, r))[1:]
    raise ValueError(f"unknown preset {pid!r}")


def _hp(spec, r):
    """h'(r) of hyperbolic, power or saturating, for r inside its domain:
    the one statement of each h' formula."""
    pid = spec.preset_id
    if pid == "hyperbolic":
        return np.cosh(r)
    if pid == "power":
        p = spec.params["p"]
        return p * r ** (p - 1.0)
    a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
    return a - b * (1.0 + r) ** (-k)


def q(spec, r, h):
    """h h'' - h'^2 at radii r inside the domain, where h = h(r).

    Each preset states it in a form that does not cancel: -1 on the flat
    presets and hyperbolic, -p r^(2p-2) on power, 3m/h - 1 on
    schwarzschild3 (h'^2 = 1 - 2m/h).  On saturating h' and h h'' stay
    bounded, so the product form loses nothing.  q does not increase on
    any preset: its slope h h''' - h' h'' is 0, -2p (p-1) r^(2p-3),
    -3m h'/h^2, and negative on saturating, where h''' < 0.
    """
    pid = spec.preset_id
    if _flat(spec) or pid == "hyperbolic":
        return np.full(np.shape(h), -1.0)
    if pid == "power":
        p = spec.params["p"]
        return -p * r ** (2.0 * p - 2.0)
    if pid == "schwarzschild3":
        return 3.0 * spec.params["m"] / h - 1.0
    _, hp, hpp = _warp_at_r(spec, r)
    return h * hpp - hp ** 2


def radial_potential(spec, r):
    """Potential Phi(r) with Phi'(r) = 1/h(r).

    Anchoring conventions: euclidean and power use Phi(1) = 0 (giving
    ln r and (r^(1-p) - 1)/(1-p)); hyperbolic uses ln tanh(r/2);
    schwarzschild3 and saturating use Phi(1) = 0 unless overridden.
    """
    r = _checked(spec, r, spec.r_domain, "radius")
    pid = spec.preset_id
    if _flat(spec):
        return np.log(r)
    if pid == "hyperbolic":
        # ln tanh(r/2) = log1p(-2 e^-r / (1 + e^-r)) is immune to tanh -> 1
        # but cancels as r -> 0; below r = 1 tanh itself is accurate
        t = np.exp(-r)
        with np.errstate(divide="ignore"):
            return np.where(r < 1.0, np.log(np.tanh(0.5 * r)),
                            np.log1p(-2.0 * t / (1.0 + t)))[()]
    if pid == "power":
        p = spec.params["p"]
        return (r ** (1.0 - p) - 1.0) / (1.0 - p)
    if pid == "schwarzschild3":
        return spec._phi_lo + _sw_w_of_r(spec.params["m"], r)
    return spec._phi_table(r)


def phi_domain_violation(spec, phi):
    """Flat index of the first potential value outside the image of Phi, or None.

    Each preset's potential domain is the open interval ``spec._phi_domain``
    of the potentials whose unchecked inverse obeys the domain rule, ``_valid``:
    e^phi a positive float on the flat presets, the tables' ends on
    saturating, derived by ``_derive_domains`` on the others.  ``r_of_phi``
    raises exactly when this is not None, and the flow reports the node.
    """
    return _node_outside(np.asarray(phi, dtype=float), *spec._phi_domain)


def r_of_phi(spec, phi):
    """Invert the radial potential: returns r with Phi(r) = phi.

    Round-trips with ``radial_potential`` to ~1e-14 relative; values of phi
    outside the image of Phi (see ``phi_domain_violation``) raise
    WarpDomainError.
    """
    return _r_of_phi(spec, _checked(spec, phi, spec._phi_domain, "potential"))


def _r_of_phi(spec, phi):
    """r_of_phi without the domain check."""
    pid = spec.preset_id
    if _flat(spec):
        return np.exp(phi)
    if pid == "hyperbolic":
        # 2 artanh(e^phi) = log1p(e^phi) - log(-expm1(phi)) is stable as
        # phi -> 0-, log1p(2 e^phi / -expm1(phi)) below phi = -1, where the
        # first form rounds -expm1(phi) to 1
        x, em = np.exp(phi), -np.expm1(phi)
        with np.errstate(over="ignore"):
            return np.where(phi < -1.0, np.log1p(2.0 * x / em),
                            np.log1p(x) - np.log(em))[()]
    if pid == "power":
        p = spec.params["p"]
        return (1.0 + (1.0 - p) * phi) ** (1.0 / (1.0 - p))
    if pid == "schwarzschild3":
        return _sw_r(spec.params["m"], phi - spec._phi_lo)
    # saturating: one knot search and one Horner pass of the inverse table
    return spec._r_of_phi_table(phi)


def warp_at_phi(spec, phi):
    """Fused hot-path evaluation: phi -> (r, h, h', h''); the potential's
    test covers the radius, which obeys the domain rule (``_valid``)."""
    return _warp_at_phi(spec, _checked(spec, phi, spec._phi_domain, "potential"))


def _warp_at_phi(spec, phi):
    """warp_at_phi without the domain check; h' is field_hp's."""
    if spec.preset_id == "schwarzschild3":
        return _sw_warp(spec.params["m"], phi - spec._phi_lo)
    r = _r_of_phi(spec, phi)
    h, hp, hpp = _warp_at_r(spec, r)
    if spec.preset_id in ("hyperbolic", "power") and not _flat(spec):
        hp = field_hp(spec)[0](phi)
    return r, h, hp, hpp


def _flat(spec):
    """euclidean and power with p = 1, where h' = 1."""
    return spec.preset_id == "euclidean" or (
        spec.preset_id == "power" and spec.params["p"] == 1.0)


def field_hp(spec):
    """h'(r(phi)) with the preset resolved once: (hp, lo, hi), where hp
    gives h' of potentials inside the open interval (lo, hi) and tests
    nothing.  The caller tests lo < min and max < hi, as ``_checked`` does;
    the time stepper resolves this once per run, and ``warp_at_phi(spec,
    phi)[2]`` is the same h', bit for bit, behind that test.  The flat
    presets return the float 1.0, which broadcasts like warp_at_phi's array
    of ones and gives the same products bit for bit; hyperbolic, power and
    schwarzschild3 take h' in closed form in phi, with no radius.
    saturating inverts phi, then evaluates h' only."""
    lo, hi = spec._phi_domain
    if _flat(spec):
        return (lambda phi: 1.0), lo, hi
    if spec.preset_id == "schwarzschild3":
        phi_lo = spec._phi_lo
        return (lambda phi: _sw_hp(phi - phi_lo)), lo, hi
    if spec.preset_id == "hyperbolic":
        # cosh r = (1 + T^2) / (1 - T^2) = -1/tanh(phi) for phi = ln T, T = tanh(r/2)
        return (lambda phi: -1.0 / np.tanh(phi)), lo, hi
    if spec.preset_id == "power":
        # r^(1-p) = 1 + (1-p) phi, and h' = p r^(p-1)
        p, q = spec.params["p"], 1.0 - spec.params["p"]
        return (lambda phi: p / (1.0 + q * phi)), lo, hi
    return (lambda phi: _hp(spec, spec._r_of_phi_table(phi))), lo, hi


@functools.lru_cache(maxsize=16)
def scalar_speed(spec, nm1):
    """Float speed of round slices, ``speed(phi) = 1/(nm1 h'(r(phi)))``,
    and the open interval (lo, hi) where the point state is valid.

    On the point base the flow is the ODE d phi/dt = 1/((n-1) h'(r(phi)))
    and array costs dominate, so each (spec, nm1) gets one float formula,
    built once, which tests nothing: the caller tests lo < phi < hi.  That
    is the potential domain (``phi_domain_violation``), cut where F = nm1 h'
    overflows, by bisection where h' is unbounded (hyperbolic and power
    p > 1), an upper interval since h' rises with phi.  Every preset takes
    the steps of field_hp and of the point base's 1/F, 1/(nm1 h'), on plain
    floats.  hyperbolic calls math.tanh, whose bits can differ from numpy's
    in the last place; schwarzschild3 calls numpy's tanh on the float,
    which gives its array loop's bits.  saturating's closure holds the
    inverse table's knots and piece coefficients as float lists and makes
    segment's search and at's Horner pass inline: the piece of the previous
    call is this call's guess, kept when segment's own rule holds it
    (x[i] < phi <= x[i+1], with no lower bound on the first piece and no
    upper bound on the last), else bisect finds it, so no value depends on
    the order of calls.
    """
    pid = spec.preset_id
    lo, hi = spec._phi_domain
    if _flat(spec):
        c = 1.0 / nm1
        return (lambda phi: c), lo, hi
    if pid in ("hyperbolic", "power"):
        hp = field_hp(spec)[0]

        def finite(phi):     # the search probes inside the domain only
            return bool(np.isfinite(nm1 * hp(np.array([phi]))).all())
        with np.errstate(over="ignore"):
            hi = _first_outside(finite, float(np.nextafter(lo, hi)), hi)
    if pid == "hyperbolic":
        return (lambda phi: 1.0 / (nm1 * (-1.0 / math.tanh(phi)))), lo, hi
    if pid == "power":
        p, q = spec.params["p"], 1.0 - spec.params["p"]
        return (lambda phi: 1.0 / (nm1 * (p / (1.0 + q * phi)))), lo, hi
    if pid == "schwarzschild3":
        # _sw_hp(phi - phi_lo), its operations in its order
        tanh, v0, phi_lo = np.tanh, _SW_V0, spec._phi_lo
        return (lambda phi: 1.0 / (nm1 * float(tanh(0.5 * (v0 + (phi - phi_lo)))))), lo, hi
    table = spec._r_of_phi_table
    x, pieces, top = table.x.tolist(), table.rows[1:].T.tolist(), table._last_seg
    a, b, mk = spec.params["a"], spec.params["b"], -spec.params["k"]
    i = 0

    def speed(phi):
        nonlocal i
        if not ((i == 0 or x[i] < phi) and (i == top or phi <= x[i + 1])):
            i = bisect.bisect_left(x, phi) - 1
            i = 0 if i < 0 else top if i > top else i
        c5, c4, c3, c2, c1, c0 = pieces[i]
        t = phi - x[i]
        r = ((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0
        return 1.0 / (nm1 * (a - b * (1.0 + r) ** mk))
    return speed, lo, hi


def r_at_h(spec, h_target):
    """Radius at which the warping factor reaches ``h_target``.

    Every preset has h' > 0 and h'' >= 0, so Newton steps that start right
    of the root fall monotonically onto it.  The start doubles from r = 1
    up to the top of the radius domain, its end (1 - 1e-12) or the largest
    float, where h and h' are finite by the domain rule; the steps stop at
    the first one that does not lower r.  A target h does not reach inside
    the domain raises WarpDomainError.
    """
    lo, hi = spec.r_domain
    lo = max(lo, 1e-12) + 1e-15     # the lower end is below 1 on every preset
    top = min(hi * (1.0 - 1e-12), _FLOAT_MAX)
    h_lo = float(eval_warp(spec, lo)[0])
    if h_lo >= h_target:
        if abs(h_lo - h_target) / max(h_target, 1.0) < 1e-9:
            return lo
        raise WarpDomainError(f"h >= {h_lo} > {h_target} on the whole domain")
    r = min(1.0, top)
    while True:
        h, hp, _ = (float(v) for v in eval_warp(spec, r))
        if h >= h_target:
            break
        if r == top:
            raise WarpDomainError(f"h <= {h} < {h_target} up to r = {top}")
        r = min(2.0 * r, top)
    while True:
        r_next = r - (h - h_target) / hp
        if not r_next < r:
            # r rounded onto the root, or (after a rounding in the first
            # long step) just below it, which this step corrects
            return r_next
        r = r_next
        h, hp, _ = (float(v) for v in eval_warp(spec, r))


@dataclass
class ConditionReport:
    """Which convexity/boundedness conditions a warp satisfies on an interval.

    Flags
    -----
    c1_weak : h' > 0 and h'' >= 0
    c1_strict : h' > 0, h'' > 0 and h h'' - h'^2 + rho >= 0
    c5_bounded : h' and h^(1+alpha) h'' bounded as r grows (Euclidean asymptotics)

    ``witnesses`` maps each flag that fails to its most violating radius.
    """

    c1_weak: bool
    c1_strict: bool
    c5_bounded: bool
    witnesses: dict


def check_conditions(spec, interval, rho, alpha=1.0):
    """The condition flags on a radius interval, each from a preset fact.

    h' > 0 is the domain rule and every preset has h'' >= 0, so c1_weak
    holds on every interval.  h'' > 0 except on the flat presets, and
    q = h h'' - h'^2 does not increase, so c1_strict is decided at the top
    of the interval, the one radius evaluated.  c5_bounded holds for every
    alpha where h'' = 0 (flat), alpha <= 1 on schwarzschild3 (m h^(alpha-1))
    and alpha <= k on saturating (~ r^(alpha-k)); h' is unbounded on
    hyperbolic and power p > 1.  Its witness is the top, where h' grows.
    """
    r_lo, r_hi = float(interval[0]), float(interval[1])
    if not (r_hi >= r_lo):
        raise ValueError(f"reversed or NaN interval [{r_lo}, {r_hi}]")
    top = min(r_hi, spec.r_domain[1] * (1 - 1e-12))
    flat, pid, r = _flat(spec), spec.preset_id, np.array([top])
    c1_strict = not flat and bool(q(spec, r, eval_warp(spec, r)[0])[0] + rho >= 0)
    alpha_max = (math.inf if flat else 1.0 if pid == "schwarzschild3"
                 else spec.params["k"] if pid == "saturating" else -math.inf)
    c5_bounded = bool(alpha <= alpha_max)
    witnesses = {}
    if not c1_strict:
        witnesses["c1_strict"] = r_lo if flat else top
    if not c5_bounded:
        witnesses["c5_bounded"] = top
    return ConditionReport(True, c1_strict, c5_bounded, witnesses)


def infimum_h0(spec, interval):
    """inf of h''(r)/h(r) over a radius interval.

    On every preset h''/h does not increase (0, 1, p (p-1)/r^2, m/h^3 and
    k b (1+r)^(-k-1)/h), so this is its value at the top of the interval.
    """
    r_hi = min(float(interval[1]), spec.r_domain[1] * (1 - 1e-12))
    # a one-element array takes the ufunc loops of the dense samples it replaces
    h, _, hpp = eval_warp(spec, np.array([r_hi]))
    return float(hpp[0] / h[0])
