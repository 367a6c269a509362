"""Pointwise extrinsic geometry of starshaped graphs.

A state is the radial potential field phi = Phi(r) on the base N at one
time.  With Theta = (1 + |D phi|^2)^(-1/2) the graph over N in the warped
product carries

    induced metric   g_ij  = h^2 (sigma_ij + phi_i phi_j)
    inverse          g^ij  = h^-2 (sigma^ij - Theta^2 phi^i phi^j)
    shape operator   S^i_j = -(Theta/h) (st^ik phi_kj - h' delta^i_j)
    mean curvature   H     = -(Theta/h) (st^ij phi_ij - (n-1) h')
    speed weight     F     = H h Theta = Theta^2 ((n-1) h' - st^ij phi_ij)

where st^ij = sigma^ij - Theta^2 phi^i phi^j.  All index juggling uses the
base metric sigma, which is diagonal for every supported base; the ambient
Ricci terms come from the warped-product splitting
Ric = Ric_N - (h h'' + (n-2) h'^2) sigma - (n-1) (h''/h) dr^2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import warp as _warp
from .manifold import _constant
from .warp import _max, _min

__all__ = [
    "GraphState", "GeometrySnapshot", "snapshot", "speed_kernel",
    "StageBuffers", "stage_buffers", "embedding_oracle_H",
    "OracleUnsupportedError",
]


class OracleUnsupportedError(ValueError):
    """Embedding cross-check only exists for flat ambient space over 1d grids."""


@dataclass
class GraphState:
    """Graph hypersurface at one time: potential field phi over a base."""

    base: object
    warp: object
    phi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.phi = self.base.check_field(self.phi)

    @property
    def n(self):
        return self.base.d + 1

    def radius(self):
        return _warp.r_of_phi(self.warp, self.phi)

    @classmethod
    def from_radius(cls, base, warp_spec, r, t=0.0):
        r = base.check_field(r)
        return cls(base, warp_spec, _warp.radial_potential(warp_spec, r), t)


def _light_fields(state):
    """r, h, h', h'', Theta, Theta^2, dphi2, F and the grad/hess/sinv arrays.

    What snapshot extends; the time stepper calls the speed kernel
    alone.  Exploits the diagonal sigma.
    Returns a dict so the full snapshot can extend it without recomputing.
    """
    base = state.base
    r, h, hp, hpp = _warp.warp_at_phi(state.warp, state.phi)
    F, theta2, dphi2, diffs = speed_kernel(base)(state.phi, hp)
    grad, hess = base.assemble(diffs)
    return dict(r=r, h=h, hp=hp, hpp=hpp, theta=np.sqrt(theta2), theta2=theta2,
                dphi2=dphi2, F=F, grad=grad, hess=hess, sinv=base.sigma_inv_diag())


# 1.0 of the kernels and flow._evaluate, as a 0-d operand
_ONE = _constant(1.0)

# One set of arrays a stage evaluation writes in place of allocating: the
# base's stencil_buffers(), then arrays of the grid shape.  k holds 1/F for
# the time stepper; the kernels also use it, F and scratch for their
# intermediate terms before those hold their own values.
StageBuffers = namedtuple("StageBuffers", "stencil dphi2 theta2 F k scratch")


def stage_buffers(base):
    """A new StageBuffers set for the speed kernel of a field base."""
    return StageBuffers(base.stencil_buffers(),
                        *(np.empty(base.shape) for _ in range(5)))


def speed_kernel(base):
    """The speed kernel of a base: kernel(phi, hp, out=None) gives
    (F, Theta^2, |D phi|^2, differences of phi) of a state from phi and h',
    out a StageBuffers set or None.

    The one F formula of every base, with the base's constants bound.  The
    time stepper builds the kernel once per run and calls it for every
    stage with a StageBuffers set; _light_fields (so snapshot) builds it
    for every recorded state and calls it with out=None, which gives new
    arrays.  With a set every array the kernel returns is one of the set's,
    written in place by the operations, in the order, of the allocating
    path; the bits agree.  The point base has no derivatives (F = d h',
    Theta = 1, no differences) and takes no set.
    """
    if base.kind == "torus2":
        return _kernel_2d(base)
    if base.dc:
        return _kernel_1d(base)

    def point(phi, hp, out=None):
        one = np.ones(base.shape)
        return one * (base.d * hp), one, np.zeros(base.shape), ()
    return point


def _kernel_1d(base):
    """The speed kernel of the circle and the axisphere.

    Only theta-derivatives exist here, so the contractions of the generic
    formula collapse to
    st^ij phi_ij = phi_tt [+ sin^-2 sin cos phi_t] - Theta^2 phi_t^2 phi_tt
    (the bracket is the axisphere's azimuthal Christoffel term).  The
    operations run in the order of numpy's einsum over the full gradient
    and Hessian arrays, so F and Theta^2 agree with it bit for bit.
    """
    differences, d = base.differences, base.d
    axisphere = base.kind == "axisphere"
    sin_inv2, sincos = (base.sin_inv2, base.sincos) if axisphere else (None, None)
    mul, add, sub, div, one = np.multiply, np.add, np.subtract, np.divide, _ONE

    def kernel(phi, hp, out=None):
        stencil, dphi2, theta2, F, _, S = out or (None,) * 6
        diffs = g, d2 = differences(phi, stencil)
        dphi2 = mul(g, g, out=dphi2)
        theta2 = add(one, dphi2, out=theta2)
        div(one, theta2, out=theta2)
        if axisphere:
            S = mul(sincos, g, out=S)
            mul(sin_inv2, S, out=S)
            add(d2, S, out=S)
            # theta2 (dphi2 d2) in F's array, which is written last
            curv = mul(dphi2, d2, out=F)
            mul(theta2, curv, out=curv)
            sub(S, curv, out=S)
        else:
            S = mul(dphi2, d2, out=S)
            mul(theta2, S, out=S)
            sub(d2, S, out=S)
        sub(d * hp, S, out=S)
        return mul(theta2, S, out=F), theta2, dphi2, diffs
    return kernel


def _kernel_2d(base):
    """The speed kernel of the flat torus.

    sigma is the identity, so
    st^ij phi_ij = phi_00 + phi_11 - Theta^2 phi^i phi^j phi_ij, with the
    four products summed in einsum's (i, j) order; the two mixed ones are
    equal (float * commutes), so one is formed and added twice.  With a
    set, phi_0^2 and its sum sit in F's array, phi_1^2 in k's and the mixed
    product in scratch until st^ij phi_ij takes it.
    """
    differences, d = base.differences, base.d
    mul, add, sub, div, one = np.multiply, np.add, np.subtract, np.divide, _ONE

    def kernel(phi, hp, out=None):
        stencil, dphi2, theta2, F, k, S = out or (None,) * 6
        diffs = g0, g1, h00, h11, h01 = differences(phi, stencil)
        g00 = mul(g0, g0, out=F)
        g11 = mul(g1, g1, out=k)
        dphi2 = add(g00, g11, out=dphi2)
        theta2 = add(one, dphi2, out=theta2)
        div(one, theta2, out=theta2)
        mixed = mul(g0, g1, out=S)
        mul(mixed, h01, out=mixed)
        total = mul(g00, h00, out=g00)
        add(total, mixed, out=total)
        add(total, mixed, out=total)
        add(total, mul(g11, h11, out=g11), out=total)
        mul(theta2, total, out=total)
        S = add(h00, h11, out=S)
        sub(S, total, out=S)
        sub(d * hp, S, out=S)
        return mul(theta2, S, out=F), theta2, dphi2, diffs
    return kernel


@dataclass
class GeometrySnapshot:
    """All pointwise geometric fields of a graph state at one time.

    snapshot computes the fields a trace row reads (H, omega, A2 and those
    of _light_fields) and shape; u, Kh, ric_dphi, ric_rr and ric_vv are
    derived from them, the base and the warp on first read and then kept
    (functools.cached_property), under the numpy error state (np.geterr)
    of the snapshot's making, so they warn as they would have there.
    """

    t: float
    n: int
    base: object
    warp: object
    r: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    dphi2: np.ndarray
    theta: np.ndarray
    F: np.ndarray
    H: np.ndarray
    omega: np.ndarray
    shape: np.ndarray
    A2: np.ndarray
    errstate: dict = field(repr=False)

    @cached_property
    def u(self):
        """1/(H omega), NaN wherever H <= 0 rather than a signed infinity."""
        with np.errstate(**self.errstate), \
                np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.H > 0.0, 1.0 / (self.H * self.omega), np.nan)

    @cached_property
    def ric_dphi(self):
        if self.base.dc == 0:
            return np.zeros(self.base.shape)
        with np.errstate(**self.errstate):
            return self.base.ricci_dphi(self.grad)

    @cached_property
    def Kh(self):
        with np.errstate(**self.errstate):
            q = (self.n - 2) * _warp.q(self.warp, self.r, self.h)
            if self.base.dc == 0:
                return q
            # direction-restricted base Ricci; zero-gradient nodes use the
            # slice convention (radial direction degenerates, term drops)
            dphi2, ric_dphi = self.dphi2, self.ric_dphi
            with np.errstate(divide="ignore", invalid="ignore"):
                ric_dir = np.where(dphi2 > 0.0, ric_dphi / np.where(dphi2 > 0.0, dphi2, 1.0), 0.0)
            return q + ric_dir

    @cached_property
    def ric_rr(self):
        with np.errstate(**self.errstate):
            rr = -self.base.d * self.hpp / self.h
            if self.base.dc == 0:
                return rr
            return np.broadcast_to(rr, self.base.shape).copy()

    @cached_property
    def ric_vv(self):
        if self.base.dc == 0:
            # round slice: the radial direction is the normal
            return self.ric_rr.copy()
        n, h, hp, hpp, dphi2 = self.n, self.h, self.hp, self.hpp, self.dphi2
        with np.errstate(**self.errstate):
            theta2 = self.theta ** 2
            return theta2 * self.ric_rr + (theta2 / h ** 2) * (
                self.ric_dphi - (h * hpp + (n - 2) * hp ** 2) * dphi2)

    # extremes read by index (warp._min, warp._max): np.min's and np.max's
    # values, the first NaN included, and of a 0.0/-0.0 tie the first;
    # math.sqrt rounds as np.sqrt does, and the maxima it takes are >= 0
    # (|A|^2 is a sum of squared principal curvatures)
    @property
    def grad_norm_max(self):
        return math.sqrt(_max(self.dphi2))

    @property
    def hess_abs_max(self):
        return _max(np.abs(self.hess)) if self.hess.size else 0.0

    @property
    def A_max(self):
        return math.sqrt(_max(self.A2))

    @property
    def osc_rescaled_h(self):
        scale = np.exp(-self.t / (self.n - 1))
        return float(scale * (_max(self.h) - _min(self.h)))

    @property
    def shape_dev_max(self):
        """max |S^i_j - (h'/h) delta| normalized by h/h' (0 for round slices)."""
        if self.shape.size == 0:
            return 0.0
        dev = self.shape.copy()
        k = self.shape.shape[0]
        for i in range(k):
            dev[i, i] -= self.hp / self.h
        per_node = np.max(np.abs(dev), axis=(0, 1))
        return float(np.max(per_node * self.h / self.hp))


def snapshot(state):
    """The GeometrySnapshot of a state: its light fields, H, omega, the
    shape operator and |A|^2 now, u, Kh and the Ricci terms on first read.
    """
    base = state.base
    lf = _light_fields(state)
    h, hp, theta, F = lf["h"], lf["hp"], lf["theta"], lf["F"]
    omega = h * theta
    H = F / omega
    if base.dc == 0:
        # round slice: umbilic with principal curvature h'/h in all n-1 directions
        shape = np.zeros((0, 0, 1))
        A2 = base.d * (hp / h) ** 2
    else:
        shape, A2 = _shape_from_fields(base, lf)
    return GeometrySnapshot(
        t=state.t, n=state.n, base=base, warp=state.warp, r=lf["r"], h=h, hp=hp,
        hpp=lf["hpp"], grad=lf["grad"], hess=lf["hess"], dphi2=lf["dphi2"],
        theta=theta, F=F, H=H, omega=omega, shape=shape, A2=A2,
        errstate=np.geterr())


def _shape_from_fields(base, lf):
    sinv = lf["sinv"]
    grad, hess = lf["grad"], lf["hess"]
    theta, h, hp = lf["theta"], lf["h"], lf["hp"]
    theta2 = theta ** 2
    up = sinv * grad
    dc = base.dc
    # st^ik phi_kj with st^ik = sigma^ik - Theta^2 phi^i phi^k (sigma diagonal)
    mixed = np.einsum("i...,ij...->ij...", sinv, hess)
    mixed -= theta2 * np.einsum("i...,k...,kj...->ij...", up, up, hess)
    shape = -(theta / h) * mixed
    for i in range(dc):
        shape[i, i] += theta * hp / h
    A2 = np.einsum("ij...,ji...->...", shape, shape)
    # directions suppressed by axisymmetry (azimuth on the axisphere) already
    # appear as explicit diagonal entries, so the trace is complete for dc = d
    return shape, A2


def embedding_oracle_H(state):
    """Mean curvature from the classical surface-of-revolution formulas.

    Only meaningful when the ambient space is genuinely flat: euclidean warp
    over the axisphere (surface of revolution in R^3) or over the circle
    (curve in R^2).  Shares no code or formula with the graph expression;
    the only common ingredients are the radius samples and the stencils.
    """
    if state.warp.preset_id != "euclidean":
        raise OracleUnsupportedError("embedding oracle needs the euclidean warp")
    base = state.base
    r = state.radius()
    if base.kind not in ("circle", "axisphere"):
        raise OracleUnsupportedError(f"embedding oracle not available for base {base.kind!r}")
    rt, rtt = base.differences(r)
    if base.kind == "circle":
        # curvature of the polar curve (r cos, r sin), outward normal
        return (r ** 2 + 2.0 * rt ** 2 - r * rtt) / (r ** 2 + rt ** 2) ** 1.5
    # meridian curve (rho, z) = (r sin, r cos) revolved about z
    s, c = base.sin, base.cos
    rho = r * s
    rho_t = rt * s + r * c
    rho_tt = rtt * s + 2.0 * rt * c - r * s
    z_t = rt * c - r * s
    z_tt = rtt * c - 2.0 * rt * s - r * c
    w2 = rho_t ** 2 + z_t ** 2
    kappa_meridian = (z_t * rho_tt - rho_t * z_tt) / w2 ** 1.5
    kappa_parallel = -z_t / (rho * np.sqrt(w2))
    return kappa_meridian + kappa_parallel
