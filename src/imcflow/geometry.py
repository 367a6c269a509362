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

from dataclasses import dataclass

import numpy as np

from . import warp as _warp
from .manifold import PointBase

__all__ = [
    "GraphState", "GeometrySnapshot", "snapshot", "shape_operator",
    "induced_metric", "ambient_ricci", "embedding_oracle_H",
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


# bases whose fields reduce to one polar or periodic coordinate; they take
# the fused kernel _speed_1d, every other base the generic einsum path
FUSED_KINDS = ("circle", "axisphere")


def _light_fields(state):
    """r, h, h', h'', Theta, Theta^2, dphi2, F and the stencil fields.

    What _probe classifies events from and snapshot extends; exploits the
    diagonal sigma.  Returns a dict so the full snapshot can extend it
    without recomputing.
    """
    base = state.base
    r, h, hp, hpp = _warp.warp_at_phi(state.warp, state.phi)
    if base.dc == 0:
        one = np.ones(base.shape)
        F = base.d * hp
        out = dict(r=r, h=h, hp=hp, hpp=hpp, theta=one, theta2=one,
                   dphi2=np.zeros(base.shape), F=F, grad=base.grad(state.phi),
                   hess=base.hess(state.phi), sinv=base.sigma_inv_diag())
        return out
    if base.kind in FUSED_KINDS:
        fields = _fused_fields(base, state.phi, hp)
    else:
        fields = _einsum_fields(base, state.phi, hp)
    return dict(r=r, h=h, hp=hp, hpp=hpp, **fields)


def _einsum_fields(base, phi, hp):
    """Theta, dphi2 and F through the full stencils and einsum.

    Works on any base with a diagonal metric; torus2 uses it, and tests use
    it as the bitwise reference for the fused 1D kernel.
    """
    nm1 = base.d
    grad = base.grad(phi)
    hess = base.hess(phi)
    sinv = base.sigma_inv_diag()
    up = sinv * grad                       # phi^i (diagonal sigma)
    dphi2 = np.sum(up * grad, axis=0)      # |D phi|^2
    theta2 = 1.0 / (1.0 + dphi2)
    # st^ij phi_ij = sigma^ii phi_ii - Theta^2 phi^i phi^j phi_ij
    S = np.einsum("i...,ii...->...", sinv, hess)
    S -= theta2 * np.einsum("i...,j...,ij...->...", up, up, hess)
    F = theta2 * (nm1 * hp - S)
    return dict(theta=np.sqrt(theta2), theta2=theta2, dphi2=dphi2, F=F,
                grad=grad, hess=hess, sinv=sinv)


def _speed_1d(base, phi, hp):
    """F and Theta^2 on a circle or axisphere, straight from phi and h'.

    The only F formula of these bases: the time stepper calls it for every
    stage and _light_fields (so snapshot) for every recorded state.  Only
    theta-derivatives exist here, so the einsum contractions collapse to
    st^ij phi_ij = phi_tt [+ sin^-2 sin cos phi_t] - Theta^2 phi_t^2 phi_tt
    (the bracket is the axisphere's azimuthal Christoffel term).  The
    operations run in the einsum path's order, so F and Theta^2 agree with
    _einsum_fields bit for bit.

    Returns (F, theta2, dphi2, phi_t, phi_tt).
    """
    g, d2 = base.differences(phi)
    dphi2 = g * g
    theta2 = 1.0 / (1.0 + dphi2)
    if base.kind == "axisphere":
        S = d2 + base.sin_inv2 * (base.sincos * g)
    else:
        S = d2
    S = S - theta2 * (dphi2 * d2)
    F = theta2 * (base.d * hp - S)
    return F, theta2, dphi2, g, d2


def _fused_fields(base, phi, hp):
    """_einsum_fields' dict for a 1D base, from the fused kernel."""
    F, theta2, dphi2, g, d2 = _speed_1d(base, phi, hp)
    dc = base.dc
    grad = np.zeros((dc,) + base.shape)
    grad[0] = g
    hess = np.zeros((dc, dc) + base.shape)
    hess[0, 0] = d2
    if dc == 2:
        hess[1, 1] = base.sincos * g     # -Gamma^theta_ss phi_theta
    return dict(theta=np.sqrt(theta2), theta2=theta2, dphi2=dphi2, F=F,
                grad=grad, hess=hess, sinv=base.sigma_inv_diag())


@dataclass
class GeometrySnapshot:
    """All pointwise geometric fields of a graph state at one time."""

    t: float
    n: int
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
    u: np.ndarray
    shape: np.ndarray
    A2: np.ndarray
    Kh: np.ndarray
    ric_dphi: np.ndarray
    ric_vv: np.ndarray
    ric_rr: np.ndarray

    @property
    def grad_norm_max(self):
        return float(np.sqrt(np.max(self.dphi2)))

    @property
    def hess_abs_max(self):
        return float(np.max(np.abs(self.hess))) if self.hess.size else 0.0

    @property
    def A_max(self):
        return float(np.sqrt(np.max(self.A2)))

    @property
    def osc_rescaled_h(self):
        scale = np.exp(-self.t / (self.n - 1))
        return float(scale * (np.max(self.h) - np.min(self.h)))

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
    """Compute the full GeometrySnapshot of a state.

    u = 1/(H omega) is reported as NaN wherever H <= 0 rather than as a
    signed infinity; every other field is defined unconditionally.
    """
    base = state.base
    lf = _light_fields(state)
    n = state.n
    nm1 = base.d
    r, h, hp, hpp = lf["r"], lf["h"], lf["hp"], lf["hpp"]
    theta, F = lf["theta"], lf["F"]
    omega = h * theta
    H = F / omega
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(H > 0.0, 1.0 / (H * omega), np.nan)

    if base.dc == 0:
        # round slice: umbilic with principal curvature h'/h in all n-1 directions
        shape = np.zeros((0, 0, 1))
        A2 = nm1 * (hp / h) ** 2
        ric_dphi = np.zeros(base.shape)
        Kh = (n - 2) * (h * hpp - hp ** 2)
        ric_rr = -nm1 * hpp / h
        ric_vv = ric_rr.copy()
    else:
        shape, A2 = _shape_from_fields(base, lf, nm1)
        ric_dphi = base.ricci_dphi(lf["grad"])
        dphi2 = lf["dphi2"]
        # direction-restricted base Ricci; zero-gradient nodes use the
        # slice convention (radial direction degenerates, term drops)
        with np.errstate(divide="ignore", invalid="ignore"):
            ric_dir = np.where(dphi2 > 0.0, ric_dphi / np.where(dphi2 > 0.0, dphi2, 1.0), 0.0)
        Kh = (n - 2) * (h * hpp - hp ** 2) + ric_dir
        ric_rr = np.broadcast_to(-nm1 * hpp / h, base.shape).copy()
        theta2 = theta ** 2
        ric_vv = theta2 * ric_rr + (theta2 / h ** 2) * (
            ric_dphi - (h * hpp + (n - 2) * hp ** 2) * dphi2)

    return GeometrySnapshot(
        t=state.t, n=n, r=r, h=h, hp=hp, hpp=hpp, grad=lf["grad"], hess=lf["hess"],
        dphi2=lf["dphi2"], theta=theta, F=F, H=H, omega=omega, u=u,
        shape=shape, A2=A2, Kh=Kh, ric_dphi=ric_dphi, ric_vv=ric_vv, ric_rr=ric_rr)


def _shape_from_fields(base, lf, nm1):
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


def shape_operator(state):
    """Shape operator (mixed indices) and its squared norm |A|^2."""
    lf = _light_fields(state)
    if state.base.dc == 0:
        hp, h = lf["hp"], lf["h"]
        return np.zeros((0, 0, 1)), state.base.d * (hp / h) ** 2
    return _shape_from_fields(state.base, lf, state.base.d)


def induced_metric(state):
    """Induced metric and inverse as (dc, dc, *grid) component arrays."""
    base = state.base
    lf = _light_fields(state)
    dc = base.dc
    if dc == 0:
        e = np.zeros((0, 0, 1))
        return e, e
    h = lf["h"]
    grad = lf["grad"]
    sinv = lf["sinv"]
    sdiag = base.sigma_diag()
    theta2 = lf["theta"] ** 2
    up = sinv * grad
    g = h ** 2 * np.einsum("i...,j...->ij...", grad, grad)
    ginv = -(theta2 / h ** 2) * np.einsum("i...,j...->ij...", up, up)
    for i in range(dc):
        g[i, i] += h ** 2 * sdiag[i]
        ginv[i, i] += sinv[i] / h ** 2
    return g, ginv


def ambient_ricci(state):
    """(Ric(v, v), Ric(dr, dr)) along the graph, unit arguments."""
    snap = snapshot(state)
    return snap.ric_vv, snap.ric_rr


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
    if base.kind == "circle":
        # curvature of the polar curve (r cos, r sin), outward normal
        rt = base.grad(r)[0]
        rtt = base.hess(r)[0, 0]
        return (r ** 2 + 2.0 * rt ** 2 - r * rtt) / (r ** 2 + rt ** 2) ** 1.5
    if base.kind == "axisphere":
        # meridian curve (rho, z) = (r sin, r cos) revolved about z
        s, c = base.sin, base.cos
        rt = base.dtheta_field(r)
        rtt = base.d2theta_field(r)
        rho = r * s
        rho_t = rt * s + r * c
        rho_tt = rtt * s + 2.0 * rt * c - r * s
        z_t = rt * c - r * s
        z_tt = rtt * c - 2.0 * rt * s - r * c
        w2 = rho_t ** 2 + z_t ** 2
        kappa_meridian = (z_t * rho_tt - rho_t * z_tt) / w2 ** 1.5
        kappa_parallel = -z_t / (rho * np.sqrt(w2))
        return kappa_meridian + kappa_parallel
    raise OracleUnsupportedError(f"embedding oracle not available for base {base.kind!r}")
