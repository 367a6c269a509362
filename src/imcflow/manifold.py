"""Discretized base manifolds N and their covariant calculus.

Four kinds, all with diagonal coordinate metrics:

point      zero-dimensional stand-in for a round slice; fields are single
           numbers, derivatives vanish, and the ambient dimension is d+1
           for a configurable d
circle     uniform periodic grid on S^1 (flat, n = 2)
axisphere  the unit two-sphere restricted to axisymmetric fields on a
           cell-centered polar grid theta_j = (j + 1/2) pi/M; pole-free,
           ghost nodes by even reflection
torus2     flat square torus [0, 2pi)^2 on an M x M periodic grid

Field layout: scalars take the grid shape, gradients are (dc, *grid) and
Hessians (dc, dc, *grid) with dc stored coordinate components.  On the
axisphere dc = 2 but axisymmetric fields carry only theta-components in the
gradient; the azimuthal Hessian entry sin(theta) cos(theta) f_theta comes
from the Christoffel term and survives in traces.

Each base has one finite-difference stencil, differences(f, out=None):
the central first and second differences of f from one ghost-padded copy
(a tuple, empty on the point base).  The copy is one gather of f through
the base's pad index, which states its boundary rule: periodic on the
circle and the torus, even reflection across the poles on the axisphere;
the circle and the axisphere share one theta grid, _ThetaGrid.
With out=None every array is new; out, a tuple from stencil_buffers(),
holds the padded copy and the differences, and the stencil writes them
in place with the same operations in the same order, so the bits agree.
assemble(diffs) lays the differences out as the covariant (grad, hess)
arrays; covariant_derivatives is the two composed, and the speed kernels
of geometry read the differences directly.  The base metric sigma is
flat, BaseManifold's default, on every base but the axisphere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BaseManifold", "PointBase", "CircleBase", "AxisphereBase", "Torus2Base",
    "UnsupportedBaseError", "make_base", "covariant_derivatives",
    "commuting_residual", "integrate",
]


def _constant(x):
    """x as a read-only 0-d float64 array: an operand that runs the float
    x's loop, bit for bit, without converting x on every call."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_TWO = _constant(2.0)


class UnsupportedBaseError(ValueError):
    """Operation not defined for this base kind."""


class BaseManifold:
    kind = "abstract"

    def check_field(self, f):
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match {self.kind} grid {self.shape}")
        return f

    # subclasses: differences (the one stencil), assemble, integrate; field
    # bases: stencil_buffers.  The metric: sigma and its inverse as (dc, *grid)
    # diagonals, Ric_N(D phi, D phi) from the gradient; flat unless overridden

    def sigma_diag(self):
        return np.ones((self.dc,) + self.shape)

    def sigma_inv_diag(self):
        return np.ones((self.dc,) + self.shape)

    def ricci_dphi(self, grad):
        return np.zeros(self.shape)

    def __repr__(self):
        return f"{type(self).__name__}(resolution={getattr(self, 'resolution', 1)})"


class PointBase(BaseManifold):
    """Degenerate base: one node, no tangent directions.

    Models the reduced flow of round slices; d sets the dimension of the
    suppressed base (ambient dimension d+1) and rho the normalized lower
    Ricci bound carried by the modeled base.
    """

    kind = "point"

    def __init__(self, d=2, rho=1.0):
        if d < 1:
            raise ValueError(f"point base needs d >= 1, got {d}")
        self.d = int(d)
        self.rho = float(rho)
        self.resolution = 1
        self.shape = (1,)
        self.n_nodes = 1
        self.dc = 0
        self.dx_min = np.inf
        # zero-size constants are safe to share (nothing to mutate)
        self._grad0 = np.zeros((0, 1))
        self._hess0 = np.zeros((0, 0, 1))

    def differences(self, f, out=None):
        return ()

    def assemble(self, diffs):
        return self._grad0, self._hess0

    def integrate(self, f):
        return float(self.check_field(f)[0])


class _ThetaGrid(BaseManifold):
    """M >= 4 nodes theta_j = (j + offset) span/M in one angle, with one
    ghost node past each end: the opposite end's node when periodic, the
    end node itself (even reflection) otherwise."""

    def __init__(self, resolution, rho, span, offset, periodic):
        M = int(resolution)
        if M < 4:
            raise ValueError(f"{self.kind} needs >= 4 nodes, got {M}")
        self.resolution = M
        self.rho = float(rho)
        self.shape = (M,)
        self.n_nodes = M
        self.dtheta = span / M
        self.theta = (np.arange(M) + offset) * self.dtheta
        self.dx_min = self.dtheta
        self._two_dx = _constant(2.0 * self.dtheta)
        self._dx2 = _constant(self.dtheta ** 2)
        lo, hi = (M - 1, 0) if periodic else (0, M - 1)
        self._pad = np.concatenate(([lo], np.arange(M), [hi]))

    def differences(self, f, out=None):
        """(f_theta, f_thetatheta) from one ghost-padded copy of f; out is
        (padded copy, first, second) or None.

        The neighbours are summed first, so reflecting f reflects the second
        difference bitwise (float + is commutative, the mixed order is not).
        2 f lives in the first difference's array until that is formed.  pad
        lies in range for an f of the base's shape, so the gather skips the
        bounds check ("clip"), which costs as much again as the copy.
        """
        fp, g, d2 = out or (None, None, None)
        fp = f.take(self._pad, None, fp, "clip")
        up, down = fp[2:], fp[:-2]
        d2 = np.add(up, down, out=d2)
        d2 -= np.multiply(_TWO, f, out=g)
        d2 /= self._dx2
        g = np.subtract(up, down, out=g)
        g /= self._two_dx
        return g, d2

    def stencil_buffers(self):
        M = self.resolution
        return np.empty(M + 2), np.empty(M), np.empty(M)


class CircleBase(_ThetaGrid):
    """S^1 with the unit round metric on a uniform periodic grid."""

    kind = "circle"
    d = dc = 1

    def __init__(self, resolution, rho=0.0):
        super().__init__(resolution, rho, 2.0 * np.pi, 0, periodic=True)

    def assemble(self, diffs):
        g, d2 = diffs
        return g[None], d2[None, None]

    def integrate(self, f):
        return float(np.sum(self.check_field(f)) * self.dtheta)


class AxisphereBase(_ThetaGrid):
    """Unit S^2, axisymmetric fields only, cell-centered in the polar angle.

    Nodes sit at theta_j = (j + 1/2) pi / M so neither pole is a grid point;
    a smooth axisymmetric function extends evenly across the poles, which is
    exactly what the ghost-node reflection implements.
    """

    kind = "axisphere"
    d = dc = 2

    def __init__(self, resolution, rho=1.0):
        super().__init__(resolution, rho, np.pi, 0.5, periodic=False)
        M = self.resolution
        # build the trig tables mirror-symmetric about the equator; evaluating
        # sin/cos independently at theta and pi - theta differs by 1 ulp and
        # would break exact reflection equivariance of the stencils
        half = np.sin(self.theta[:(M + 1) // 2])
        self.sin = np.concatenate([half, half[:M // 2][::-1]])
        half = np.cos(self.theta[:(M + 1) // 2])
        if M % 2:
            half[-1] = 0.0   # middle node sits exactly on the equator
        self.cos = np.concatenate([half, -half[:M // 2][::-1]])
        self.cot = self.cos / self.sin
        self._weights = 2.0 * np.pi * self.sin * self.dtheta
        # constants of the speed kernel (geometry._kernel_1d)
        self.sincos = self.sin * self.cos
        self.sin_inv2 = self.sin ** (-2.0)

    def assemble(self, diffs):
        g, d2 = diffs
        grad = np.zeros((2,) + self.shape)
        grad[0] = g
        hess = np.zeros((2, 2) + self.shape)
        hess[0, 0] = d2
        hess[1, 1] = self.sincos * g     # -Gamma^theta_{ss} f_theta
        return grad, hess

    def integrate(self, f):
        return float(np.sum(self.check_field(f) * self._weights))

    def sigma_diag(self):
        s = np.ones((2, self.resolution))
        s[1] = self.sin ** 2
        return s

    def sigma_inv_diag(self):
        s = np.ones((2, self.resolution))
        s[1] = self.sin_inv2
        return s

    def ricci_dphi(self, grad):
        # Ric of the unit 2-sphere is sigma itself
        return grad[0] ** 2


class Torus2Base(BaseManifold):
    """Flat square torus [0, 2pi)^2, periodic in both directions."""

    kind = "torus2"

    def __init__(self, resolution, rho=0.0):
        M = int(resolution)
        if M < 4:
            raise ValueError(f"torus2 needs >= 4 nodes per direction, got {M}")
        self.resolution = M
        self.d = 2
        self.rho = float(rho)
        self.shape = (M, M)
        self.n_nodes = M * M
        self.dc = 2
        self.dx = 2.0 * np.pi / M
        self.x = np.arange(M) * self.dx
        self.dx_min = self.dx
        # constants of the stencil; the pad index gathers the flat f,
        # periodic in both directions
        self._two_dx = _constant(2.0 * self.dx)
        self._dx2 = _constant(self.dx ** 2)
        ring = np.concatenate(([M - 1], np.arange(M), [0]))
        self._pad = ring[:, None] * M + ring[None, :]

    def differences(self, f, out=None):
        """(f_0, f_1, f_00, f_11, f_01) from one periodically padded copy of f.

        The first differences along axis 0 are taken on the axis-1-padded
        rows, so f_01 is their difference along axis 1: the axis-1
        difference of f_0, bit for bit.  out is (padded copy, padded f_0,
        f_1, f_00, f_11, f_01) or None; 2 f is formed once, in f_01's array.
        """
        fp, g0p, g1, f00, f11, f01 = out or (None,) * 6
        fp = f.take(self._pad, None, fp, "clip")
        two_dx, dx2 = self._two_dx, self._dx2
        g0p = np.subtract(fp[2:], fp[:-2], out=g0p)
        g0p /= two_dx
        up, down = fp[1:-1, 2:], fp[1:-1, :-2]
        two_f = np.multiply(_TWO, f, out=f01)
        f00 = np.add(fp[2:, 1:-1], fp[:-2, 1:-1], out=f00)
        f00 -= two_f
        f00 /= dx2
        f11 = np.add(up, down, out=f11)
        f11 -= two_f
        f11 /= dx2
        g1 = np.subtract(up, down, out=g1)
        g1 /= two_dx
        f01 = np.subtract(g0p[:, 2:], g0p[:, :-2], out=f01)
        f01 /= two_dx
        return g0p[:, 1:-1], g1, f00, f11, f01

    def stencil_buffers(self):
        M = self.resolution
        return ((np.empty((M + 2, M + 2)), np.empty((M, M + 2)))
                + tuple(np.empty((M, M)) for _ in range(4)))

    def assemble(self, diffs):
        g0, g1, h00, h11, h01 = diffs
        hess = np.empty((2, 2) + self.shape)
        hess[0, 0], hess[1, 1] = h00, h11
        hess[0, 1] = hess[1, 0] = h01
        return np.stack((g0, g1)), hess

    def integrate(self, f):
        return float(np.sum(self.check_field(f)) * self.dx ** 2)


def make_base(kind, resolution=1, **kw):
    if kind == "point":
        return PointBase(**kw)
    if kind == "circle":
        return CircleBase(resolution, **kw)
    if kind == "axisphere":
        return AxisphereBase(resolution, **kw)
    if kind == "torus2":
        return Torus2Base(resolution, **kw)
    raise ValueError(f"unknown base kind {kind!r}")


def covariant_derivatives(base, f):
    """Covariant gradient and Hessian of a scalar field: (grad, hess)."""
    return base.assemble(base.differences(base.check_field(f)))


def integrate(base, f):
    """Quadrature of f over N with kind-appropriate weights."""
    return base.integrate(f)


def _third_covariant_axisphere(base, f):
    """T3[i, j, k] = covariant derivative of Hess f along k on the unit sphere.

    For axisymmetric f the Hessian is diag(T00, T11) and the nonzero
    Christoffel symbols are Gamma^theta_{ss} = -sin cos and
    Gamma^s_{theta s} = cot (s the azimuth).  Expanding
    T3[i,j,k] = d_k T_ij - Gamma^l_{ki} T_lj - Gamma^l_{kj} T_il leaves
    four nonzero component families.
    """
    ft, T00 = base.differences(f)
    T11 = base.sincos * ft
    cot = base.cot
    T3 = np.zeros((2, 2, 2) + base.shape)
    T3[0, 0, 0] = base.differences(T00)[0]
    T3[1, 1, 0] = base.differences(T11)[0] - 2.0 * cot * T11
    T3[0, 1, 1] = T3[1, 0, 1] = base.sincos * T00 - cot * T11
    return T3, ft


def commuting_residual(base, f):
    """Worst violation of the third-derivative commutation identity.

    Swapping the last two covariant derivative slots of a scalar costs a
    curvature contraction R_{kjip} phi^p; the returned number is the max
    over nodes and index triples of | phi_ijk - phi_ikj - R_{kjip} phi^p |.
    Flat bases must return (near) zero, the axisphere converges at the
    stencil order.
    """
    if base.kind == "point":
        raise UnsupportedBaseError("commuting residual needs at least one tangent direction")
    f = base.check_field(f)
    if base.kind == "circle":
        # one direction: both orderings are the same nested stencil
        return 0.0
    if base.kind == "torus2":
        # nested first differences along flat axes commute up to rounding
        worst = 0.0
        for di in base.differences(f)[:2]:
            d = base.differences(di)
            # d_1 d_0 di is d's mixed entry; d_0 d_1 di needs one more pass
            a, b = d[4], base.differences(d[1])[0]
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst
    if base.kind == "axisphere":
        T3, ft = _third_covariant_axisphere(base, f)
        s = base.sin
        sig = np.zeros((2, 2) + base.shape)
        sig[0, 0] = 1.0
        sig[1, 1] = s ** 2
        worst = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if j == k:
                        continue
                    # R_{kjip} phi^p with phi^p only along theta (p = 0)
                    R = sig[k, i] * sig[j, 0] - sig[k, 0] * sig[j, i]
                    res = T3[i, j, k] - T3[i, k, j] - R * ft
                    worst = max(worst, float(np.max(np.abs(res))))
        return worst
    raise UnsupportedBaseError(f"unknown base kind {base.kind!r}")
