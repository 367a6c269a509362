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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BaseManifold", "PointBase", "CircleBase", "AxisphereBase", "Torus2Base",
    "UnsupportedBaseError", "make_base", "covariant_derivatives",
    "commuting_residual", "integrate",
]


class UnsupportedBaseError(ValueError):
    """Operation not defined for this base kind."""


class BaseManifold:
    kind = "abstract"

    def check_field(self, f):
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match {self.kind} grid {self.shape}")
        return f

    # subclasses: grad, hess, integrate, sigma_diag, sigma_inv_diag, ricci_dphi

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

    def grad(self, f):
        self.check_field(f)
        return self._grad0

    def hess(self, f):
        self.check_field(f)
        return self._hess0

    def integrate(self, f):
        return float(self.check_field(f)[0])

    def sigma_diag(self):
        return self._grad0

    def sigma_inv_diag(self):
        return self._grad0

    def ricci_dphi(self, grad):
        return np.zeros(self.shape)


class CircleBase(BaseManifold):
    """S^1 with the unit round metric on a uniform periodic grid."""

    kind = "circle"

    def __init__(self, resolution, rho=0.0):
        M = int(resolution)
        if M < 4:
            raise ValueError(f"circle needs >= 4 nodes, got {M}")
        self.resolution = M
        self.d = 1
        self.rho = float(rho)
        self.shape = (M,)
        self.n_nodes = M
        self.dc = 1
        self.dtheta = 2.0 * np.pi / M
        self.theta = np.arange(M) * self.dtheta
        self.dx_min = self.dtheta
        self._two_dx = 2.0 * self.dtheta
        self._dx2 = self.dtheta ** 2

    def grad(self, f):
        f = self.check_field(f)
        g = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * self.dtheta)
        return g[None]

    def hess(self, f):
        f = self.check_field(f)
        h = (np.roll(f, -1) + np.roll(f, 1) - 2.0 * f) / self.dtheta ** 2
        return h[None, None]

    def differences(self, f):
        """(f_theta, f_thetatheta) from one periodically padded copy of f.

        Bit for bit the values of grad and hess, without the two rolls each.
        """
        return _central_differences(np.concatenate((f[-1:], f, f[:1])), f,
                                    self._two_dx, self._dx2)

    def integrate(self, f):
        return float(np.sum(self.check_field(f)) * self.dtheta)

    def sigma_diag(self):
        return np.ones((1, self.resolution))

    def sigma_inv_diag(self):
        return np.ones((1, self.resolution))

    def ricci_dphi(self, grad):
        return np.zeros(self.shape)


def _pad_even(f):
    # ghost nodes across both poles by even reflection
    return np.concatenate((f[:1], f, f[-1:]))


def _central_differences(fp, f, two_dx, dx2):
    """First and second central differences of f from its ghost-padded copy fp.

    Written in the operation order of the per-base stencils, so the results
    agree with them bit for bit.
    """
    up, down = fp[2:], fp[:-2]
    return (up - down) / two_dx, (up + down - 2.0 * f) / dx2


class AxisphereBase(BaseManifold):
    """Unit S^2, axisymmetric fields only, cell-centered in the polar angle.

    Nodes sit at theta_j = (j + 1/2) pi / M so neither pole is a grid point;
    a smooth axisymmetric function extends evenly across the poles, which is
    exactly what the ghost-node reflection implements.
    """

    kind = "axisphere"

    def __init__(self, resolution, rho=1.0):
        M = int(resolution)
        if M < 4:
            raise ValueError(f"axisphere needs >= 4 nodes, got {M}")
        self.resolution = M
        self.d = 2
        self.rho = float(rho)
        self.shape = (M,)
        self.n_nodes = M
        self.dc = 2
        self.dtheta = np.pi / M
        self.theta = (np.arange(M) + 0.5) * self.dtheta
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
        self.dx_min = self.dtheta
        self._weights = 2.0 * np.pi * self.sin * self.dtheta
        # constants of the fused speed kernel (geometry._speed_1d)
        self.sincos = self.sin * self.cos
        self.sin_inv2 = self.sin ** (-2.0)
        self._two_dx = 2.0 * self.dtheta
        self._dx2 = self.dtheta ** 2

    def dtheta_field(self, f):
        fp = _pad_even(np.asarray(f, dtype=float))
        return (fp[2:] - fp[:-2]) / (2.0 * self.dtheta)

    def d2theta_field(self, f):
        f = np.asarray(f, dtype=float)
        fp = _pad_even(f)
        # neighbours are summed first so reflection maps the stencil to
        # itself bitwise (float + is commutative, the mixed order is not)
        return (fp[2:] + fp[:-2] - 2.0 * f) / self.dtheta ** 2

    def differences(self, f):
        """(f_theta, f_thetatheta) from one even-padded copy of f.

        Bit for bit the values of dtheta_field and d2theta_field.
        """
        return _central_differences(_pad_even(f), f, self._two_dx, self._dx2)

    def grad(self, f):
        f = self.check_field(f)
        g = np.zeros((2,) + self.shape)
        g[0] = self.dtheta_field(f)
        return g

    def hess(self, f):
        f = self.check_field(f)
        H = np.zeros((2, 2) + self.shape)
        H[0, 0] = self.d2theta_field(f)
        H[1, 1] = self.sin * self.cos * self.dtheta_field(f)  # -Gamma^theta_{ss} f_theta
        return H

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

    def _d1(self, f, axis):
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * self.dx)

    def _d2(self, f, axis):
        return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2.0 * f) / self.dx ** 2

    def grad(self, f):
        f = self.check_field(f)
        return np.stack([self._d1(f, 0), self._d1(f, 1)])

    def hess(self, f):
        f = self.check_field(f)
        H = np.zeros((2, 2) + self.shape)
        H[0, 0] = self._d2(f, 0)
        H[1, 1] = self._d2(f, 1)
        H[0, 1] = H[1, 0] = self._d1(self._d1(f, 0), 1)
        return H

    def integrate(self, f):
        return float(np.sum(self.check_field(f)) * self.dx ** 2)

    def sigma_diag(self):
        return np.ones((2,) + self.shape)

    def sigma_inv_diag(self):
        return np.ones((2,) + self.shape)

    def ricci_dphi(self, grad):
        return np.zeros(self.shape)


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
    return base.grad(f), base.hess(f)


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
    H = base.hess(f)
    ft = base.dtheta_field(f)
    s, c, cot = base.sin, base.cos, base.cot
    T3 = np.zeros((2, 2, 2) + base.shape)
    T3[0, 0, 0] = base.dtheta_field(H[0, 0])
    T3[1, 1, 0] = base.dtheta_field(H[1, 1]) - 2.0 * cot * H[1, 1]
    T3[0, 1, 1] = T3[1, 0, 1] = s * c * H[0, 0] - cot * H[1, 1]
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
    if base.kind == "circle":
        # one direction: both orderings are the same nested stencil
        return 0.0
    if base.kind == "torus2":
        # nested first differences along flat axes commute up to rounding
        worst = 0.0
        for i in range(2):
            di = base._d1(f, i)
            for j in range(2):
                for k in range(j + 1, 2):
                    a = base._d1(base._d1(di, j), k)
                    b = base._d1(base._d1(di, k), j)
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
