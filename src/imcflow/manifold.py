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
the central first and second differences of f (a tuple, empty on the
point base) from one gather of f through an index that states the
base's boundary rule.  On the circle and the axisphere it is a
ghost-padded copy, periodic on the circle and by even reflection across
the poles on the axisphere, which share one theta grid, _ThetaGrid; on
the torus it is the block of f's four periodic neighbours, so both axes'
differences are one ufunc call each.  With out=None every array is new;
out, a tuple from stencil_buffers(), holds the gathered values and the
differences, and the stencil writes them in place with the same
operations in the same order, so the bits agree.
assemble(diffs) lays the differences out as the covariant (grad, hess)
arrays; covariant_derivatives is the two composed, and the speed kernels
of geometry read the differences directly.  The base metric sigma is
flat, BaseManifold's default, on every base but the axisphere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BaseManifold", "PointBase", "CircleBase", "AxisphereBase", "Torus2Base",
    "make_base", "covariant_derivatives",
]


def _constant(x):
    """x as a read-only 0-d float64 array: an operand that runs the float
    x's loop, bit for bit, without converting x on every call."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_TWO = _constant(2.0)


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
        # constants of the stencil; the neighbour index gathers the flat f
        # at (i+1, j), (i, j+1), (i-1, j), (i, j-1), periodic in both
        # directions, its rows 1 and 3 at j+1 and j-1
        self._two_dx = _constant(2.0 * self.dx)
        self._dx2 = _constant(self.dx ** 2)
        i, j = np.indices(self.shape)
        self._nb = np.stack([(i + 1) % M * M + j, i * M + (j + 1) % M,
                             (i - 1) % M * M + j, i * M + (j - 1) % M])
        self._j_nb = self._nb[1::2].copy()

    def differences(self, f, out=None):
        """(f_0, f_1, f_00, f_11, f_01) from one periodic gather of f's
        four neighbours.

        The neighbours along both axes sit in one (4, M, M) block, so the
        first differences along both axes are one subtract and the second
        ones one add, each term in the order of the two one-axis formulas.
        f_01 is the axis-1 difference of f_0, from a second gather, of f_0
        at j+1 and j-1.  out is (neighbours, (f_0, f_1), (f_00, f_11),
        f_0's neighbours, f_01) or None; 2 f is formed once, in f_01's
        array.
        """
        nb, g, f2, g0nb, f01 = out or (None,) * 5
        nb = f.take(self._nb, None, nb, "clip")
        two_dx = self._two_dx
        g = np.subtract(nb[:2], nb[2:], out=g)
        g /= two_dx
        two_f = np.multiply(_TWO, f, out=f01)
        f2 = np.add(nb[:2], nb[2:], out=f2)
        f2 -= two_f
        f2 /= self._dx2
        g0nb = g[0].take(self._j_nb, None, g0nb, "clip")
        f01 = np.subtract(g0nb[0], g0nb[1], out=f01)
        f01 /= two_dx
        return g[0], g[1], f2[0], f2[1], f01

    def stencil_buffers(self):
        M = self.resolution
        return tuple(np.empty((k, M, M)) for k in (4, 2, 2, 2)) + (np.empty((M, M)),)

    def assemble(self, diffs):
        g0, g1, h00, h11, h01 = diffs
        hess = np.empty((2, 2) + self.shape)
        hess[0, 0], hess[1, 1] = h00, h11
        hess[0, 1] = hess[1, 0] = h01
        return np.stack((g0, g1)), hess

    def integrate(self, f):
        return float(np.sum(self.check_field(f)) * self.dx ** 2)


def make_base(kind, resolution=None, **kw):
    """A field base takes its node count per direction as resolution; the
    point base has one node and takes none (d sets its dimension)."""
    if kind == "point":
        if resolution is not None:
            raise ValueError(f"point base takes no resolution, got {resolution!r}")
        return PointBase(**kw)
    cls = {"circle": CircleBase, "axisphere": AxisphereBase, "torus2": Torus2Base}.get(kind)
    if cls is None:
        raise ValueError(f"unknown base kind {kind!r}")
    if resolution is None:
        raise ValueError(f"{kind} needs a resolution")
    return cls(resolution, **kw)


def covariant_derivatives(base, f):
    """Covariant gradient and Hessian of a scalar field: (grad, hess)."""
    return base.assemble(base.differences(base.check_field(f)))
