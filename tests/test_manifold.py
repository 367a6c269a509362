"""Tests for discretized bases: quadrature, stencils, commutation identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow.manifold import (
    AxisphereBase,
    CircleBase,
    PointBase,
    Torus2Base,
    covariant_derivatives,
    make_base,
)
from probes import UnsupportedBaseError, commuting_residual


class TestMakeBase:
    def test_dispatch(self):
        assert make_base("point").kind == "point"
        assert make_base("circle", 8).kind == "circle"
        assert make_base("axisphere", 8).kind == "axisphere"
        assert make_base("torus2", 8).kind == "torus2"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown base kind"):
            make_base("klein_bottle", 8)

    def test_resolution_floor(self):
        for kind in ("circle", "axisphere", "torus2"):
            with pytest.raises(ValueError):
                make_base(kind, 3)

    def test_point_takes_no_resolution(self):
        for resolution in (1, 2, 3):
            with pytest.raises(ValueError, match="point base takes no resolution"):
                make_base("point", resolution)
        assert make_base("point", None, d=3).d == 3

    def test_field_base_needs_a_resolution(self):
        for kind in ("circle", "axisphere", "torus2"):
            with pytest.raises(ValueError, match=f"{kind} needs a resolution"):
                make_base(kind)

    def test_point_needs_positive_d(self):
        with pytest.raises(ValueError):
            make_base("point", d=0)

    def test_rho_defaults(self):
        # curved bases carry their round Ricci bound, flat ones zero
        assert make_base("point").rho == 1.0
        assert make_base("axisphere", 8).rho == 1.0
        assert make_base("circle", 8).rho == 0.0
        assert make_base("torus2", 8).rho == 0.0

    def test_shapes_and_dims(self):
        b = make_base("torus2", 6)
        assert b.shape == (6, 6)
        assert b.d == 2 and b.dc == 2
        b = make_base("axisphere", 6)
        assert b.shape == (6,)
        assert b.d == 2 and b.dc == 2
        b = make_base("circle", 6)
        assert b.d == 1 and b.dc == 1
        b = make_base("point", d=3)
        assert b.d == 3 and b.dc == 0 and b.shape == (1,)

    def test_check_field_shape_mismatch(self):
        b = make_base("circle", 8)
        with pytest.raises(ValueError, match="shape"):
            b.check_field(np.zeros(9))


class TestQuadrature:
    def test_circle_volume_exact(self):
        b = make_base("circle", 17)
        vol = b.integrate(np.ones(b.shape))
        assert abs(vol - 2.0 * np.pi) < 1e-12

    def test_axisphere_area(self):
        b = make_base("axisphere", 2000)
        vol = b.integrate(np.ones(b.shape))
        assert abs(vol - 4.0 * np.pi) / (4.0 * np.pi) < 1e-6

    def test_axisphere_cos_squared(self):
        b = make_base("axisphere", 2000)
        val = b.integrate(np.cos(b.theta) ** 2)
        assert abs(val - 4.0 * np.pi / 3.0) / (4.0 * np.pi / 3.0) < 1e-6

    def test_torus_volume(self):
        b = make_base("torus2", 12)
        vol = b.integrate(np.ones(b.shape))
        assert abs(vol - 4.0 * np.pi ** 2) < 1e-12

    def test_point_integrate_is_value(self):
        b = make_base("point")
        assert b.integrate(np.array([3.5])) == 3.5


class TestStencilAccuracy:
    def test_circle_gradient_second_order(self):
        errs = {}
        for M in (64, 128):
            b = make_base("circle", M)
            g = covariant_derivatives(b, np.sin(3.0 * b.theta))[0][0]
            errs[M] = np.max(np.abs(g - 3.0 * np.cos(3.0 * b.theta)))
        assert errs[64] < 5e-2
        assert 3.5 < errs[64] / errs[128] < 4.5

    def test_circle_hessian_mode(self):
        b = make_base("circle", 200)
        f = np.cos(b.theta)
        H = covariant_derivatives(b, f)[1][0, 0]
        assert np.max(np.abs(H + f)) < 1e-3  # O(dtheta^2)

    def test_axisphere_laplacian_l1(self):
        # trace of the covariant Hessian of cos(theta) is -2 cos(theta)
        b = make_base("axisphere", 200)
        f = np.cos(b.theta)
        H = covariant_derivatives(b, f)[1]
        lap = H[0, 0] + H[1, 1] / b.sin ** 2
        assert np.max(np.abs(lap + 2.0 * f)) < 1e-4

    def test_axisphere_laplacian_refinement(self):
        # Delta cos(2 theta) = -6 cos(2 theta) - 2 on the unit sphere
        errs = {}
        for M in (100, 200):
            b = make_base("axisphere", M)
            f = np.cos(2.0 * b.theta)
            H = covariant_derivatives(b, f)[1]
            lap = H[0, 0] + H[1, 1] / b.sin ** 2
            errs[M] = np.max(np.abs(lap + 6.0 * f + 2.0))
        ratio = errs[100] / errs[200]
        assert 3.2 < ratio < 4.8

    def test_torus_gradient(self):
        b = make_base("torus2", 48)
        X, Y = np.meshgrid(b.x, b.x, indexing="ij")
        f = np.sin(X) * np.cos(2.0 * Y)
        g = covariant_derivatives(b, f)[0]
        # truncation bound (dx^2/6) max|f'''| per direction
        assert np.max(np.abs(g[0] - np.cos(X) * np.cos(2.0 * Y))) < 3e-3
        assert np.max(np.abs(g[1] + 2.0 * np.sin(X) * np.sin(2.0 * Y))) < 2.5e-2

    def test_hessian_symmetry_torus(self):
        rng = np.random.default_rng(7)
        b = make_base("torus2", 16)
        f = rng.standard_normal(b.shape)
        H = covariant_derivatives(b, f)[1]
        assert np.array_equal(H[0, 1], H[1, 0])


class TestStencilExactness:
    """Constants and grid-commensurate phases are handled without distortion."""

    @pytest.mark.parametrize("kind,res", [("circle", 32), ("axisphere", 32), ("torus2", 8)])
    def test_constant_fields(self, kind, res):
        b = make_base(kind, res)
        grad, hess = covariant_derivatives(b, np.full(b.shape, 2.5))
        assert not grad.any()
        assert not hess.any()

    def test_circle_phase_is_discrete_eigenmode(self):
        # a sampled integer-frequency phase maps to an exact multiple of
        # its shifted self; no scattering into other modes
        b = make_base("circle", 64)
        k = 5
        f = np.cos(k * b.theta)
        lam1 = np.sin(k * b.dtheta) / b.dtheta
        g, H = covariant_derivatives(b, f)
        assert np.max(np.abs(g[0] + lam1 * np.sin(k * b.theta))) < 1e-12
        lam2 = (2.0 - 2.0 * np.cos(k * b.dtheta)) / b.dtheta ** 2
        assert np.max(np.abs(H[0, 0] + lam2 * f)) < 1e-11

    def test_torus_phase_is_discrete_eigenmode(self):
        b = make_base("torus2", 32)
        X, _ = np.meshgrid(b.x, b.x, indexing="ij")
        k = 3
        f = np.sin(k * X)
        lam1 = np.sin(k * b.dx) / b.dx
        g = covariant_derivatives(b, f)[0]
        assert np.max(np.abs(g[0] - lam1 * np.cos(k * X))) < 1e-12
        assert np.max(np.abs(g[1])) < 1e-15


class TestShiftEquivariance:
    def test_circle_roll_commutes_bitwise(self):
        rng = np.random.default_rng(3)
        b = make_base("circle", 40)
        f = rng.standard_normal(b.shape)
        g, H = covariant_derivatives(b, f)
        for s in (1, 7):
            rg, rH = covariant_derivatives(b, np.roll(f, s))
            assert np.array_equal(rg[0], np.roll(g[0], s))
            assert np.array_equal(rH[0, 0], np.roll(H[0, 0], s))

    def test_torus_roll_commutes_bitwise(self):
        rng = np.random.default_rng(4)
        b = make_base("torus2", 12)
        f = rng.standard_normal(b.shape)
        g, H = covariant_derivatives(b, f)
        for axis in (0, 1):
            rg, rH = covariant_derivatives(b, np.roll(f, 3, axis=axis))
            assert np.array_equal(rg, np.roll(g, 3, axis=axis + 1))
            assert np.array_equal(rH, np.roll(H, 3, axis=axis + 2))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0])


def strided_torus_differences(base, f):
    """Torus2Base.differences by strided views of one padded copy: the
    first differences along axis 0 on the axis-1-padded rows, f_01 their
    axis-1 difference.  The bitwise reference of the neighbour gather."""
    M = base.resolution
    ring = np.concatenate(([M - 1], np.arange(M), [0]))
    fp = f.take(ring[:, None] * M + ring[None, :])
    two_dx, dx2 = 2.0 * base.dx, base.dx ** 2
    g0p = (fp[2:] - fp[:-2]) / two_dx
    up, down = fp[1:-1, 2:], fp[1:-1, :-2]
    two_f = 2.0 * f
    f00 = (fp[2:, 1:-1] + fp[:-2, 1:-1] - two_f) / dx2
    f11 = (up + down - two_f) / dx2
    g1 = (up - down) / two_dx
    f01 = (g0p[:, 2:] - g0p[:, :-2]) / two_dx
    return g0p[:, 1:-1], g1, f00, f11, f01


class TestTorusNeighbourGather:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 24), st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(0, 575), values | st.sampled_from(
               [np.inf, -np.inf, np.nan, 5e-324])), max_size=6))
    def test_differences_match_the_strided_stencil_bitwise(self, M, seed, plant):
        # random normal values of any scale, with planted signed zeros,
        # subnormals and non-finite values
        b = make_base("torus2", M)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(b.shape) * 10.0 ** rng.integers(-3, 4)
        for node, v in plant:
            f.flat[node % f.size] = v
        out = tuple(np.full_like(a, np.nan) for a in b.stencil_buffers())
        with np.errstate(all="ignore"):
            want = strided_torus_differences(b, f)
            for got in (b.differences(f), b.differences(f, out)):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert same_bits(g, w)
                    assert g.flags.c_contiguous


class TestAxisphereReflection:
    """theta -> pi - theta maps node j to M-1-j on the cell-centred grid."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 40).flatmap(
        lambda M: st.lists(values, min_size=M, max_size=M)))
    def test_differences_reflect_bitwise(self, vals):
        # the reflected field has (-f_theta, f_thetatheta) reversed; the
        # first difference of equal values is +0 both ways, so -f_theta
        # is 0 - f_theta, and only a negative zero in f can flip a zero
        f = np.array(vals)
        b = make_base("axisphere", f.size)
        g, d2 = b.differences(f)
        gr, d2r = b.differences(f[::-1].copy())
        assert same_bits(d2r, d2[::-1])
        assert np.array_equal(gr, -g[::-1])
        if not np.signbit(f[f == 0.0]).any():
            assert same_bits(gr, (0.0 - g)[::-1])


class TestCommutingResidual:
    def test_circle_exactly_zero(self):
        b = make_base("circle", 64)
        assert commuting_residual(b, np.cos(3.0 * b.theta)) == 0.0

    def test_torus_flat(self):
        b = make_base("torus2", 32)
        X, Y = np.meshgrid(b.x, b.x, indexing="ij")
        assert commuting_residual(b, np.cos(X) * np.cos(Y)) < 1e-10

    def test_axisphere_second_order(self):
        # the identity holds analytically; the residual is discretization
        res = {}
        for M in (100, 200, 400):
            b = make_base("axisphere", M)
            f = np.cos(2.0 * b.theta) + 0.3 * np.cos(b.theta)
            res[M] = commuting_residual(b, f)
        assert 3.0 < res[100] / res[200] < 5.0
        assert 3.0 < res[200] / res[400] < 5.0

    def test_point_unsupported(self):
        with pytest.raises(UnsupportedBaseError):
            commuting_residual(make_base("point"), np.array([1.0]))


class TestAxispherePoles:
    def test_grid_avoids_poles(self):
        b = make_base("axisphere", 50)
        assert b.theta[0] == pytest.approx(0.5 * b.dtheta)
        assert b.theta[-1] == pytest.approx(np.pi - 0.5 * b.dtheta)

    def test_ghost_gradient_vanishes_toward_poles(self):
        # smooth axisymmetric f has f_theta -> 0 at the poles; the first
        # and last node values shrink linearly with dtheta while the
        # stencil error against the true derivative stays second order
        first, err = {}, {}
        for M in (100, 200, 400):
            b = make_base("axisphere", M)
            f = np.cos(b.theta)
            ft = b.differences(f)[0]
            first[M] = abs(ft[0])
            assert abs(ft[-1]) == pytest.approx(abs(ft[0]), rel=1e-12)
            err[M] = np.max(np.abs(ft + np.sin(b.theta)))
        assert 1.8 < first[100] / first[200] < 2.2
        assert 1.8 < first[200] / first[400] < 2.2
        assert 3.5 < err[100] / err[200] < 4.5

    def test_azimuthal_hessian_from_christoffel(self):
        # H[1,1] = sin cos f_theta survives in the metric trace
        b = make_base("axisphere", 100)
        f = np.cos(b.theta)
        H = covariant_derivatives(b, f)[1]
        assert np.max(np.abs(H[1, 1] - b.sin * b.cos * b.differences(f)[0])) == 0.0
        assert np.max(np.abs(H[0, 1])) == 0.0

    def test_weights_positive(self):
        b = make_base("axisphere", 64)
        assert np.all(b._weights > 0.0)


class TestPointBase:
    def test_derivatives_empty(self):
        b = make_base("point", d=2)
        g, H = covariant_derivatives(b, np.array([1.7]))
        assert g.shape == (0, 1)
        assert H.shape == (0, 0, 1)

    def test_sigma_empty(self):
        b = make_base("point")
        assert b.sigma_diag().shape == (0, 1)
        assert b.sigma_inv_diag().shape == (0, 1)

    def test_ricci_dphi_zero(self):
        b = make_base("point")
        assert b.ricci_dphi(covariant_derivatives(b, np.array([2.0]))[0]) == 0.0
