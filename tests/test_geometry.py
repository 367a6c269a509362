"""Tests for pointwise graph geometry against closed-form and embedding oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow.flow import FlowConfig, run
from imcflow.geometry import (
    GraphState,
    OracleUnsupportedError,
    embedding_oracle_H,
    snapshot,
)
from imcflow.manifold import make_base
from imcflow.warp import PRESETS, make_warp, r_at_h
from probes import Kh, induced_metric


def slice_state(base, wspec, r0):
    return GraphState.from_radius(base, wspec, np.full(base.shape, float(r0)))


def wavy_state(base, wspec, r0=2.0, amp=0.1, mode=1):
    r = r0 + amp * np.cos(mode * base.theta)
    return GraphState.from_radius(base, wspec, r)


class TestGraphState:
    def test_ambient_dimension(self):
        assert GraphState(make_base("axisphere", 8), make_warp("euclidean"),
                          np.zeros(8)).n == 3
        assert GraphState(make_base("circle", 8), make_warp("euclidean"),
                          np.zeros(8)).n == 2
        assert GraphState(make_base("point", d=4), make_warp("euclidean"),
                          np.zeros(1)).n == 5

    def test_radius_round_trip(self):
        base = make_base("axisphere", 32)
        for pid in ("euclidean", "hyperbolic", "saturating"):
            w = make_warp(pid)
            r = 2.0 + 0.3 * np.cos(base.theta)
            st = GraphState.from_radius(base, w, r)
            np.testing.assert_allclose(st.radius(), r, rtol=1e-10)

    def test_shape_validation(self):
        base = make_base("circle", 16)
        with pytest.raises(ValueError, match="shape"):
            GraphState(base, make_warp("euclidean"), np.zeros(17))


class TestRoundSlices:
    """Constant-radius graphs have closed-form geometry."""

    def test_euclidean_slice(self):
        # sphere of radius 2 in R^3: Theta=1, H=1, omega=2, u=1/2, F=2
        s = snapshot(slice_state(make_base("axisphere", 64), make_warp("euclidean"), 2.0))
        np.testing.assert_allclose(s.theta, 1.0, atol=1e-12)
        np.testing.assert_allclose(s.H, 1.0, atol=1e-12)
        np.testing.assert_allclose(s.omega, 2.0, atol=1e-12)
        np.testing.assert_allclose(s.u, 0.5, atol=1e-12)
        np.testing.assert_allclose(s.F, 2.0, atol=1e-12)

    def test_hyperbolic_slice(self):
        # geodesic sphere with sinh(r) = 1: H = 2 sqrt(2), omega = 1
        r1 = float(np.arcsinh(1.0))
        s = snapshot(slice_state(make_base("axisphere", 64), make_warp("hyperbolic"), r1))
        np.testing.assert_allclose(s.H, 2.0 * np.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(s.omega, 1.0, rtol=1e-12)
        np.testing.assert_allclose(s.u, 1.0 / (2.0 * np.sqrt(2.0)), rtol=1e-12)

    def test_schwarzschild_slice(self):
        w = make_warp("schwarzschild3", m=0.5)
        r2 = r_at_h(w, 2.0)
        s = snapshot(slice_state(make_base("axisphere", 64), w, r2))
        # H = 2 h'/h with h' = sqrt(1 - 2m/h) = sqrt(1/2)
        np.testing.assert_allclose(s.H, np.sqrt(0.5), rtol=1e-9)
        np.testing.assert_allclose(s.ric_rr, -0.125, rtol=1e-9)

    def test_circle_slice(self):
        # plane circle of radius 3: curvature 1/3
        s = snapshot(slice_state(make_base("circle", 32), make_warp("euclidean"), 3.0))
        np.testing.assert_allclose(s.H, 1.0 / 3.0, rtol=1e-12)
        assert s.n == 2

    def test_point_slice(self):
        b = make_base("point", d=2)
        s = snapshot(slice_state(b, make_warp("euclidean"), 2.0))
        assert s.shape.shape == (0, 0, 1)
        np.testing.assert_allclose(s.H, 1.0, rtol=1e-12)
        np.testing.assert_allclose(s.A2, 0.5, rtol=1e-12)  # 2 (h'/h)^2
        np.testing.assert_allclose(s.u, 0.5, rtol=1e-12)


class TestMetric:
    def test_induced_metric_component(self):
        # r = 2 + 0.1 cos(theta): at theta = pi/2, g_thth = h^2(1 + phi_t^2) = 4.01
        base = make_base("axisphere", 200)
        st = wavy_state(base, make_warp("euclidean"))
        g, _ = induced_metric(st)
        j = int(np.argmin(np.abs(base.theta - np.pi / 2)))
        assert abs(g[0, 0][j] - 4.01) < 5e-3  # node sits dtheta/2 off pi/2

    @pytest.mark.parametrize("kind,res", [("circle", 64), ("axisphere", 64)])
    def test_metric_inverse(self, kind, res):
        base = make_base(kind, res)
        st = wavy_state(base, make_warp("euclidean"), amp=0.3, mode=2)
        g, gi = induced_metric(st)
        prod = np.einsum("ij...,jk...->ik...", g, gi)
        for i in range(base.dc):
            prod[i, i] -= 1.0
        assert np.max(np.abs(prod)) < 1e-12

    def test_metric_inverse_torus(self):
        base = make_base("torus2", 16)
        X, Y = np.meshgrid(base.x, base.x, indexing="ij")
        r = 2.0 + 0.2 * np.cos(X) * np.cos(Y)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        g, gi = induced_metric(st)
        prod = np.einsum("ij...,jk...->ik...", g, gi)
        prod[0, 0] -= 1.0
        prod[1, 1] -= 1.0
        assert np.max(np.abs(prod)) < 1e-12

    def test_metric_scaling_on_slice(self):
        # constant graph: g = h^2 sigma exactly
        base = make_base("axisphere", 32)
        g, gi = induced_metric(slice_state(base, make_warp("euclidean"), 2.0))
        np.testing.assert_allclose(g[0, 0], 4.0, rtol=1e-12)
        np.testing.assert_allclose(g[1, 1], 4.0 * base.sin ** 2, rtol=1e-12)
        np.testing.assert_allclose(gi[1, 1], 0.25 / base.sin ** 2, rtol=1e-12)


class TestShapeOperator:
    def test_trace_is_mean_curvature(self):
        base = make_base("axisphere", 100)
        st = wavy_state(base, make_warp("euclidean"), amp=0.3)
        s = snapshot(st)
        trace = s.shape[0, 0] + s.shape[1, 1]
        np.testing.assert_allclose(trace, s.H, rtol=1e-12)

    def test_trace_torus(self):
        base = make_base("torus2", 12)
        X, Y = np.meshgrid(base.x, base.x, indexing="ij")
        st = GraphState.from_radius(base, make_warp("euclidean"),
                                    2.0 + 0.2 * np.sin(X + Y))
        s = snapshot(st)
        np.testing.assert_allclose(s.shape[0, 0] + s.shape[1, 1], s.H, rtol=1e-12)

    def test_cauchy_schwarz(self):
        # |A|^2 >= H^2/(n-1) with equality on round slices
        base = make_base("axisphere", 100)
        s = snapshot(wavy_state(base, make_warp("euclidean"), amp=0.25, mode=2))
        assert np.all((s.n - 1) * s.A2 >= s.H ** 2 - 1e-12)
        s0 = snapshot(slice_state(base, make_warp("euclidean"), 2.0))
        np.testing.assert_allclose(2.0 * s0.A2, s0.H ** 2, rtol=1e-12)

    def test_off_center_sphere_umbilic(self):
        # sphere of radius 2 offset 0.3 along the axis, seen as a graph:
        # both principal curvatures are 1/2 up to O(dtheta^2)
        base = make_base("axisphere", 200)
        d = 0.3
        r = d * base.cos + np.sqrt(4.0 - d ** 2 * base.sin ** 2)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        s = snapshot(st)
        assert np.max(np.abs(s.shape[0, 0] - 0.5)) < 1e-3
        assert np.max(np.abs(s.shape[1, 1] - 0.5)) < 1e-3
        assert np.max(np.abs(s.shape[0, 1])) == 0.0
        np.testing.assert_allclose(s.A2, 0.5, atol=1e-3)

    def test_umbilic_deviation_measure(self):
        base = make_base("axisphere", 100)
        s0 = snapshot(slice_state(base, make_warp("euclidean"), 2.0))
        assert s0.shape_dev_max < 1e-12
        s1 = snapshot(wavy_state(base, make_warp("euclidean"), amp=0.3))
        assert s1.shape_dev_max > 1e-2


class TestThetaAndU:
    def test_theta_range(self):
        base = make_base("axisphere", 100)
        for amp in (0.0, 0.1, 0.4):
            s = snapshot(wavy_state(base, make_warp("euclidean"), amp=amp, mode=2))
            assert np.all(s.theta > 0.0)
            assert np.all(s.theta <= 1.0)

    def test_u_nan_where_not_mean_convex(self):
        # deep three-lobed curve: curvature changes sign at the troughs
        base = make_base("circle", 128)
        st = wavy_state(base, make_warp("euclidean"), r0=1.0, amp=0.3, mode=3)
        s = snapshot(st)
        assert np.min(s.H) < 0.0
        bad = s.H <= 0.0
        assert np.all(np.isnan(s.u[bad]))
        assert np.all(np.isfinite(s.u[~bad]))

    def test_u_against_definition(self):
        base = make_base("axisphere", 64)
        s = snapshot(wavy_state(base, make_warp("euclidean"), amp=0.2))
        good = s.H > 0.0
        np.testing.assert_allclose(s.u[good], 1.0 / (s.H * s.omega)[good], rtol=1e-12)


class TestAmbientRicci:
    def test_flat_ambient_zero(self):
        # euclidean warp over circle/axisphere is flat space
        for kind, res in (("circle", 64), ("axisphere", 64)):
            base = make_base(kind, res)
            st = wavy_state(base, make_warp("euclidean"), amp=0.3, mode=2)
            s = snapshot(st)
            assert np.max(np.abs(s.ric_vv)) < 1e-14
            assert np.max(np.abs(s.ric_rr)) < 1e-14

    def test_hyperbolic_is_einstein(self):
        # sinh warp over the unit sphere is H^3: Ric = -2 g for any direction,
        # so ric_vv = ric_rr = -2 on every state, wavy or not
        base = make_base("axisphere", 64)
        st = wavy_state(base, make_warp("hyperbolic"), amp=0.3)
        s = snapshot(st)
        np.testing.assert_allclose(s.ric_vv, -2.0, atol=1e-12)
        np.testing.assert_allclose(s.ric_rr, -2.0, atol=1e-12)

    def test_cone_over_torus_not_flat(self):
        # euclidean warp over the flat torus is a cone: Ric(v,v) < 0 off slices
        base = make_base("torus2", 16)
        X, Y = np.meshgrid(base.x, base.x, indexing="ij")
        st = GraphState.from_radius(base, make_warp("euclidean"),
                                    2.0 + 0.2 * np.cos(X))
        s = snapshot(st)
        assert np.min(s.ric_vv) < -1e-4
        # and exactly zero where the graph is radial (D phi = 0)
        flat_nodes = s.dphi2 == 0.0
        assert np.max(np.abs(s.ric_vv[flat_nodes])) == 0.0

    def test_schwarzschild_ricci_values(self):
        w = make_warp("schwarzschild3", m=0.5)
        base = make_base("axisphere", 32)
        st = slice_state(base, w, r_at_h(w, 2.0))
        # -(n-1) h''/h with h'' = m/h^2 at h = 2
        np.testing.assert_allclose(snapshot(st).ric_rr, -0.125, rtol=1e-9)

    def test_restricted_curvature_term(self):
        # euclidean over axisphere: (n-2)(h h'' - h'^2) + Ric_N(v_N,v_N) = -1 + 1
        base = make_base("axisphere", 64)
        s = snapshot(wavy_state(base, make_warp("euclidean"), amp=0.2))
        moving = s.dphi2 > 0.0
        np.testing.assert_allclose(Kh(s)[moving], 0.0, atol=1e-10)
        np.testing.assert_allclose(Kh(s)[~moving], -1.0, atol=1e-12)

    def test_schwarzschild_curvature_term_on_slices(self):
        # (n-2) (h h'' - h'^2) with n = 3 and h'^2 = 1 - 2m/h: 3m/h - 1,
        # plus a restricted base Ricci term that is 0 where D phi = 0
        w = make_warp("schwarzschild3", m=0.5)
        for base in (make_base("point", d=2), make_base("axisphere", 8)):
            for target in (1.6, 2.0, 5.0, 50.0, 500.0):
                s = snapshot(slice_state(base, w, r_at_h(w, target)))
                np.testing.assert_array_equal(Kh(s), 1.5 / s.h - 1.0)


DERIVED = ("u", "ric_dphi", "ric_rr", "ric_vv")


def _eager_derived(state, s):
    """u and the Ricci terms by the expressions snapshot once evaluated
    eagerly, from the snapshot's other fields; the bitwise reference for
    the fields it now derives on first read."""
    base, n, nm1 = state.base, state.n, state.base.d
    h, hp, hpp, theta, H, omega = s.h, s.hp, s.hpp, s.theta, s.H, s.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(H > 0.0, 1.0 / (H * omega), np.nan)
    if base.dc == 0:
        ric_dphi = np.zeros(base.shape)
        ric_rr = -nm1 * hpp / h
        ric_vv = ric_rr.copy()
    else:
        ric_dphi = base.ricci_dphi(s.grad)
        dphi2 = s.dphi2
        ric_rr = np.broadcast_to(-nm1 * hpp / h, base.shape).copy()
        theta2 = theta ** 2
        ric_vv = theta2 * ric_rr + (theta2 / h ** 2) * (
            ric_dphi - (h * hpp + (n - 2) * hp ** 2) * dphi2)
    return dict(u=u, ric_dphi=ric_dphi, ric_rr=ric_rr, ric_vv=ric_vv)


class TestDerivedOnFirstRead:
    """snapshot derives u and the Ricci terms when they are first read:
    with the eager expressions' bits, never for a trace row, and under the
    numpy error state of the snapshot's making."""

    @pytest.mark.parametrize("pid", sorted(PRESETS))
    @pytest.mark.parametrize("kind", ["point", "circle", "axisphere", "torus2"])
    @pytest.mark.parametrize("amp", [0.0, 0.45])
    def test_equal_to_the_eager_expressions(self, kind, pid, amp):
        w = make_warp(pid, p=2.0) if pid == "power" else make_warp(pid)
        if kind == "point":
            base = make_base("point", d=2)
            x = np.zeros(1)
        else:
            base = make_base(kind, 8 if kind == "torus2" else 24)
            x = base.theta if kind != "torus2" else base.x[:, None] + base.x
        # amp 0.45 bends three lobes until H < 0 at their troughs (u NaN)
        # on the field bases; amp 0 is a slice, where D phi = 0
        state = GraphState.from_radius(base, w, 0.8 * (1.0 + amp * np.cos(3 * x)))
        s = snapshot(state)
        ref = _eager_derived(state, s)
        for name in DERIVED:
            got = getattr(s, name)
            assert got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name
            assert np.array_equal(np.isnan(got), np.isnan(ref[name])), name
            assert getattr(s, name) is got       # kept after the first read

    def test_rows_never_read_the_derived_fields(self):
        # the base's Ricci term enters ric_dphi and ric_vv, and only them
        base = make_base("axisphere", 16)
        state = GraphState.from_radius(base, make_warp("schwarzschild3"),
                                       2.0 * (1.0 + 0.1 * np.cos(base.theta)))
        with mock.patch.object(type(base), "ricci_dphi",
                               side_effect=AssertionError("Ricci read")):
            tr = run(state, FlowConfig(t_end=1.0, record_every=0.1,
                                       snapshot_every=0.25))
            assert tr.completed and len(tr.times) == 11 and len(tr.snapshots) == 5
            with pytest.raises(AssertionError, match="Ricci read"):
                tr.snapshots[-1][2].ric_vv

    def test_read_under_the_error_state_of_the_snapshot(self):
        # h = sinh r overflows h^2 near r = 400, and ric_vv takes 0 * inf
        base = make_base("axisphere", 16)
        state = GraphState.from_radius(base, make_warp("hyperbolic"),
                                       400.0 * (1.0 + 0.01 * np.cos(base.theta)))
        with np.errstate(over="ignore", invalid="ignore"):
            quiet = snapshot(state)
        loud = snapshot(state)
        assert np.isnan(quiet.ric_vv).all()
        with pytest.raises(RuntimeWarning, match="overflow"):
            loud.ric_vv


class TestEmbeddingOracle:
    def test_slice_agreement(self):
        base = make_base("axisphere", 64)
        st = slice_state(base, make_warp("euclidean"), 2.0)
        np.testing.assert_allclose(embedding_oracle_H(st), 1.0, atol=1e-12)
        bc = make_base("circle", 32)
        st = slice_state(bc, make_warp("euclidean"), 3.0)
        np.testing.assert_allclose(embedding_oracle_H(st), 1.0 / 3.0, rtol=1e-12)

    def test_wavy_agreement_and_refinement(self):
        diffs = {}
        for M in (200, 400):
            base = make_base("axisphere", M)
            st = wavy_state(base, make_warp("euclidean"))
            rel = np.abs(embedding_oracle_H(st) - snapshot(st).H)
            diffs[M] = float(np.max(rel / np.abs(embedding_oracle_H(st))))
        assert diffs[200] < 1e-3
        assert 3.2 < diffs[200] / diffs[400] < 4.8

    def test_circle_wavy_agreement(self):
        base = make_base("circle", 128)
        st = wavy_state(base, make_warp("euclidean"), r0=1.0, amp=0.3, mode=3)
        assert np.max(np.abs(embedding_oracle_H(st) - snapshot(st).H)) < 0.05

    def test_off_center_sphere_unit_H(self):
        base = make_base("axisphere", 200)
        d = 0.3
        r = d * base.cos + np.sqrt(4.0 - d ** 2 * base.sin ** 2)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        np.testing.assert_allclose(embedding_oracle_H(st), 1.0, atol=1e-3)
        np.testing.assert_allclose(snapshot(st).H, 1.0, atol=1e-3)

    def test_unsupported_cases(self):
        base = make_base("axisphere", 16)
        with pytest.raises(OracleUnsupportedError):
            embedding_oracle_H(slice_state(base, make_warp("hyperbolic"), 1.0))
        bt = make_base("torus2", 8)
        with pytest.raises(OracleUnsupportedError):
            embedding_oracle_H(slice_state(bt, make_warp("euclidean"), 2.0))


class TestConventions:
    def test_anchor_shift_invariance(self):
        # shifting the potential's additive normalization must not move any
        # geometric field: everything depends on phi through r and derivatives
        base = make_base("axisphere", 64)
        r = 2.0 + 0.2 * np.cos(base.theta)
        s1 = snapshot(GraphState.from_radius(base, make_warp("saturating"), r))
        s2 = snapshot(GraphState.from_radius(base, make_warp("saturating", phi0=1.7), r))
        np.testing.assert_allclose(s1.H, s2.H, atol=1e-11)
        np.testing.assert_allclose(s1.theta, s2.theta, atol=1e-12)
        np.testing.assert_allclose(Kh(s1), Kh(s2), atol=1e-11)
        np.testing.assert_allclose(s1.A2, s2.A2, atol=1e-11)

    def test_snapshot_time_passthrough(self):
        base = make_base("point")
        st = GraphState(base, make_warp("euclidean"), np.array([0.5]), t=2.5)
        assert snapshot(st).t == 2.5

    def test_osc_rescaled_h(self):
        base = make_base("circle", 32)
        st = wavy_state(base, make_warp("euclidean"), r0=2.0, amp=0.1)
        s = snapshot(st)
        # euclidean h = r: oscillation of r itself at t = 0
        assert s.osc_rescaled_h == pytest.approx(np.max(s.h) - np.min(s.h))


class TestRandomizedInvariants:
    """Light randomized sweep; the acceptance suite runs the full corpus."""

    @pytest.mark.parametrize("kind,res", [("circle", 48), ("axisphere", 48)])
    def test_random_states_1d(self, kind, res):
        rng = np.random.default_rng(11)
        base = make_base(kind, res)
        w = make_warp("euclidean")
        for _ in range(10):
            amps = 0.3 * rng.random(3) / 3.0
            phases = 2.0 * np.pi * rng.random(3)
            r = 2.0 + sum(a * np.cos((l + 1) * base.theta + p)
                          for l, (a, p) in enumerate(zip(amps, phases)))
            if kind == "axisphere":
                # axisymmetric smoothness across poles needs even symmetry
                r = 2.0 + sum(a * np.cos((l + 1) * base.theta)
                              for l, a in enumerate(amps))
            s = snapshot(GraphState.from_radius(base, w, r))
            assert np.all(s.theta > 0) and np.all(s.theta <= 1.0)
            assert np.all((s.n - 1) * s.A2 >= s.H ** 2 - 1e-12)
            trace = sum(s.shape[i, i] for i in range(base.dc))
            np.testing.assert_allclose(trace, s.H, rtol=1e-10, atol=1e-12)

    def test_random_states_torus(self):
        rng = np.random.default_rng(12)
        base = make_base("torus2", 12)
        X, Y = np.meshgrid(base.x, base.x, indexing="ij")
        for _ in range(10):
            a, b7, c = 0.1 * rng.random(3)
            r = 2.0 + a * np.cos(X) + b7 * np.sin(Y) + c * np.cos(X + Y)
            s = snapshot(GraphState.from_radius(base, make_warp("euclidean"), r))
            assert np.all(s.theta > 0) and np.all(s.theta <= 1.0)
            assert np.all((s.n - 1) * s.A2 >= s.H ** 2 - 1e-12)
            np.testing.assert_allclose(s.shape[0, 0] + s.shape[1, 1], s.H,
                                       rtol=1e-10, atol=1e-12)


PROPERTY_WARPS = {
    "euclidean": make_warp("euclidean"),
    "hyperbolic": make_warp("hyperbolic"),
    "power p=2": make_warp("power", p=2.0),
    "schwarzschild3": make_warp("schwarzschild3", m=0.5),
    "saturating": make_warp("saturating", a=2.0, b=1.0, k=2.0),
}
EPS = np.finfo(float).eps
# H = F/(h Theta) and |A|^2 = S^i_j S^j_i are rounded along different
# paths from the same curvatures, each to a relative few eps; where they
# are equal (umbilic nodes) H^2 exceeded (n-1)|A|^2 by at most 10 eps |A|^2
# over 20000 random states of this strategy
CAUCHY_SCHWARZ_ULPS = 16


@st.composite
def low_mode_states(draw):
    """A snapshot of r = r0 (1 + up to three low modes) on the axisphere or
    torus2, on every warp; total relative amplitude below 0.3."""
    kind = draw(st.sampled_from(["axisphere", "torus2"]))
    base = make_base(kind, draw(st.integers(6, 40 if kind == "axisphere" else 20)))
    w = PROPERTY_WARPS[draw(st.sampled_from(sorted(PROPERTY_WARPS)))]
    r0 = 10.0 ** draw(st.floats(-1.0, 1.5))
    n_modes = draw(st.integers(1, 3))
    r = np.full(base.shape, 1.0)
    for _ in range(n_modes):
        # amplitudes down to 1e-16: near-umbilic states are where
        # H^2 = (n-1)|A|^2 holds with equality
        a = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -0.53))
        if kind == "axisphere":
            # cos(l theta) is even across both poles, so smooth on the sphere
            r = r + a / n_modes * np.cos(draw(st.integers(1, 4)) * base.theta)
        else:
            p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            phase = draw(st.floats(0.0, 2.0 * np.pi))
            r = r + a / n_modes * np.cos(p * base.x[:, None] + q * base.x[None, :] + phase)
    return snapshot(GraphState.from_radius(base, w, r0 * r))


class TestSnapshotProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(low_mode_states())
    def test_theta_in_unit_interval(self, s):
        assert np.all(s.theta > 0.0) and np.all(s.theta <= 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(low_mode_states())
    def test_mean_curvature_below_norm_of_second_fundamental_form(self, s):
        # H^2 <= (n-1)|A|^2 (Cauchy-Schwarz on the n-1 principal curvatures),
        # to CAUCHY_SCHWARZ_ULPS ulps of |A|^2
        excess = s.H ** 2 - (s.n - 1) * s.A2
        assert np.all(excess <= CAUCHY_SCHWARZ_ULPS * EPS * s.A2)
