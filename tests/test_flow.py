"""Tests for the explicit time stepper: exactness, cadence, CFL bound, events."""

import math

import numpy as np
import pytest

from imcflow import flow as flow_mod
from imcflow.flow import (
    TRACE_COLUMNS,
    FlowConfig,
    MeanConvexityError,
    rhs,
    run,
    stable_dt,
)
from imcflow.geometry import GraphState, _light_fields
from imcflow.manifold import make_base
from imcflow.warp import make_warp, r_at_h, radial_potential

POINT = make_base("point", 2)  # surfaces in a 3-dimensional ambient


def point_state(wspec, r0):
    return GraphState.from_radius(POINT, wspec, np.array([float(r0)]))


def drift(trace):
    """max over record times of |h e^{-t/(n-1)} - h(0)| / h(0)."""
    nm1 = trace.n - 1
    h = 0.5 * (trace.columns["min_omega"] + trace.columns["max_omega"])
    resc = h * np.exp(-trace.times / nm1)
    return float(np.max(np.abs(resc - resc[0]) / resc[0]))


class TestFlowConfig:
    def test_rejects_unknown_integrator(self):
        with pytest.raises(ValueError, match="integrator"):
            FlowConfig(t_end=1.0, integrator="rk45")

    @pytest.mark.parametrize("field", ["t_end", "safety", "dt_max",
                                       "snapshot_every", "record_every"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            FlowConfig(**{"t_end": 1.0, field: 0.0})

    def test_theta_min_range(self):
        with pytest.raises(ValueError, match="theta_min"):
            FlowConfig(t_end=1.0, theta_min=1.0)
        with pytest.raises(ValueError, match="theta_min"):
            FlowConfig(t_end=1.0, theta_min=-0.1)
        FlowConfig(t_end=1.0, theta_min=0.0)


class TestPointExactness:
    """On the point base the flow reduces to an ODE with h(r(t)) = h(r0) e^{t/(n-1)}."""

    def test_euclidean_radius_doubles_like_exp(self):
        tr = run(point_state(make_warp("euclidean"), 1.0),
                 FlowConfig(t_end=2.0, dt_max=1e-3))
        r_final = tr.snapshots[-1][1].radius()[0]
        assert tr.completed
        assert abs(r_final - math.e) / math.e < 1e-10

    def test_schwarzschild_horizon_growth(self):
        w = make_warp("schwarzschild3", m=0.5)
        tr = run(point_state(w, r_at_h(w, 2.0)),
                 FlowConfig(t_end=3.0, dt_max=1e-3))
        h_final = tr.columns["max_omega"][-1]  # omega = h on slices
        assert abs(h_final - 2.0 * math.exp(1.5)) / (2.0 * math.exp(1.5)) < 1e-10

    @pytest.mark.parametrize("pid,kw,r0", [
        ("euclidean", {}, 1.0),
        ("hyperbolic", {}, 1.0),
        ("schwarzschild3", {"m": 0.5}, None),   # start at h = 2
        ("saturating", {"a": 2.0, "b": 1.0, "k": 1.0}, 1.0),
    ])
    def test_rescaled_h_constant_to_1e10(self, pid, kw, r0):
        w = make_warp(pid, **kw)
        if r0 is None:
            r0 = r_at_h(w, 2.0)
        tr = run(point_state(w, r0), FlowConfig(t_end=5.0, dt_max=1e-3))
        assert tr.completed
        assert drift(tr) < 1e-10

    def test_trace_endpoints_exact(self):
        tr = run(point_state(make_warp("euclidean"), 1.0),
                 FlowConfig(t_end=5.0, dt_max=1e-3))
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 5.0
        assert tr.columns["dt"][0] == 0.0
        assert np.all(tr.columns["dt"][1:] > 0.0)


class TestTemporalOrder:
    def test_euler_first_order_rk4_much_better(self):
        # hyperbolic speed is nonlinear in phi, so integrator order shows
        w = make_warp("hyperbolic")
        errs = {}
        for dt in (2e-3, 1e-3):
            tr = run(point_state(w, 1.0),
                     FlowConfig(t_end=2.0, integrator="euler", dt_max=dt))
            errs[dt] = drift(tr)
        ratio = errs[2e-3] / errs[1e-3]
        assert 1.7 < ratio < 2.3
        tr4 = run(point_state(w, 1.0), FlowConfig(t_end=2.0, dt_max=1e-3))
        assert drift(tr4) < 1e-11
        assert errs[1e-3] > 1e-6


class TestScalarSpeed:
    """The single-node fast path must agree with the generic field evaluation."""

    @pytest.mark.parametrize("pid,kw,phi_grid", [
        ("euclidean", {}, np.linspace(-1.0, 3.0, 7)),
        ("hyperbolic", {}, np.linspace(-3.0, -0.05, 7)),
        ("power", {"p": 2.0}, np.linspace(-2.0, 0.9, 7)),
        ("schwarzschild3", {"m": 0.5}, np.linspace(0.2, 2.5, 7)),
        ("saturating", {"a": 2.0, "b": 1.0, "k": 1.0}, np.linspace(0.1, 0.8, 7)),
    ])
    def test_matches_field_speed(self, pid, kw, phi_grid):
        w = make_warp(pid, **kw)
        speed, lo, hi = flow_mod._scalar_speed(w, POINT.d)
        for phi in phi_grid:
            assert lo < phi < hi
            lf = _light_fields(GraphState(POINT, w, np.array([phi])))
            want = 1.0 / float(lf["F"][0])
            assert abs(speed(phi) - want) / want < 1e-9

    def test_euclidean_speed_is_exact_constant(self):
        speed, _, _ = flow_mod._scalar_speed(make_warp("euclidean"), 3)
        assert speed(-2.0) == speed(7.0) == 1.0 / 3.0

    def test_domain_edges_raise(self):
        from imcflow.warp import WarpDomainError
        speed, _, _ = flow_mod._scalar_speed(make_warp("hyperbolic"), 2)
        with pytest.raises(WarpDomainError):
            speed(0.0)


class TestStableDt:
    def test_axisphere_slice_reference_value(self):
        # slice r=2 euclidean: Theta=1, F=2, top eigenvalue 1/F^2 = 0.25;
        # dt = 0.5 (pi/100)^2 / (2*2*0.25)
        base = make_base("axisphere", 100)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(100, 2.0))
        dt = stable_dt(st, FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0))
        want = 0.5 * (math.pi / 100) ** 2 / (2 * 2 * 0.25)
        assert abs(dt - want) / want < 1e-12
        assert abs(dt - 4.9348e-4) < 1e-8

    def test_refinement_quarters_dt(self):
        w = make_warp("euclidean")
        cfg = FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0)

        def dt_at(M, wavy):
            base = make_base("axisphere", M)
            r = np.full(M, 2.0) if not wavy else 2.0 + 0.1 * np.cos(base.theta)
            return stable_dt(GraphState.from_radius(base, w, r), cfg)

        # slices have grid-independent coefficients, so the ratio is exact
        assert abs(dt_at(100, False) / dt_at(200, False) - 4.0) < 1e-12
        # wavy profiles re-sample the coefficient field: 4 + O(dtheta^2)
        assert abs(dt_at(100, True) / dt_at(200, True) - 4.0) < 1e-3

    def test_circle_slice_reference_value(self):
        # d=1 and the lone eigenvalue is Theta^4/F^2 = 1 on the slice r=2
        base = make_base("circle", 100)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(100, 2.0))
        dt = stable_dt(st, FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0))
        want = 0.5 * (2 * math.pi / 100) ** 2 / (2 * 1 * 1.0)
        assert abs(dt - want) / want < 1e-12

    def test_dt_max_binds(self):
        base = make_base("axisphere", 100)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(100, 2.0))
        assert stable_dt(st, FlowConfig(t_end=1.0, dt_max=1e-5)) == 1e-5

    def test_point_base_returns_dt_max(self):
        st = point_state(make_warp("hyperbolic"), 1.0)
        assert stable_dt(st, FlowConfig(t_end=1.0, dt_max=0.37)) == 0.37

    def test_waviness_only_shrinks_dt(self):
        base = make_base("axisphere", 64)
        w = make_warp("euclidean")
        cfg = FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0)
        flat = stable_dt(GraphState.from_radius(base, w, np.full(64, 1.0)), cfg)
        wavy = stable_dt(GraphState.from_radius(
            base, w, 1.0 + 0.3 * np.cos(base.theta)), cfg)
        assert 0.0 < wavy < flat


class TestRhs:
    def test_slice_speed_is_one_over_F(self):
        base = make_base("axisphere", 32)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(32, 2.0))
        np.testing.assert_allclose(rhs(st), 0.5, atol=1e-12)

    def test_raises_on_nonconvex_state(self):
        base = make_base("circle", 64)
        r = 1.0 + 0.3 * np.cos(3 * base.theta)   # min H < 0 for this profile
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        with pytest.raises(MeanConvexityError) as exc:
            rhs(st)
        assert exc.value.value <= 0.0
        assert 0 <= exc.value.node < 64


class TestCadence:
    def make_trace(self, t_end, record_every=0.1, snapshot_every=0.2):
        base = make_base("axisphere", 16)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(16, 1.0))
        return run(st, FlowConfig(t_end=t_end, record_every=record_every,
                                  snapshot_every=snapshot_every,
                                  safety=0.5, dt_max=5e-3))

    def test_offgrid_t_end_gets_terminal_row(self):
        tr = self.make_trace(0.35)
        np.testing.assert_allclose(tr.times, [0.0, 0.1, 0.2, 0.3, 0.35],
                                   atol=1e-12)
        np.testing.assert_allclose(tr.snapshot_times(), [0.0, 0.2, 0.35],
                                   atol=1e-12)

    def test_ongrid_t_end_not_duplicated(self):
        tr = self.make_trace(0.4)
        np.testing.assert_allclose(tr.times, [0.0, 0.1, 0.2, 0.3, 0.4],
                                   atol=1e-12)
        np.testing.assert_allclose(tr.snapshot_times(), [0.0, 0.2, 0.4],
                                   atol=1e-12)
        assert np.all(np.diff(tr.times) > 0)

    def test_coarse_cadence_keeps_endpoints(self):
        tr = self.make_trace(0.05, record_every=1.0, snapshot_every=1.0)
        np.testing.assert_allclose(tr.times, [0.0, 0.05], atol=1e-15)
        np.testing.assert_allclose(tr.snapshot_times(), [0.0, 0.05], atol=1e-15)

    def test_trace_contract(self):
        tr = self.make_trace(0.3)
        assert set(tr.columns) == set(TRACE_COLUMNS)
        for col in TRACE_COLUMNS:
            assert len(tr.columns[col]) == len(tr.times)
        assert tr.n == 3
        assert tr.completed
        assert tr.t_final == tr.times[-1]


class TestEvents:
    def test_initial_loss_of_mean_convexity_keeps_offending_state(self):
        base = make_base("circle", 64)
        r = 1.0 + 0.3 * np.cos(3 * base.theta)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        tr = run(st, FlowConfig(t_end=1.0))
        assert not tr.completed
        assert tr.terminal.kind == "loss_of_mean_convexity"
        assert tr.terminal.t == 0.0
        assert list(tr.times) == [0.0]
        # the stored snapshot re-verifies the event
        t_s, _, snap = tr.snapshots[-1]
        assert t_s == 0.0
        assert float(np.min(snap.F)) <= 0.0
        assert tr.terminal.value == float(np.min(snap.F))

    def test_initial_angle_degeneracy(self):
        base = make_base("axisphere", 64)
        r = 1.0 + 0.3 * np.cos(base.theta)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        tr = run(st, FlowConfig(t_end=1.0, theta_min=0.999))
        assert tr.terminal.kind == "angle_degeneracy"
        _, _, snap = tr.snapshots[-1]
        assert float(np.min(snap.theta)) < 0.999
        assert tr.terminal.value == float(np.min(snap.theta))

    def test_initial_domain_violation_yields_empty_trace(self):
        # hyperbolic potential must be negative; phi=+0.5 is outside Phi's image
        st = GraphState(POINT, make_warp("hyperbolic"), np.array([0.5]))
        tr = run(st, FlowConfig(t_end=1.0))
        assert tr.terminal.kind == "domain"
        assert len(tr.times) == 0
        assert tr.t_final == 0.0
        assert tr.snapshots == []

    def test_initial_nan_yields_numeric_event(self):
        st = GraphState(POINT, make_warp("euclidean"), np.array([math.nan]))
        tr = run(st, FlowConfig(t_end=1.0))
        assert tr.terminal.kind == "numeric"
        assert len(tr.times) == 0

    def test_midrun_domain_exit_keeps_last_valid_state_point(self):
        # the saturating warp is tabulated up to finite r; the expanding flow
        # reaches the table edge in finite time
        w = make_warp("saturating", a=2.0, b=1.0, k=1.0)
        tr = run(point_state(w, 5000.0), FlowConfig(t_end=3.0, dt_max=1e-2))
        assert tr.terminal.kind == "domain"
        assert 0.0 < tr.t_final <= tr.terminal.t
        assert np.all(np.diff(tr.times) > 0)
        t_s, st_last, snap = tr.snapshots[-1]
        assert np.isfinite(snap.F).all()       # stored state is still valid
        assert float(snap.F.min()) > 0.0

    def test_midrun_domain_exit_keeps_last_valid_state_field(self):
        base = make_base("axisphere", 8)
        w = make_warp("saturating", a=2.0, b=1.0, k=1.0)
        r = 5000.0 * (1.0 + 0.01 * np.cos(base.theta))
        st = GraphState.from_radius(base, w, r)
        tr = run(st, FlowConfig(t_end=3.0, dt_max=1e-2, safety=0.5))
        assert tr.terminal.kind == "domain"
        assert 0.0 < tr.t_final <= tr.terminal.t
        _, _, snap = tr.snapshots[-1]
        assert np.isfinite(snap.F).all()

    def test_radius_domain_event_names_the_offending_node(self):
        # phi = 710 inverts to r = e^710 = inf; the radius check names node 9
        base = make_base("axisphere", 16)
        phi = np.zeros(16)
        phi[9] = 710.0
        with np.errstate(over="ignore"):
            tr = run(GraphState(base, make_warp("euclidean"), phi),
                     FlowConfig(t_end=1.0))
        ev = tr.terminal
        assert (ev.kind, ev.t, ev.node, ev.value) == ("domain", 0.0, 9, 710.0)
        assert tr.snapshots == []

    def test_event_repr_round_trips(self):
        st = GraphState(POINT, make_warp("hyperbolic"), np.array([0.5]))
        ev = run(st, FlowConfig(t_end=1.0)).terminal
        d = ev.as_dict()
        assert d["kind"] == "domain" and d["t"] == 0.0
        assert isinstance(d["node"], int)


class TestSymmetryAndMonotonicity:
    def test_reflection_equivariance_bitwise(self):
        # theta -> pi - theta maps node j to M-1-j on the cell-centred grid
        base = make_base("axisphere", 32)
        w = make_warp("euclidean")
        cfg = FlowConfig(t_end=1.0, safety=0.5, dt_max=5e-3)
        r = 1.0 + 0.3 * np.cos(base.theta)
        a = run(GraphState.from_radius(base, w, r), cfg)
        b = run(GraphState.from_radius(base, w, r[::-1].copy()), cfg)
        assert a.completed and b.completed
        pa = a.snapshots[-1][1].phi
        pb = b.snapshots[-1][1].phi
        assert np.array_equal(pa, pb[::-1])

    def test_rotation_equivariance_bitwise(self):
        base = make_base("circle", 32)
        w = make_warp("euclidean")
        cfg = FlowConfig(t_end=0.5, safety=0.5, dt_max=5e-3)
        r = 1.5 + 0.2 * np.cos(base.theta)
        a = run(GraphState.from_radius(base, w, r), cfg)
        b = run(GraphState.from_radius(base, w, np.roll(r, 5)), cfg)
        assert np.array_equal(np.roll(a.snapshots[-1][1].phi, 5),
                              b.snapshots[-1][1].phi)

    def test_expansion_is_nodewise_monotone(self):
        base = make_base("axisphere", 32)
        r = 1.0 + 0.3 * np.cos(base.theta)
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        tr = run(st, FlowConfig(t_end=2.0, safety=0.5, dt_max=5e-3,
                                snapshot_every=0.5))
        assert tr.completed
        for (_, s0, _), (_, s1, _) in zip(tr.snapshots, tr.snapshots[1:]):
            assert np.all(s1.phi > s0.phi)

    def test_record_times_strictly_increase(self):
        tr = run(point_state(make_warp("hyperbolic"), 1.0),
                 FlowConfig(t_end=1.0, dt_max=1e-3, record_every=0.05))
        assert np.all(np.diff(tr.times) > 0)
