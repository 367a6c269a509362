"""Tests for the explicit time stepper: exactness, cadence, CFL bound, events."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow import flow as flow_mod
from imcflow.flow import (
    TRACE_COLUMNS,
    FlowConfig,
    run,
)
from imcflow.geometry import GraphState, _light_fields, snapshot
from imcflow.manifold import make_base
from imcflow.warp import (field_hp, make_warp, phi_domain_violation, r_at_h,
                          radial_potential, scalar_speed, warp_at_phi)
from probes import stable_dt

POINT = make_base("point", d=2)  # surfaces in a 3-dimensional ambient


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
        with pytest.raises(ValueError, match="unknown integrator 'euler'"):
            FlowConfig(t_end=1.0, integrator="euler")

    @pytest.mark.parametrize("field", ["t_end", "safety", "dt_max",
                                       "snapshot_every", "record_every"])
    def test_rejects_nonpositive(self, field):
        # NaN fails every comparison, and an infinite t_end leaves no end time
        for value in (0.0, math.nan) + ((math.inf,) if field == "t_end" else ()):
            with pytest.raises(ValueError, match=field):
                FlowConfig(**{"t_end": 1.0, field: value})

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
    def test_rk4_is_fourth_order(self):
        # hyperbolic speed is nonlinear in phi, so the integrator's order
        # shows: halving dt divides the drift by 2^4 (16.12 from 0.05 to
        # 0.025, 16.06 from 0.025 to 0.0125)
        w = make_warp("hyperbolic")
        errs = [drift(run(point_state(w, 1.0),
                          FlowConfig(t_end=2.0, dt_max=dt)))
                for dt in (0.05, 0.025)]
        assert 15.0 < errs[0] / errs[1] < 17.0


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
        speed, _, _ = scalar_speed(w, POINT.d)
        for phi in phi_grid:
            assert phi_domain_violation(w, np.array([phi])) is None
            lf = _light_fields(GraphState(POINT, w, np.array([phi])))
            want = 1.0 / float(lf["F"][0])
            assert abs(speed(phi) - want) / want < 1e-9
        if pid == "schwarzschild3":
            # the float path is field_hp step for step: equal bits
            lo, hi = w._phi_domain
            phis = np.random.default_rng(5).uniform(lo, hi, 2000)
            phis = np.concatenate([phi_grid, phis[(phis > lo) & (phis < hi)]])
            hp = field_hp(w)[0](phis)
            assert all(speed(v) == 1.0 / (POINT.d * h)
                       for v, h in zip(phis.tolist(), hp.tolist()))

    def test_euclidean_speed_is_exact_constant(self):
        speed, _, _ = scalar_speed(make_warp("euclidean"), 3)
        assert speed(-2.0) == speed(7.0) == 1.0 / 3.0

    def test_power_last_valid_potential_passes_point_check(self):
        # 1/(p-1) sits one ulp below the rule's bound for p = 2.9
        w = make_warp("power", p=2.9)
        phi = 0.5263157894736842
        assert phi_domain_violation(w, np.array([phi])) is None
        stepper = flow_mod._PointStepper(POINT, w, FlowConfig(t_end=1.0),
                                         flow_mod._RunStats())
        # the check is the float speed itself, no closure around it
        assert stepper.check is scalar_speed(w, POINT.d)[0]
        assert stepper.check(phi) == scalar_speed(w, POINT.d)[0](phi) > 0.0
        out = math.nextafter(phi, 1.0)
        assert stepper.check(out) is None
        assert stepper.event(out, 0.0).kind == "domain"

    def test_domain_edges_raise(self):
        _, lo, hi = scalar_speed(make_warp("hyperbolic"), 2)
        assert not lo < 0.0 < hi

    @pytest.mark.parametrize("r", [3.0, 10.0, 20.0, 30.0, 37.0, 40.0, 100.0])
    def test_hyperbolic_speed_keeps_precision_at_large_radius(self, r):
        # 1 - e^{2 phi} once cancelled: 2.4 % off at r = 37, 0 from r = 38
        w = make_warp("hyperbolic")
        phi = radial_potential(w, np.array([r]))
        want = 1.0 / (2.0 * float(warp_at_phi(w, phi)[2][0]))
        got = scalar_speed(w, 2)[0](float(phi[0]))
        assert abs(got - want) <= 2.0 * np.finfo(float).eps * want


class TestStableDt:
    def test_axisphere_slice_reference_value(self):
        # slice r=2 euclidean: Theta=1, F=2, top eigenvalue 1/F^2 = 0.25;
        # one grid direction (theta), so dt = 0.5 (pi/100)^2 / (2*1*0.25)
        base = make_base("axisphere", 100)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(100, 2.0))
        dt = stable_dt(st, FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0))
        want = 0.5 * (math.pi / 100) ** 2 / (2 * 1 * 0.25)
        assert abs(dt - want) / want < 1e-12
        assert abs(dt - 9.8696e-4) < 1e-8

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
        # one grid direction and the lone eigenvalue is Theta^4/F^2 = 1 on
        # the slice r=2
        base = make_base("circle", 100)
        st = GraphState.from_radius(base, make_warp("euclidean"), np.full(100, 2.0))
        dt = stable_dt(st, FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0))
        want = 0.5 * (2 * math.pi / 100) ** 2 / (2 * 1 * 1.0)
        assert abs(dt - want) / want < 1e-12

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "saturating"])
    @pytest.mark.parametrize("kind,M", [("circle", 64), ("axisphere", 64),
                                        ("torus2", 16)])
    def test_bound_is_a_sharp_stability_bound(self, kind, M, pid):
        # rho, the spectral radius of the Jacobian of 1/F (central
        # differences in phi) on a mild state; Gershgorin on the stencil
        # gives rho <= 4 g max D / dx^2 for g grid directions, so
        # dt rho <= 2 safety, and the bound is sharp when dt rho >= safety
        base, w = make_base(kind, M), make_warp(pid)
        if kind == "torus2":
            x, y = base.x[:, None], base.x[None, :]
            r = 1.0 + 0.2 * np.cos(x) + 0.1 * np.cos(y)
        else:
            r = 1.0 + 0.3 * np.cos(base.theta)
        st = GraphState.from_radius(base, w, r)
        cfg = FlowConfig(t_end=1.0, safety=0.5, dt_max=1.0)
        dt = stable_dt(st, cfg)
        dispatch = flow_mod._Dispatch(base, w)

        def rate(phi):
            fields, ev = flow_mod._evaluate(dispatch, phi, cfg.theta_min)
            assert ev is None
            return fields[1].ravel()
        eps, n = 1e-6, st.phi.size
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = eps
            e = e.reshape(base.shape)
            jac[:, j] = (rate(st.phi + e) - rate(st.phi - e)) / (2.0 * eps)
        rho = float(np.max(np.abs(np.linalg.eigvals(jac))))
        assert cfg.safety <= dt * rho <= 2.0 * cfg.safety

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

    def test_state_with_an_event_raises(self):
        base = make_base("circle", 64)
        r = 1.0 + 0.3 * np.cos(3 * base.theta)   # min H < 0 for this profile
        st = GraphState.from_radius(base, make_warp("euclidean"), r)
        with pytest.raises(ValueError, match="loss_of_mean_convexity"):
            stable_dt(st, FlowConfig(t_end=1.0))


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
        np.testing.assert_allclose([t for t, _, _ in tr.snapshots], [0.0, 0.2, 0.35],
                                   atol=1e-12)

    def test_ongrid_t_end_not_duplicated(self):
        tr = self.make_trace(0.4)
        np.testing.assert_allclose(tr.times, [0.0, 0.1, 0.2, 0.3, 0.4],
                                   atol=1e-12)
        np.testing.assert_allclose([t for t, _, _ in tr.snapshots], [0.0, 0.2, 0.4],
                                   atol=1e-12)
        assert np.all(np.diff(tr.times) > 0)

    def test_coarse_cadence_keeps_endpoints(self):
        tr = self.make_trace(0.05, record_every=1.0, snapshot_every=1.0)
        np.testing.assert_allclose(tr.times, [0.0, 0.05], atol=1e-15)
        np.testing.assert_allclose([t for t, _, _ in tr.snapshots], [0.0, 0.05],
                                   atol=1e-15)

    def test_point_run_stepping_is_pinned(self):
        # criterion 1's euclidean run: the speed is the constant 1/2, so every
        # dt, landing and phi is plain float arithmetic, equal on any platform
        tr = run(point_state(make_warp("euclidean"), 1.0),
                 FlowConfig(t_end=5.0, integrator="rk4", dt_max=1e-3,
                            record_every=0.1, snapshot_every=1.0))
        assert tr.stats == {
            "steps": 5000, "f_evals": 20001,
            "min_dt": 0.0009999999999665832, "max_dt": 0.001000000000010992,
            "dt_limiter": {"cfl": 0, "landing": 50, "dt_max": 4950}}
        assert len(tr.times) == 51
        assert [t for t, _, _ in tr.snapshots] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert float(tr.snapshots[-1][1].phi[0]) == 2.5

    def test_axisphere_run_stepping_is_pinned(self):
        # a CFL-bound euclidean axisphere run; phi is a polynomial in theta,
        # so past the base's sin and cos tables every dt is + - * / and sqrt
        base = make_base("axisphere", 64)
        phi = 0.02 * base.theta ** 2 * (math.pi - base.theta) ** 2
        tr = run(GraphState(base, make_warp("euclidean"), phi),
                 FlowConfig(t_end=0.1, dt_max=1e-2, safety=0.5,
                            record_every=0.05, snapshot_every=0.1))
        assert tr.stats == {
            "steps": 79, "f_evals": 317,
            "min_dt": 0.0006518234840452233, "max_dt": 0.0014571015583686455,
            "dt_limiter": {"cfl": 77, "landing": 2, "dt_max": 0}}

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

    @pytest.mark.parametrize("integrator", ["rk4"])
    def test_overflow_edge_ends_point_and_field_runs_alike(self, integrator):
        # r = e^phi overflows above phi = 709.78, which a flow from r = 1e308
        # reaches at t ~ 1.2; the point base once stepped past it and then
        # raised in its snapshot.  Power p = 1.01 from r = 1e304 reaches
        # the end of its domain, where h = r^1.01 overflows, at t ~ 5.6;
        # the point base once raised WarpDomainError out of run at the
        # overflow of r = (1 - phi/100)^-100
        for w, r0, t_end in ((make_warp("euclidean"), 1e308, 2.0),
                             (make_warp("power", p=1.01), 1e304, 7.0)):
            cfg = FlowConfig(t_end=t_end, integrator=integrator, dt_max=1e-2)
            traces = []
            for base in (POINT, make_base("axisphere", 8)):
                state = GraphState.from_radius(base, w, np.full(base.shape, r0))
                traces.append(run(state, cfg))
            point, field = traces
            assert point.terminal.kind == "domain"
            assert repr(point.terminal) == repr(field.terminal)
            assert point.t_final == field.t_final == point.snapshots[-1][0]

    @pytest.mark.parametrize("integrator", ["rk4"])
    def test_cosh_overflow_ends_point_and_field_runs_alike(self, integrator):
        # h' = cosh r overflows at r = 710.48, which a hyperbolic flow of
        # curves (n = 2, dr/dt ~ 1) from r = 705 reaches at t ~ 5.5.  The
        # point base once stepped on with h = inf, the circle ended with a
        # numeric event (F = h' = inf).  At n = 2, F = (n-1) h' is finite
        # exactly where h' is; at n >= 3 it overflows first (next test).
        w = make_warp("hyperbolic")
        cfg = FlowConfig(t_end=20.0, integrator=integrator, dt_max=1e-2)
        traces = []
        for base in (make_base("point", d=1), make_base("circle", 8)):
            state = GraphState.from_radius(base, w, np.full(base.shape, 705.0))
            traces.append(run(state, cfg))
        point, field = traces
        assert point.terminal.kind == field.terminal.kind == "domain"
        assert point.terminal.t == field.terminal.t
        assert point.t_final == field.t_final == point.snapshots[-1][0]
        for tr in traces:
            assert np.isfinite(tr.snapshots[-1][2].F).all()

    @pytest.mark.parametrize("integrator", ["rk4"])
    def test_F_overflow_ends_point_and_field_runs_alike(self, integrator):
        # n = 3: F = 2 cosh r overflows at r = 709.78, before h' = cosh r
        # does (710.48), which surfaces from r = 705 (dr/dt ~ 1/2) reach at
        # t ~ 9.57.  The point base once ran on to the domain edge, t = 10.955
        w = make_warp("hyperbolic")
        cfg = FlowConfig(t_end=20.0, integrator=integrator, dt_max=1e-2)
        traces = []
        for base in (POINT, make_base("axisphere", 8)):
            state = GraphState.from_radius(base, w, np.full(base.shape, 705.0))
            traces.append(run(state, cfg))
        point, field = traces
        assert point.terminal.kind == field.terminal.kind == "numeric"
        assert point.terminal.t == field.terminal.t
        assert math.isclose(point.terminal.t, 9.57, abs_tol=0.05)
        assert point.t_final == field.t_final == point.snapshots[-1][0]
        for tr in traces:
            assert np.isfinite(tr.snapshots[-1][2].F).all()

    @pytest.mark.parametrize("base", [POINT, make_base("axisphere", 8)],
                             ids=["point", "axisphere"])
    def test_F_overflow_at_the_start_is_a_numeric_event(self, base):
        # phi = -1e-308 lies inside hyperbolic's potentials, but F = 2 h' =
        # -2/tanh(phi) overflows; numpy's overflow warning, an error under
        # -W error, once escaped run before the event was recorded
        w = make_warp("hyperbolic")
        tr = run(GraphState(base, w, np.full(base.shape, -1e-308)),
                 FlowConfig(t_end=1.0))
        assert (tr.terminal.kind, tr.terminal.t) == ("numeric", 0.0)
        assert len(tr.times) == 0 and tr.snapshots == []

    def test_radius_domain_event_names_the_offending_node(self):
        # phi = 710 inverts to r = e^710 = inf; the radius check names node 9
        base = make_base("axisphere", 16)
        phi = np.zeros(16)
        phi[9] = 710.0
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


# warp and the radius of the unperturbed state
PLANT_WARPS = {
    "euclidean": (make_warp("euclidean"), 1.0),
    "hyperbolic": (make_warp("hyperbolic"), 1.0),
    "power": (make_warp("power", p=2.0), 1.0),
    "schwarzschild3": (make_warp("schwarzschild3", m=0.5), 2.0),
    "saturating": (make_warp("saturating", a=2.0, b=1.0, k=1.0), 1.0),
}
NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def past_edge(w, upper, x):
    """A potential x past the upper or lower edge of the image of Phi."""
    pid = w.preset_id
    if pid == "euclidean":
        # r = e^phi overflows above 709.78 and underflows below -745.13
        return 710.0 + x if upper else -746.0 - x
    if pid == "hyperbolic":
        return x        # the image is phi < 0
    if pid == "power":
        return 1.0 + x  # p = 2: the image is phi < 1
    lo, hi = w._phi_domain
    return hi + x if upper else lo - x


class TestEventKeepsState:
    """A bad node planted into a valid state ends the run at that node, and
    a domain or numeric event leaves the last valid state as the last
    snapshot: the offending state is no graph, so the trace keeps the
    last state that re-verifies as valid (finite, in the domain, F > 0)."""

    @pytest.mark.parametrize("pid", sorted(PLANT_WARPS))
    @pytest.mark.parametrize("kind", ["point", "axisphere", "torus2"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(bad=st.sampled_from(sorted(NONFINITE) + ["upper", "lower"]),
           x=st.floats(0.1, 10.0), at_step=st.integers(0, 30), data=st.data())
    def test_planted_node(self, kind, pid, bad, x, at_step, data):
        w, r0 = PLANT_WARPS[pid]
        if kind == "point":
            base = make_base("point", d=2)
            r = np.full(base.shape, r0)
        else:
            base = make_base(kind, 16 if kind == "axisphere" else 6)
            angle = (base.theta if kind == "axisphere"
                     else base.x[:, None] + base.x[None, :])
            r = r0 * (1.0 + 0.05 * np.cos(angle))
        node = data.draw(st.integers(0, base.n_nodes - 1))
        value = NONFINITE[bad] if bad in NONFINITE \
            else past_edge(w, bad == "upper", x)
        expected = "numeric" if bad in NONFINITE else "domain"
        cfg = FlowConfig(t_end=0.05, safety=0.5, dt_max=1e-3,
                         record_every=0.01, snapshot_every=0.02)

        def planted(phi):
            phi = np.array(phi, dtype=float, ndmin=1)
            phi.flat[node] = value
            return phi

        phi0 = radial_potential(w, r)
        step, seen = flow_mod._step, {}

        def step_planting(stepper, phi, t, dt, t_new):
            # plant into the state a step starts from, after its check
            seen["n"] = seen.get("n", 0) + 1
            if seen["n"] == at_step:
                seen["t"], seen["phi"] = t, np.array(phi, ndmin=1)
                phi = planted(phi)
                phi = float(phi[0]) if kind == "point" else phi
            return step(stepper, phi, t, dt, t_new)

        with np.errstate(all="ignore"), \
                mock.patch.object(flow_mod, "_step", step_planting):
            if at_step == 0:
                tr = run(GraphState(base, w, planted(phi0)), cfg)
            else:
                tr = run(GraphState(base, w, phi0), cfg)
        ev = tr.terminal
        assert (ev.kind, ev.node) == (expected, node)
        if at_step == 0:
            assert ev.t == 0.0 and len(tr.times) == 0 and tr.snapshots == []
            return
        t_valid = seen["t"]
        assert t_valid <= ev.t <= t_valid + cfg.dt_max
        assert tr.times[-1] == t_valid
        t_s, state, snap = tr.snapshots[-1]
        assert t_s == t_valid
        assert np.array_equal(state.phi, seen["phi"])
        assert np.isfinite(state.phi).all()
        assert phi_domain_violation(w, state.phi) is None
        assert np.isfinite(snap.F).all() and float(snap.F.min()) > 0.0


class TestStageEvent:
    """An event at an RK4 check ends the run at that check's state.  The
    k-th check of a step from phi at t0 is of phi + (dt/2) k1 and of
    phi + (dt/2) k2 at t0 + dt/2, of phi + dt k3 at t0 + dt, and of the
    state the step lands on at its landing time; the trace keeps that
    state when it is a graph (F <= 0) and the step's start otherwise, and
    f_evals counts the k checks of the failed step.  A check sees the state
    alone; the time is _step's."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["loss_of_mean_convexity", "domain"])
    def test_event_at_the_kth_check_of_a_step(self, kind, k):
        base = make_base("axisphere", 16)
        w = make_warp("euclidean")
        cfg = FlowConfig(t_end=0.05, safety=0.5, dt_max=1e-3,
                         record_every=0.01, snapshot_every=0.02)
        at_step, node = 15, 3
        # call 1 checks the initial state, then each step makes four
        at_call = 4 * (at_step - 1) + 1 + k
        evaluate, step = flow_mod._evaluate, flow_mod._step
        calls, steps, seen = [0], [], {}

        def stepping(stepper, phi, t, dt, t_new):
            steps.append((t, dt, t_new, np.array(phi)))
            return step(stepper, phi, t, dt, t_new)

        def evaluating(dispatch, phi, theta_min, out=None):
            calls[0] += 1
            if calls[0] == at_call:
                seen["phi"] = np.array(phi)
                return None, (kind, node, -1.0)
            return evaluate(dispatch, phi, theta_min, out)

        state = GraphState.from_radius(base, w, 1.0 + 0.1 * np.cos(base.theta))
        with mock.patch.object(flow_mod, "_step", stepping), \
                mock.patch.object(flow_mod, "_evaluate", evaluating):
            tr = run(state, cfg)
        ev = tr.terminal
        assert len(steps) == at_step and calls[0] == at_call
        assert (ev.kind, ev.node) == (kind, node)
        assert tr.stats["f_evals"] == at_call
        t0, dt, t_new, phi0 = steps[-1]
        h = 0.5 * dt
        dispatch = flow_mod._Dispatch(base, w)

        def rate(phi):
            return evaluate(dispatch, phi, cfg.theta_min)[0][1]
        k1 = rate(phi0)
        k2 = rate(phi0 + h * k1)
        k3 = rate(phi0 + h * k2)
        k4 = rate(phi0 + dt * k3)
        t_k, phi_k = {
            1: (t0 + h, phi0 + h * k1),
            2: (t0 + h, phi0 + h * k2),
            3: (t0 + dt, phi0 + dt * k3),
            4: (t_new, phi0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)),
        }[k]
        assert ev.t == t_k
        assert np.array_equal(seen["phi"], phi_k)
        t_s, last, _ = tr.snapshots[-1]
        if kind == "loss_of_mean_convexity":
            assert t_s == tr.times[-1] == ev.t
            assert np.array_equal(last.phi, seen["phi"])
        else:
            assert t_s == tr.times[-1] == t0
            assert np.array_equal(last.phi, phi0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_point_domain_exit_at_the_kth_check_of_a_step(self, k):
        # a rate of 1e9 planted at the check before the k-th sends the
        # k-th check's state far past the domain's top, phi = 1 on power
        # p = 2: a real exit, which the float speed rejects and _evaluate
        # names, with the landing check's rate as k1 when k = 1
        w = make_warp("power", p=2.0)
        cfg = FlowConfig(t_end=0.05, dt_max=1e-3, record_every=0.01,
                         snapshot_every=0.02)
        at_step = 15
        at_call = 4 * (at_step - 1) + 1 + k
        step = flow_mod._step
        calls, rates, steps, seen = [0], [None], [], {}

        def stepping(stepper, phi, t, dt, t_new):
            steps.append((t, dt, t_new, phi))
            return step(stepper, phi, t, dt, t_new)

        def planting(spec, nm1):
            speed, lo, hi = scalar_speed(spec, nm1)

            def check(phi):
                calls[0] += 1
                if calls[0] == at_call:
                    seen["phi"] = phi
                rate = speed(phi)
                rates.append(1e9 if calls[0] == at_call - 1 else rate)
                return rates[-1]
            return check, lo, hi

        with mock.patch.object(flow_mod, "_step", stepping), \
                mock.patch.object(flow_mod, "_scalar_speed", planting):
            tr = run(point_state(w, 1.0), cfg)
        ev = tr.terminal
        assert len(steps) == at_step and calls[0] == at_call
        assert tr.stats["f_evals"] == at_call
        t0, dt, t_new, phi0 = steps[-1]
        h = 0.5 * dt
        # rates[c] is call c's rate, k1 the one before this step's calls;
        # the rates this step did not reach are never read
        k1, k2, k3, k4 = (rates[at_call - k:at_call] + [0.0] * 3)[:4]
        t_k, phi_k = [
            (t0 + h, phi0 + h * k1),
            (t0 + h, phi0 + h * k2),
            (t0 + dt, phi0 + dt * k3),
            (t_new, phi0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)),
        ][k - 1]
        assert rates[at_call] is None and phi_k > 1.0
        assert (ev.kind, ev.node, ev.t, ev.value) == ("domain", 0, t_k, phi_k)
        assert seen["phi"] == phi_k
        t_s, last, _ = tr.snapshots[-1]
        assert t_s == tr.times[-1] == t0
        assert last.phi.tolist() == [phi0]


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

    @pytest.mark.parametrize("kind", ["circle", "axisphere", "torus2"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pid=st.sampled_from(sorted(PLANT_WARPS)),
           modes=st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2),
                                    st.floats(-0.05, 0.05), st.floats(0.0, 6.3)),
                          min_size=1, max_size=3))
    def test_expansion_is_nodewise_monotone_on_random_states(
            self, kind, pid, modes):
        # every accepted stage has k = 1/F > 0, so no node's potential
        # falls between snapshots, whatever the warp or state
        w, r0 = PLANT_WARPS[pid]
        base = make_base(kind, 6 if kind == "torus2" else 16)
        r = np.ones(base.shape)
        for p, q, a, phase in modes:
            if kind == "torus2":
                angle = p * base.x[:, None] + q * base.x[None, :] + phase
            elif kind == "circle":
                angle = p * base.theta + phase
            else:
                angle = p * base.theta   # even across the poles
            r = r + a * np.cos(angle)
        tr = run(GraphState.from_radius(base, w, r0 * r),
                 FlowConfig(t_end=0.05, safety=0.5, dt_max=1e-3,
                            record_every=0.01, snapshot_every=0.01))
        assert len(tr.snapshots) >= 2, tr.terminal
        for (_, s0, _), (_, s1, _) in zip(tr.snapshots, tr.snapshots[1:]):
            assert np.all(s1.phi >= s0.phi)

    def test_mean_convex_states_flow_on_and_stay_mean_convex(self):
        # the paper's first claim: with h' > 0 and h'' >= 0, as on every
        # preset, a starshaped mean-convex surface flows for all time and
        # stays mean convex.  Every seeded draw with min H(0) > 0 counts;
        # a failing one is a finding, never filtered out
        rng = np.random.default_rng(1609)
        convex, failed = 0, []
        for _ in range(40):
            kind = str(rng.choice(["circle", "axisphere", "torus2"]))
            pid = str(rng.choice(sorted(PLANT_WARPS)))
            w, r0 = PLANT_WARPS[pid]
            base = make_base(kind, 12 if kind == "torus2" else 32)
            r = np.ones(base.shape)
            for _ in range(3):
                p, q = rng.integers(1, 4), rng.integers(0, 3)
                a, phase = rng.uniform(-0.15, 0.15), rng.uniform(0.0, 2.0 * math.pi)
                if kind == "torus2":
                    angle = p * base.x[:, None] + q * base.x[None, :] + phase
                elif kind == "circle":
                    angle = p * base.theta + phase
                else:
                    angle = p * base.theta   # even across the poles
                r = r + a * np.cos(angle)
            state = GraphState.from_radius(base, w, r0 * r)
            if not float(np.min(snapshot(state).H)) > 0.0:
                continue
            convex += 1
            tr = run(state, FlowConfig(t_end=4.0, integrator="rk4", safety=0.5,
                                       dt_max=1e-2))
            if not (tr.completed and np.all(tr.columns["min_H"] > 0.0)):
                failed.append((kind, pid, tr.terminal))
        assert not failed
        assert convex >= 30   # the draws are mostly mean convex: 34 of 40

    def test_record_times_strictly_increase(self):
        tr = run(point_state(make_warp("hyperbolic"), 1.0),
                 FlowConfig(t_end=1.0, dt_max=1e-3, record_every=0.05))
        assert np.all(np.diff(tr.times) > 0)
