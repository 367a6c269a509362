"""Verification-harness tests.

Analytic anchors first (closed-form floor values, exact-decay fits, the
point base where every bound is an equality), then discrete behavior:
residual refinement ratios, inapplicability routing, report serialization.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow.flow import TRACE_COLUMNS, FlowConfig, run
from imcflow.geometry import GraphState, snapshot
from imcflow.manifold import make_base
from imcflow.verify import (CheckReport, DEFAULT_C_RES, check_A_bounded,
                            check_asymptotics, check_growth_and_support,
                            check_H_floor, curvature_floor,
                            evolution_residuals, fit_decay_rate, _median)
from imcflow.warp import make_warp, radial_potential

POINT = make_base("point", d=2)   # surfaces in a 3-dimensional ambient


def point_trace(wname, r0, t_end, **kw):
    w = make_warp(wname)
    phi0 = radial_potential(w, np.array([r0]))
    return run(GraphState(POINT, w, phi0, 0.0), FlowConfig(t_end=t_end, **kw))


def wavy_axisphere_trace(M, dt_snap, t_end=0.3):
    base = make_base("axisphere", M)
    w = make_warp("euclidean")
    r = 1.0 + 0.3 * np.cos(base.theta)
    return run(GraphState(base, w, radial_potential(w, r), 0.0),
               FlowConfig(t_end=t_end, integrator="rk4", safety=0.5,
                          dt_max=1e-3, snapshot_every=dt_snap,
                          record_every=dt_snap))


@pytest.fixture(scope="module")
def euclid_point():
    return point_trace("euclidean", 1.0, 2.0,
                       record_every=0.1, snapshot_every=0.5)


@pytest.fixture(scope="module")
def wavy_pair():
    # halve dx and quarter the snapshot spacing between the two runs
    return wavy_axisphere_trace(50, 0.1), wavy_axisphere_trace(100, 0.025)


@pytest.fixture(scope="module")
def circle_round():
    base = make_base("circle", 64)
    w = make_warp("euclidean")
    r = 1.0 + 0.2 * np.cos(2.0 * base.theta)
    return run(GraphState(base, w, radial_potential(w, r), 0.0),
               FlowConfig(t_end=8.0, integrator="rk4", safety=0.5,
                          record_every=0.05, snapshot_every=0.5))


def slight_circle_trace(record_every=0.1, snapshot_every=0.5):
    base = make_base("circle", 16)
    w = make_warp("euclidean")
    r = 1.0 + 0.01 * np.cos(base.theta)
    return run(GraphState(base, w, radial_potential(w, r), 0.0),
               FlowConfig(t_end=8.0, safety=0.5, record_every=record_every,
                          snapshot_every=snapshot_every))


@pytest.fixture(scope="module")
def circle_slight():
    return slight_circle_trace()


@pytest.fixture(scope="module")
def circle_obstructed():
    # the l=1 component survives rescaling in hyperbolic space: the radius
    # grows like t + c(theta) with c frozen, so osc(e^{-t} h) stays order one
    base = make_base("circle", 64)
    w = make_warp("hyperbolic")
    r = 1.0 + 0.3 * np.cos(base.theta)
    return run(GraphState(base, w, radial_potential(w, r), 0.0),
               FlowConfig(t_end=8.0, integrator="rk4", safety=0.5,
                          record_every=0.05, snapshot_every=0.5))


class TestCurvatureFloor:
    def test_closed_form_value(self):
        want = math.exp(-0.5) * math.sqrt(0.2) * 0.5 * math.sqrt(0.5)
        assert abs(curvature_floor(1.0, 3, 1.0, 2.0, 0.1) - want) < 1e-15

    def test_ramp_saturates_at_t_two(self):
        v2 = curvature_floor(2.0, 3, 1.0, 2.0, 0.1)
        assert curvature_floor(5.0, 3, 1.0, 2.0, 0.1) == v2
        assert abs(v2 - math.exp(-0.5) * math.sqrt(0.2) * 0.5) < 1e-15
        assert curvature_floor(0.0, 3, 1.0, 2.0, 0.1) == 0.0

    def test_monotone_in_time_before_saturation(self):
        ts = np.linspace(0.0, 2.0, 21)
        vals = curvature_floor(ts, 3, 1.0, 2.0, 0.1)
        assert np.all(np.diff(vals) > 0.0)

    def test_radius_ratio_scaling(self):
        a = curvature_floor(1.0, 3, 1.0, 2.0, 0.1)
        b = curvature_floor(1.0, 3, 2.0, 2.0, 0.1)
        assert abs(b - 2.0 * a) < 1e-15


class TestGrowthAndSupport:
    def test_point_run_is_the_equality_case(self, euclid_point):
        rep = check_growth_and_support(euclid_point)
        assert rep.passed is True
        # R1 = R2 = omega(0) and the point flow is exact, so every slack
        # sits at zero up to rounding
        assert abs(rep.margin) < 1e-10
        assert rep.tolerance == 1e-8
        assert rep.hypothesis_status["c1_weak"] is True
        assert rep.hypothesis_status["omega_bracket"] is True

    def test_worst_payload_shape(self, euclid_point):
        worst = check_growth_and_support(euclid_point).details["worst"]
        assert set(worst) == {"quantity", "t", "node", "bound", "value"}

    def test_bad_bracket_fails(self, euclid_point):
        rep = check_growth_and_support(euclid_point, R1=0.5, R2=0.9)
        assert rep.passed is False
        assert rep.hypothesis_status["omega_bracket"] is False
        # omega(0) = 1 against bound 0.9: slack is exactly -1/9 at every time
        assert abs(rep.margin + 1.0 / 9.0) < 1e-12
        assert any("bracket" in note for note in rep.notes)

    def test_field_run_passes(self, wavy_pair):
        rep = check_growth_and_support(wavy_pair[0])
        assert rep.passed is True
        assert rep.tolerance == 1e-2
        # flat warp has h'' = 0, so the strict conditions fail and the
        # omega lower bound is reported unasserted
        assert rep.hypothesis_status["c1_strict"] is False
        assert any("lower bound not asserted" in note for note in rep.notes)


class TestHFloor:
    def test_flat_warp_inapplicable(self, euclid_point):
        rep = check_H_floor(euclid_point)
        assert rep.passed is None
        assert rep.hypothesis_status["c1_strict"] is False
        assert math.isnan(rep.margin)

    def test_schwarzschild_floor_holds(self):
        tr = point_trace("schwarzschild3", 1.0, 2.0,
                         record_every=0.1, snapshot_every=0.5)
        rep = check_H_floor(tr)
        assert rep.passed is True
        assert rep.margin > 0.0
        assert rep.details["h0"] > 0.0
        assert rep.details["C1_obs"] <= rep.details["C2_obs"]
        assert rep.details["worst"]["value"] >= rep.details["worst"]["bound"]

    @pytest.mark.parametrize("short_run", ["schwarzschild3"], indirect=True)
    @pytest.mark.parametrize("h0", [0.0, -1.0])
    def test_nonpositive_h0_makes_the_floor_vacuous(self, short_run, h0):
        rep = check_H_floor(short_run, h0=h0)
        assert rep.passed is True and rep.margin == math.inf
        assert rep.details["h0"] == h0 and rep.details["floor_at_T"] == 0.0
        assert rep.notes[-1] == "h0 = 0 makes the floor vacuous on this horizon"

    @pytest.mark.parametrize("short_run", ["schwarzschild3"], indirect=True)
    @pytest.mark.parametrize("R1", [0.5, 0.0, -1.0])
    def test_R1_below_h_on_the_whole_domain_is_inapplicable(self, short_run, R1):
        # h >= 3m = 1.5 on schwarzschild3 m = 0.5, so no radius has h = R1
        rep = check_H_floor(short_run, R1=R1)
        assert rep.passed is None and math.isnan(rep.margin)
        assert rep.hypothesis_status == {"c1_weak": None, "c1_strict": None}
        note = rep.notes[-1]
        assert f"R1 = {R1}" in note and "h >= 1.5" in note, note

    @pytest.mark.parametrize("short_run", ["schwarzschild3"], indirect=True)
    def test_R2_beyond_the_top_of_the_domain_is_inapplicable(self, short_run):
        # R2 e^{T/(n-1)} above h at r_max = 2000
        rep = check_H_floor(short_run, R2=1e4)
        assert rep.passed is None and math.isnan(rep.margin)
        note = rep.notes[-1]
        assert "outside the range of h" in note and "up to r = 1999.99" in note, note


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0.0, 6.0, 40)
        assert abs(fit_decay_rate(t, 3.0 * np.exp(-0.7 * t)) - 0.7) < 1e-10

    def test_all_below_eps_is_exact_decay(self):
        assert fit_decay_rate([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) == math.inf

    def test_non_finite_value_is_nan(self):
        # an all-NaN series once read as "identically below eps": rate inf
        t = [0.0, 1.0, 2.0, 3.0]
        assert math.isnan(fit_decay_rate(t, [np.nan] * 4))
        for bad in (np.nan, np.inf):
            assert math.isnan(fit_decay_rate(t, [1.0, 0.5, bad, 0.1]))

    def test_too_few_points_is_nan(self):
        assert math.isnan(fit_decay_rate([0.0, 1.0], [1.0, 0.5]))
        assert math.isnan(
            fit_decay_rate([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.0, 0.0]))


class TestAsymptotics:
    def test_roundness_passes_on_decaying_run(self, circle_round):
        rep = check_asymptotics(circle_round, "expect_roundness")
        assert rep.passed is True
        assert rep.details["terminal_osc"] < 1e-3
        rates = rep.details["rates"]
        assert all(v > 0.0 for v in rates.values() if not math.isnan(v))
        assert any("n=2" in note for note in rep.notes)

    def test_obstruction_holds_on_hyperbolic_run(self, circle_obstructed):
        rep = check_asymptotics(circle_obstructed, "expect_obstruction")
        assert rep.passed is True
        assert rep.details["terminal_osc"] > 0.5

    def test_roundness_fails_on_obstructed_run(self, circle_obstructed):
        rep = check_asymptotics(circle_obstructed, "expect_roundness")
        assert rep.passed is False
        assert rep.margin < 0.0

    @pytest.mark.parametrize("mode", ["expect_roundness", "expect_obstruction"])
    def test_hyperbolic_run_lies_outside_the_bounded_family(
            self, circle_obstructed, mode):
        # h' = cosh r is unbounded: the roundness failure stays a fail, and
        # a note says the hypothesis of the asymptotics is not met
        rep = check_asymptotics(circle_obstructed, mode)
        assert rep.hypothesis_status["c5_bounded"] is False
        assert sum("c5_bounded false" in note and "roundness is not predicted"
                   in note for note in rep.notes) == 1

    def test_euclidean_run_lies_inside_the_bounded_family(self, circle_round):
        rep = check_asymptotics(circle_round, "expect_roundness")
        assert rep.hypothesis_status["c5_bounded"] is True
        assert not any("c5_bounded" in note for note in rep.notes)

    def test_roundness_fails_when_H_h_grows(self):
        # point base in hyperbolic space: H h = (n-1) cosh r grows like
        # e^{t/2}, so C2 is no time-uniform constant; every rate is exact
        # (inf) and the oscillation is 0, which passed before gamma was fitted
        tr = point_trace("hyperbolic", 1.0, 8.0, dt_max=1e-2,
                         record_every=0.5, snapshot_every=0.5)
        rep = check_asymptotics(tr, "expect_roundness")
        assert rep.details["terminal_osc"] == 0.0
        assert all(v == math.inf for v in rep.details["rates"].values())
        gamma, beta = rep.details["gamma_Hh"], rep.details["beta_predicted"]
        assert abs(gamma - 0.5) < 1e-2 and beta < 1e-3
        assert rep.passed is False
        assert rep.margin < 0.0

    def test_constant_H_h_is_uniform(self):
        # a round circle: n = 2 gives beta = 0, and the fitted gamma of the
        # constant H h = 1 is rounding noise, within the fit's floor
        base = make_base("circle", 32)
        w = make_warp("euclidean")
        tr = run(GraphState(base, w, radial_potential(w, np.full(32, 1.3))),
                 FlowConfig(t_end=8.0, safety=0.5, dt_max=1e-2,
                            record_every=0.5, snapshot_every=0.5))
        rep = check_asymptotics(tr, "expect_roundness")
        assert rep.details["beta_predicted"] == 0.0
        assert abs(rep.details["gamma_Hh"]) < 1e-15
        assert rep.passed is True

    def test_non_finite_series_is_inapplicable(self, circle_slight):
        assert check_asymptotics(circle_slight, "expect_roundness").passed is True
        cols = dict(circle_slight.columns)
        for k in ("max_grad_phi", "max_hess_phi"):
            cols[k] = np.full_like(cols[k], np.nan)
        tr = dataclasses.replace(circle_slight, columns=cols)
        for mode in ("expect_roundness", "expect_obstruction"):
            rep = check_asymptotics(tr, mode)
            assert rep.passed is None and math.isnan(rep.margin)
            assert rep.details["non_finite"] == ["grad_phi", "hess_phi"]
            assert "non-finite values in grad_phi, hess_phi; nothing fitted" in rep.notes

    def test_fewer_than_three_snapshots_in_the_window(self):
        # snapshots at t = 4 and 8 in the window [4, 8]: the decay rates of
        # the record columns are fitted, the shape deviation and the growth
        # of max H h are not
        rep = check_asymptotics(slight_circle_trace(snapshot_every=4.0),
                                "expect_roundness")
        rates = rep.details["rates"]
        assert math.isnan(rates["shape_dev"]) and math.isnan(rep.details["gamma_Hh"])
        assert all(rates[k] > 0.0 for k in ("grad_phi", "hess_phi", "osc"))
        assert any(n.startswith("fewer than 3 snapshots in the fit window")
                   for n in rep.notes)
        assert rep.passed is True

    def test_fewer_than_three_records_in_the_window_is_inapplicable(self):
        # records at t = 0, 5 and 8: two in the window [4, 8], where every
        # rate would be NaN and tol_osc the oscillation at t = 8 itself
        tr = slight_circle_trace(record_every=5.0)
        for mode in ("expect_roundness", "expect_obstruction"):
            rep = check_asymptotics(tr, mode)
            assert rep.passed is None and math.isnan(rep.margin)
            assert ("2 records in the fit window, fewer than 3; nothing "
                    "fitted") in rep.notes

    def test_verdict_does_not_depend_on_the_unit_of_length(self):
        # euclidean IMCF commutes with dilations r -> R r: rates, beta,
        # gamma and osc / tol_osc are the same at every R
        base = make_base("axisphere", 24)
        w = make_warp("euclidean")
        reps = [check_asymptotics(
            run(GraphState(base, w, radial_potential(
                w, R * (1.0 + 0.3 * np.cos(base.theta))), 0.0),
                FlowConfig(t_end=8.0, safety=0.5, dt_max=1e-2)),
            "expect_roundness") for R in (0.01, 1.0, 1000.0)]
        assert [rep.passed for rep in reps] == [True] * 3
        for rep in reps[1:]:
            assert math.isclose(rep.margin, reps[0].margin, rel_tol=1e-6)
            d, d0 = rep.details, reps[0].details
            assert math.isclose(d["terminal_osc"] / d["tol_osc"],
                                d0["terminal_osc"] / d0["tol_osc"], rel_tol=1e-6)

    def test_short_trace_raises(self, euclid_point):
        with pytest.raises(ValueError, match="too short"):
            check_asymptotics(euclid_point, "expect_roundness")

    def test_event_trace_raises(self):
        # run off the tabulated warp extent: terminates with a domain event
        tr = point_trace("saturating", 5000.0, 2.0,
                         record_every=0.1, snapshot_every=0.5)
        assert not tr.completed
        with pytest.raises(ValueError, match="event"):
            check_asymptotics(tr, "expect_roundness")

    def test_unknown_mode_raises(self, euclid_point):
        with pytest.raises(ValueError, match="mode"):
            check_asymptotics(euclid_point, "expect_flat")


class TestEvolutionResiduals:
    def test_point_residuals_near_machine(self):
        tr = point_trace("euclidean", 1.0, 5e-5, dt_max=1e-5,
                         record_every=1e-5, snapshot_every=1e-5)
        rep = evolution_residuals(tr)
        assert rep.passed is True
        for w, info in rep.details["per_identity"].items():
            assert info["max_residual"] < 1e-10, w

    def test_field_runs_pass_default_envelopes(self, wavy_pair):
        for tr in wavy_pair:
            rep = evolution_residuals(tr)
            assert rep.passed is True
            assert rep.margin > 0.0

    def test_residuals_shrink_under_refinement(self, wavy_pair):
        # dx halves and the snapshot spacing quarters; a wrong-gauge time
        # derivative or a sign slip in the gradient terms pins the ratio
        # near one, which is what this guards against
        coarse = evolution_residuals(wavy_pair[0]).details["per_identity"]
        fine = evolution_residuals(wavy_pair[1]).details["per_identity"]
        for w in ("omega_eq", "u_eq", "H_eq", "tw_eq"):
            ratio = coarse[w]["max_residual"] / fine[w]["max_residual"]
            assert ratio >= 2.0, (w, ratio)

    @pytest.mark.parametrize("M", [100, 200])
    def test_circle_runs_pass_default_envelopes(self, M):
        # the circle's flux-form induced Laplacian; each measured residual
        # is at most 6 % of its threshold c_res (dt_snap + dx^2)
        base = make_base("circle", M)
        w = make_warp("euclidean")
        r = 1.0 + 0.1 * np.cos(base.theta)
        tr = run(GraphState(base, w, radial_potential(w, r), 0.0),
                 FlowConfig(t_end=0.5, safety=0.5, dt_max=1e-3,
                            snapshot_every=0.0125, record_every=0.0125))
        rep = evolution_residuals(tr)
        per = rep.details["per_identity"]
        assert sorted(per) == ["H_eq", "omega_eq", "tw_eq", "u_eq"]
        for w_id, info in per.items():
            assert info["max_residual"] <= info["threshold"], w_id
        assert rep.passed is True

    def test_torus2_supports_only_tw(self):
        base = make_base("torus2", 16)
        w = make_warp("euclidean")
        x1, x2 = base.x[:, None], base.x[None, :]
        r = 1.0 + 0.05 * (np.cos(x1) + np.sin(2.0 * x2))
        tr = run(GraphState(base, w, radial_potential(w, r), 0.0),
                 FlowConfig(t_end=0.2, integrator="rk4", safety=0.5,
                            record_every=0.05, snapshot_every=0.05))
        rep = evolution_residuals(tr)
        assert list(rep.details["per_identity"]) == ["tw_eq"]
        assert rep.passed is True
        rep4 = evolution_residuals(
            tr, which=("omega_eq", "u_eq", "H_eq", "tw_eq"))
        per = rep4.details["per_identity"]
        for w_id in ("omega_eq", "u_eq", "H_eq"):
            assert per[w_id] == {"status": "inapplicable"}
        assert "max_residual" in per["tw_eq"]
        assert any("unsupported" in note for note in rep4.notes)
        # no supported identity requested: nothing to judge
        rep2 = evolution_residuals(tr, which=("omega_eq", "H_eq"))
        assert rep2.passed is None and math.isnan(rep2.margin)
        assert rep2.details["per_identity"] == {
            w_id: {"status": "inapplicable"} for w_id in ("omega_eq", "H_eq")}

    def test_u_eq_inapplicable_where_H_is_not_positive(self):
        tr = wavy_axisphere_trace(16, 0.05, t_end=0.1)
        assert len(tr.snapshots) == 3
        t, state, _ = tr.snapshots[1]
        # a dent at one node: phi_tt ~ 26 against (n-1) h' ~ 2 makes F < 0
        phi = state.phi.copy()
        phi[5] -= 0.5
        dented = GraphState(state.base, state.warp, phi, t)
        snap = snapshot(dented)
        assert snap.H[5] <= 0.0 and np.isnan(snap.u[5])
        tr.snapshots[1] = (t, dented, snap)
        rep = evolution_residuals(tr)
        per = rep.details["per_identity"]
        assert per["u_eq"] == {"status": "inapplicable"}
        assert "u_eq: H <= 0 somewhere; modified speed undefined" in rep.notes
        for w in ("omega_eq", "H_eq", "tw_eq"):
            assert math.isfinite(per[w]["max_residual"]), w

    def test_non_finite_residual_fails_its_identity(self):
        base = make_base("axisphere", 16)
        w = make_warp("euclidean")
        r = 1.0 + 0.1 * np.cos(base.theta)
        tr = run(GraphState(base, w, radial_potential(w, r), 0.0),
                 FlowConfig(t_end=0.3, snapshot_every=0.1))
        assert [t for t, _, _ in tr.snapshots] == [0.0, 0.1, 0.2, 0.3]
        clean = evolution_residuals(tr)
        assert clean.passed is True
        # A2 enters the omega and H right-hand sides, not u's or tw's
        tr.snapshots[1][2].A2[3] = np.nan
        rep = evolution_residuals(tr)
        assert rep.passed is False and rep.margin == -math.inf
        per = rep.details["per_identity"]
        for w_id in ("omega_eq", "H_eq"):
            assert math.isnan(per[w_id]["max_residual"]), w_id
            assert (per[w_id]["t"], per[w_id]["node"]) == (0.1, 3), w_id
        for w_id in ("u_eq", "tw_eq"):
            assert per[w_id] == clean.details["per_identity"][w_id], w_id
        d = rep.as_dict()       # report.json's form
        assert d["margin"] is None
        assert d["details"]["per_identity"]["H_eq"]["max_residual"] is None

    def test_needs_three_snapshots(self):
        tr = point_trace("euclidean", 1.0, 0.5,
                         record_every=0.5, snapshot_every=0.5)
        with pytest.raises(ValueError, match="3 snapshots"):
            evolution_residuals(tr)

    def test_needs_an_equally_spaced_triple(self, euclid_point):
        # snapshots at t = 0, 0.5, 1.5: the two spacings differ
        snaps = [euclid_point.snapshots[i] for i in (0, 1, 3)]
        tr = dataclasses.replace(euclid_point, snapshots=snaps)
        with pytest.raises(ValueError, match="no equally spaced snapshot triples"):
            evolution_residuals(tr)

    def test_unknown_identity_raises(self, euclid_point):
        with pytest.raises(ValueError, match="unknown identity"):
            evolution_residuals(euclid_point, which=("bogus",))

    def test_u_eq_finite_where_omega_squared_overflows(self):
        # hyperbolic point from r0 = 705: h = sinh r ~ 1e306, so omega^2
        # overflows while u = 1/(H omega) underflows to 0; u^3 omega^2 was
        # 0 * inf = NaN, u / H^2 is the same quantity and stays finite
        tr = point_trace("hyperbolic", 705.0, 0.3, snapshot_every=0.1)
        with np.errstate(all="ignore"):
            assert np.isinf(tr.snapshots[1][2].omega ** 2).all()
            per = evolution_residuals(tr).details["per_identity"]
        assert 0.0 <= per["u_eq"]["max_residual"] < 1e-300
        small = evolution_residuals(point_trace("hyperbolic", 2.0, 0.3,
                                                snapshot_every=0.1))
        assert small.passed is True
        assert small.details["per_identity"]["u_eq"]["max_residual"] < 1e-4


class TestABounded:
    def test_decaying_run_passes(self, euclid_point):
        rep = check_A_bounded(euclid_point)
        assert rep.passed is True
        assert rep.details["last_quartile_max"] <= 2.0 * rep.details["median_A"]

    def test_fabricated_blowup_fails(self):
        tr = point_trace("euclidean", 1.0, 2.0,
                         record_every=0.1, snapshot_every=0.5)
        tr.columns["max_A"][-2:] *= 100.0
        rep = check_A_bounded(tr)
        assert rep.passed is False
        assert rep.margin < 0.0

    @pytest.mark.parametrize("short_run", ["schwarzschild3"], indirect=True)
    def test_zero_median_fails(self, short_run):
        # bound = 2 median = 0 gives margin -inf, although lastq_max <= bound
        zeros = np.zeros_like(short_run.columns["max_A"])
        tr = dataclasses.replace(short_run, columns={**short_run.columns, "max_A": zeros})
        rep = check_A_bounded(tr)
        assert rep.passed is False and rep.margin == -math.inf


class TestMedian:
    """verify._median gives np.median's bits without importing numpy.ma."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([1.0, 2.5, 0.0]),
                    min_size=1, max_size=41),
           st.lists(st.integers(0, 40), max_size=3))
    def test_bits_of_np_median(self, xs, nan_at):
        # odd and even lengths, repeated values, and NaN at a few places;
        # only the sign of a zero median from a tie of 0.0 and -0.0 may
        # differ, as np.median's partition and a sort order the tie apart
        x = np.array(xs)
        x[[i for i in nan_at if i < x.size]] = math.nan
        want, got = float(np.median(x)), _median(list(x))
        if math.isnan(want):
            assert math.isnan(got)
        elif want == 0.0:
            assert got == 0.0
        else:
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("x", [[math.inf], [1.0, math.inf], [-math.inf, 2.0, math.inf],
                                   [math.nan], [3.0, math.nan, 1.0, 2.0]])
    def test_infinities_and_nan(self, x):
        want = float(np.median(np.array(x)))
        assert _median(x) == want or math.isnan(_median(x)) and math.isnan(want)


class TestReportSerialization:
    def test_as_dict_is_json_safe(self):
        rep = CheckReport(
            check_id="demo",
            hypothesis_status={"ok": np.bool_(True)},
            passed=None,
            margin=float("nan"),
            tolerance=1e-2,
            details={"arr": np.array([1.0, np.nan, np.inf]),
                     "f": np.float64(2.5), "i": np.int64(3)},
            notes=["note"],
        )
        d = rep.as_dict()
        json.dumps(d)
        assert d["pass"] is None
        assert d["margin"] is None
        assert d["details"]["arr"] == [1.0, None, None]
        assert d["details"]["f"] == 2.5
        assert d["details"]["i"] == 3
        assert d["hypothesis_status"]["ok"] is True

    def test_python_bools_stay_bools(self):
        # bool is a subclass of int; report.json once wrote "pass": 1
        d = CheckReport("demo", {"c1_weak": True}, True, 0.5, 0.0,
                        {"flag": False}).as_dict()
        assert d["pass"] is True and d["hypothesis_status"]["c1_weak"] is True
        assert d["details"]["flag"] is False
        assert '"pass": true' in json.dumps(d)

    def test_live_reports_serialize(self, euclid_point):
        reports = [
            check_growth_and_support(euclid_point),
            check_H_floor(euclid_point),
            evolution_residuals(euclid_point),
            check_A_bounded(euclid_point),
        ]
        for rep in reports:
            json.dumps(rep.as_dict())


# What each check reads of a stored run: the trace columns by name, the
# snapshot fields h, H, omega and A2, and R1 and R2 from omega at t = 0
# ("omega@0").  NaN or an infinity planted in what a check reads must keep
# it from passing; planted elsewhere, it must leave the verdict and margin
# as they were.
READS = {
    "growth_and_support": {"h", "omega", "omega@0"},
    "H_floor": {"min_H", "omega@0"},
    "evolution_residuals": {"h", "H", "omega", "A2", "omega@0"},
    "A_bounded": {"max_A"},
    "asymptotics": {"max_grad_phi", "max_hess_phi", "osc_rescaled_h", "h", "H"},
}
SITES = TRACE_COLUMNS + ("h", "H", "omega", "A2", "omega@0")
NON_FINITE = (math.nan, math.inf, -math.inf)
SHORT_CHECKS = {
    "growth_and_support": check_growth_and_support,
    "H_floor": check_H_floor,
    "evolution_residuals": evolution_residuals,
    "A_bounded": check_A_bounded,
}
LONG_CHECKS = {
    "asymptotics": lambda tr: check_asymptotics(tr, "expect_roundness"),
}


def plant(trace, site, value):
    """A copy of trace with value at the middle row of a column, at the
    middle node of a field of the middle snapshot, or for "omega@0" at
    node 0 of the first snapshot's omega."""
    if site in trace.columns:
        col = trace.columns[site].copy()
        col[col.size // 2] = value
        return dataclasses.replace(trace, columns={**trace.columns, site: col})
    first = site == "omega@0"
    i = 0 if first else len(trace.snapshots) // 2
    site = site.split("@")[0]
    t, state, snap = trace.snapshots[i]
    field = getattr(snap, site).copy()
    field.flat[0 if first else field.size // 2] = value
    snaps = list(trace.snapshots)
    snaps[i] = (t, state, dataclasses.replace(snap, **{site: field}))
    return dataclasses.replace(trace, snapshots=snaps)


@pytest.fixture(scope="module", params=["euclidean", "schwarzschild3"])
def short_run(request):
    # H_floor applies on schwarzschild3 (rho = 1 on the axisphere), never
    # on the flat warp
    base = make_base("axisphere", 16)
    w = make_warp(request.param)
    r = 1.0 + 0.1 * np.cos(base.theta)
    return run(GraphState(base, w, radial_potential(w, r), 0.0),
               FlowConfig(t_end=0.3, snapshot_every=0.1))


class TestNoPassOnNonFiniteData:
    @staticmethod
    def check_sites(trace, checks):
        clean = {k: fn(trace) for k, fn in checks.items()}
        for site in SITES:
            for value in NON_FINITE:
                planted = plant(trace, site, value)
                for k, fn in checks.items():
                    with np.errstate(all="ignore"):
                        rep = fn(planted)
                    if site in READS[k]:
                        assert rep.passed is not True, (site, value, k)
                    else:
                        same = (rep.margin == clean[k].margin
                                or math.isnan(rep.margin) and math.isnan(clean[k].margin))
                        assert rep.passed is clean[k].passed and same, (site, value, k)
        return {k: rep.passed for k, rep in clean.items()}

    def test_short_run(self, short_run):
        clean = self.check_sites(short_run, SHORT_CHECKS)
        floor = True if short_run.warp.preset_id == "schwarzschild3" else None
        assert clean == {"growth_and_support": True, "H_floor": floor,
                         "evolution_residuals": True, "A_bounded": True}

    def test_asymptotics(self, circle_slight):
        assert self.check_sites(circle_slight, LONG_CHECKS) == {"asymptotics": True}
