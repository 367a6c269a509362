"""Verification-harness tests.

Analytic anchors first (closed-form floor values, exact-decay fits, the
point base where every bound is an equality), then discrete behavior:
residual refinement ratios, inapplicability routing, report serialization.
"""

import json
import math

import numpy as np
import pytest

from imcflow.flow import FlowConfig, run
from imcflow.geometry import GraphState
from imcflow.manifold import make_base
from imcflow.verify import (CheckReport, DEFAULT_C_RES, check_A_bounded,
                            check_asymptotics, check_growth_and_support,
                            check_H_floor, curvature_floor,
                            evolution_residuals, fit_decay_rate)
from imcflow.warp import make_warp, radial_potential

POINT = make_base("point", 2)   # surfaces in a 3-dimensional ambient


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


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0.0, 6.0, 40)
        assert abs(fit_decay_rate(t, 3.0 * np.exp(-0.7 * t)) - 0.7) < 1e-10

    def test_all_below_eps_is_exact_decay(self):
        assert fit_decay_rate([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) == math.inf

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

    def test_needs_three_snapshots(self):
        tr = point_trace("euclidean", 1.0, 0.5,
                         record_every=0.5, snapshot_every=0.5)
        with pytest.raises(ValueError, match="3 snapshots"):
            evolution_residuals(tr)

    def test_unknown_identity_raises(self, euclid_point):
        with pytest.raises(ValueError, match="unknown identity"):
            evolution_residuals(euclid_point, which=("bogus",))


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

    def test_live_reports_serialize(self, euclid_point):
        reports = [
            check_growth_and_support(euclid_point),
            check_H_floor(euclid_point),
            evolution_residuals(euclid_point),
            check_A_bounded(euclid_point),
        ]
        for rep in reports:
            json.dumps(rep.as_dict())
