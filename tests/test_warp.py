"""Warping-factor presets: closed forms, tables, potentials, condition flags."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from imcflow import warp
from imcflow.warp import (
    WarpDomainError,
    check_conditions,
    eval_warp,
    infimum_h0,
    hp_at_phi,
    make_warp,
    phi_domain_violation,
    r_at_h,
    r_of_phi,
    radial_potential,
    warp_at_phi,
)


def sw_r_of_h(m, h, h0):
    """Closed-form radius for the n=3 exterior family, used as an oracle.

    Antiderivative of dr/dh = (1 - 2m/h)^(-1/2):
        r(h) = sqrt(h (h - 2m)) + 2m ln(sqrt(h) + sqrt(h - 2m)) + const,
    anchored so r(h0) = 0.
    """
    def F(s):
        return math.sqrt(s * (s - 2 * m)) + 2 * m * math.log(math.sqrt(s) + math.sqrt(s - 2 * m))
    return F(h) - F(h0)


@pytest.fixture(scope="module")
def presets():
    return {
        "euclidean": make_warp("euclidean"),
        "hyperbolic": make_warp("hyperbolic"),
        "schwarzschild3": make_warp("schwarzschild3", m=0.5),
        "saturating": make_warp("saturating", a=2.0, b=1.0, k=1.0),
        "power": make_warp("power", p=2.0),
    }


class TestEval:
    def test_euclidean_values(self, presets):
        h, hp, hpp = eval_warp(presets["euclidean"], 2.0)
        assert float(h) == 2.0
        assert float(hp) == 1.0
        assert float(hpp) == 0.0

    def test_hyperbolic_values(self, presets):
        # sinh(ln(1 + sqrt 2)) = 1 exactly
        r = math.log(1.0 + math.sqrt(2.0))
        h, hp, hpp = eval_warp(presets["hyperbolic"], r)
        assert abs(float(h) - 1.0) < 1e-8
        assert abs(float(hp) - math.sqrt(2.0)) < 1e-8
        assert abs(float(hpp) - 1.0) < 1e-8

    def test_schwarzschild_values_at_h2(self, presets):
        spec = presets["schwarzschild3"]
        r2 = r_at_h(spec, 2.0)
        h, hp, hpp = eval_warp(spec, r2)
        assert abs(float(h) - 2.0) < 1e-9
        assert abs(float(hp) - math.sqrt(0.5)) < 1e-8
        assert abs(float(hpp) - 0.125) < 1e-8

    def test_schwarzschild_table_against_closed_form(self, presets):
        # independent oracle: invert the exact antiderivative r(h)
        spec = presets["schwarzschild3"]
        m = 0.5
        for h_target in [1.6, 2.0, 3.7, 10.0, 50.0, 400.0]:
            r_exact = sw_r_of_h(m, h_target, 1.5)
            h_tab = float(eval_warp(spec, r_exact)[0])
            assert abs(h_tab - h_target) / h_target < 1e-9, (h_target, h_tab)

    def test_schwarzschild_defining_relation(self, presets):
        spec = presets["schwarzschild3"]
        r = np.geomspace(0.05, 1500.0, 200)
        h, hp, _ = eval_warp(spec, r)
        assert np.max(np.abs(hp ** 2 + 1.0 / h - 1.0)) < 1e-8

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "schwarzschild3",
                                     "saturating", "power"])
    def test_finite_difference_consistency(self, presets, pid):
        spec = presets[pid]
        rng = np.random.default_rng(7)
        r = rng.uniform(0.5, 20.0, 100)
        eps = 1e-4
        h, hp, hpp = eval_warp(spec, r)
        fd_hp = (eval_warp(spec, r + eps)[0] - eval_warp(spec, r - eps)[0]) / (2 * eps)
        fd_hpp = (eval_warp(spec, r + eps)[1] - eval_warp(spec, r - eps)[1]) / (2 * eps)
        assert np.max(np.abs(fd_hp - hp) / np.abs(hp)) < 1e-6
        scale = np.abs(hpp) + 1.0
        assert np.max(np.abs(fd_hpp - hpp) / scale) < 1e-6

    def test_positive_on_domain(self, presets):
        for spec in presets.values():
            r = np.geomspace(1e-3, 100.0, 500)
            h = eval_warp(spec, r)[0]
            assert np.all(h > 0.0), spec.preset_id

    def test_domain_errors(self, presets):
        with pytest.raises(WarpDomainError):
            eval_warp(presets["euclidean"], -1.0)
        with pytest.raises(WarpDomainError):
            eval_warp(presets["schwarzschild3"], 5000.0)
        with pytest.raises(WarpDomainError):
            eval_warp(presets["euclidean"], np.array([1.0, np.nan]))


class TestPotential:
    def test_euclidean_anchor(self, presets):
        assert abs(float(radial_potential(presets["euclidean"], math.e)) - 1.0) < 1e-12

    def test_hyperbolic_closed_form(self, presets):
        r = math.log(1.0 + math.sqrt(2.0))
        val = float(radial_potential(presets["hyperbolic"], r))
        assert abs(val - math.log(math.sqrt(2.0) - 1.0)) < 1e-12
        assert abs(val + 0.8813735870195430) < 1e-10

    def test_quadrature_oracle(self, presets):
        # the potential is the integral of 1/h; cross-check every preset
        # against adaptive quadrature from the anchor radius
        for pid, spec in presets.items():
            ref, _ = quad(lambda s: 1.0 / float(eval_warp(spec, s)[0]), 1.0, 7.0,
                          epsabs=1e-12, epsrel=1e-12)
            got = float(radial_potential(spec, 7.0) - radial_potential(spec, 1.0))
            assert abs(got - ref) < 1e-9, pid

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "schwarzschild3",
                                     "saturating", "power"])
    def test_round_trip(self, presets, pid):
        spec = presets[pid]
        rng = np.random.default_rng(11)
        r = rng.uniform(0.3, 30.0, 100)
        back = r_of_phi(spec, radial_potential(spec, r))
        assert np.max(np.abs(back - r) / r) < 1e-10

    def test_warp_at_phi_matches_pieces(self, presets):
        spec = presets["saturating"]
        phi = radial_potential(spec, np.array([0.8, 2.0, 9.0]))
        r, h, hp, hpp = warp_at_phi(spec, phi)
        h2, hp2, hpp2 = eval_warp(spec, r)
        assert np.array_equal(h, h2) and np.array_equal(hp, hp2)

    def test_image_errors(self, presets):
        with pytest.raises(WarpDomainError):
            r_of_phi(presets["hyperbolic"], 0.2)
        with pytest.raises(WarpDomainError):
            r_of_phi(presets["schwarzschild3"], 1e6)
        with pytest.raises(WarpDomainError):
            r_of_phi(presets["euclidean"], np.array([0.0, np.inf]))


class TestDomains:
    """One statement of each domain: r_of_phi, warp_at_phi and hp_at_phi
    raise exactly where it fails, and the error names the first bad node."""

    PROBES = [-800.0, -746.0, -1.0, -1e-300, -0.0, 0.0, 0.5, 1.0, 3.0,
              710.0, 1e6, math.nan, math.inf, -math.inf]

    def edge_values(self, spec):
        lo, hi = spec._phi_domain
        vals = list(self.PROBES)
        for v in (lo, hi):
            if math.isfinite(v):
                vals += [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]
        if spec.preset_id == "power":
            vals += [0.9999999999999999, 1.0000000000000002]
        return vals

    def raises(self, fn, *args):
        try:
            with np.errstate(all="ignore"):
                fn(*args)
        except WarpDomainError as exc:
            return exc
        return None

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "schwarzschild3",
                                     "saturating", "power"])
    def test_entry_points_agree_on_every_value(self, presets, pid):
        spec = presets[pid]
        for v in self.edge_values(spec):
            c = -0.5 if pid == "hyperbolic" else 0.5
            phi = np.array([c, v, c])
            bad = phi_domain_violation(spec, phi)
            exc = self.raises(r_of_phi, spec, phi)
            assert (exc is not None) == (bad is not None), v
            if bad is not None:
                assert bad == exc.node == 1
            full = self.raises(warp_at_phi, spec, phi)
            lean = self.raises(hp_at_phi, spec, phi)
            assert (full is None) == (lean is None), v
            if full is None:
                hp = warp_at_phi(spec, phi)[2]
                assert np.array_equal(np.broadcast_to(hp_at_phi(spec, phi),
                                                      hp.shape), hp)
            else:
                assert full.node == lean.node == 1

    def test_scalar_error_has_no_node(self, presets):
        exc = self.raises(r_of_phi, presets["hyperbolic"], 0.2)
        assert exc is not None and exc.node is None


LEAN_WARPS = {
    "euclidean": make_warp("euclidean"),
    "hyperbolic": make_warp("hyperbolic"),
    "power p=1": make_warp("power", p=1.0),
    "power p=2": make_warp("power", p=2.0),
    "schwarzschild3": make_warp("schwarzschild3", m=0.5),
    "saturating k=1": make_warp("saturating", a=2.0, b=1.0, k=1.0),
    "saturating k=2": make_warp("saturating", a=2.0, b=1.0, k=2.0),
}


class TestLeanSlope:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(sorted(LEAN_WARPS)),
           st.lists(st.floats(-3.0, 1.5), min_size=1, max_size=40),
           st.booleans())
    def test_hp_at_phi_matches_warp_at_phi_bitwise(self, name, logr, square):
        # radii from 1e-3 to 10^1.5, inside every preset's domain and below
        # the hyperbolic potential's rounding to 0, as a row or a 2D grid
        spec = LEAN_WARPS[name]
        r = 10.0 ** np.array(logr)
        if square:
            r = np.outer(r, r[::-1]) ** 0.5
        phi = radial_potential(spec, r)
        ref = warp_at_phi(spec, phi)[2]
        hp = hp_at_phi(spec, phi)
        assert np.broadcast_to(hp, ref.shape).tobytes() == ref.tobytes()


class TestConditions:
    def test_euclidean_flags(self, presets):
        rep = check_conditions(presets["euclidean"], (0.5, 10.0), rho=1.0, C=10.0)
        assert rep.c1_weak is True
        assert rep.c1_strict is False   # h'' = 0 is not strict
        assert rep.c5_bounded is True

    def test_schwarzschild_strict(self, presets):
        spec = presets["schwarzschild3"]
        lo, hi = r_at_h(spec, 1.5001), r_at_h(spec, 10.0)
        rep = check_conditions(spec, (lo, hi), rho=1.0, C=10.0)
        # h h'' - h'^2 + rho = 3m/h > 0 here
        assert rep.c1_weak and rep.c1_strict and rep.c5_bounded

    def test_hyperbolic_unbounded_witness(self, presets):
        # h h'' - h'^2 = -1 exactly, so strict needs rho >= 1
        rep = check_conditions(presets["hyperbolic"], (1.0, 5.0), rho=1.0, C=10.0)
        assert rep.c1_weak and rep.c1_strict
        assert rep.c5_bounded is False
        # cosh exceeds 10 shortly after r = 3, worst at the right edge
        assert rep.witnesses["c5_bounded"] > 4.5

    def test_saturating_alpha_sensitivity(self, presets):
        spec = presets["saturating"]
        # k=1: h^2 h'' = (1 + 2r - ln(1+r))^2/(1+r)^2, increasing to 4
        ok = check_conditions(spec, (0.1, 500.0), rho=0.0, C=5.0, alpha=1.0)
        assert ok.c5_bounded is True
        bad = check_conditions(spec, (0.1, 500.0), rho=0.0, C=5.0, alpha=2.0)
        assert bad.c5_bounded is False  # h^(1+2) h'' grows linearly

    def test_strict_implies_weak(self, presets):
        for spec in presets.values():
            rep = check_conditions(spec, (0.8, 4.0), rho=1.0, C=100.0)
            if rep.c1_strict:
                assert rep.c1_weak

    def test_power_strict_depends_on_interval(self, presets):
        spec = presets["power"]
        # h h'' - h'^2 + rho = rho - p r^(2p-2); with p=2, rho=1: fails past r=2^(-1/2)... r > (1/2)^(1/2)
        good = check_conditions(spec, (0.1, 0.5), rho=1.0)
        bad = check_conditions(spec, (0.1, 3.0), rho=1.0)
        assert good.c1_strict is True
        assert bad.c1_strict is False


class TestInfimumH0:
    def test_schwarzschild_value(self, presets):
        spec = presets["schwarzschild3"]
        lo, hi = r_at_h(spec, 2.0), r_at_h(spec, 4.0)
        # h''/h = m/h^3 decreasing, so the infimum sits at h = 4
        assert abs(infimum_h0(spec, (lo, hi)) - 0.0078125) < 1e-9

    def test_euclidean_zero(self, presets):
        assert infimum_h0(presets["euclidean"], (0.5, 10.0)) == 0.0

    def test_hyperbolic_one(self, presets):
        # h''/h = 1 identically
        assert abs(infimum_h0(presets["hyperbolic"], (1.0, 2.0)) - 1.0) < 1e-12

    def test_interior_minimum_refined(self, presets):
        # saturating: h''/h has an interior dip? monotone here, but the refine
        # step must never return something above the dense minimum
        spec = presets["saturating"]
        dense = infimum_h0(spec, (0.5, 50.0), samples=20000)
        coarse = infimum_h0(spec, (0.5, 50.0), samples=1000)
        assert coarse <= dense + 1e-12


def test_preset_catalog_complete():
    for pid in ["euclidean", "hyperbolic", "schwarzschild3", "saturating", "power"]:
        assert pid in warp.PRESETS
