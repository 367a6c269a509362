"""Warping-factor presets: closed forms, tables, potentials, condition flags."""

import bisect
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from imcflow import flow, warp
from imcflow.manifold import make_base
from imcflow.warp import (
    WarpDomainError,
    check_conditions,
    eval_warp,
    field_hp,
    infimum_h0,
    make_warp,
    phi_domain_violation,
    r_at_h,
    r_of_phi,
    radial_potential,
    scalar_speed,
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

    def test_schwarzschild_against_radius_oracle(self, presets):
        # independent oracle: the exact antiderivative r(h), whose
        # cancellation near h0 stays below 1e-13 relative for r >= 0.01
        spec = presets["schwarzschild3"]
        m = 0.5
        h_targets = np.concatenate([[1.6, 2.0, 3.7, 10.0, 50.0, 400.0],
                                    np.geomspace(1.51, 1900.0, 200)])
        for h_target in h_targets:
            r_exact = sw_r_of_h(m, h_target, 1.5)
            assert r_exact >= 0.01
            h = float(eval_warp(spec, r_exact)[0])
            assert abs(h - h_target) / h_target < 1e-12, (h_target, h)
            r = float(r_of_phi(spec, radial_potential(spec, r_exact)))
            assert abs(r - r_exact) / r_exact < 1e-12, (h_target, r)

    def test_schwarzschild_defining_relation(self, presets):
        # h' = tanh(v/2) and 2m/h = 1/cosh^2(v/2)
        spec = presets["schwarzschild3"]
        r = np.geomspace(0.05, 1500.0, 200)
        h, hp, _ = eval_warp(spec, r)
        assert np.max(np.abs(hp ** 2 + 1.0 / h - 1.0)) <= 4.0 * np.finfo(float).eps

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
    """One statement of each domain: r_of_phi and warp_at_phi raise
    exactly where it fails, the error naming the first bad node, and the
    float speed's interval shuts out exactly those values."""

    PROBES = [-800.0, -746.0, -1.0, -1e-300, -0.0, 0.0, 0.5, 1.0, 3.0,
              710.0, 1e6, math.nan, math.inf, -math.inf]

    def edge_values(self, spec):
        lo, hi = spec._phi_domain
        vals = list(self.PROBES)
        for v in (lo, hi):
            if math.isfinite(v):
                vals += [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]
        if spec.preset_id == "power":
            # near 1/(p-1), where the base 1 + (1-p) phi reaches 0; potentials
            # whose radius overflows (p = 1.01, phi = 99.9999) or underflows
            # to 0; a negative base (8 for p = 1.5 and 1.25)
            edge = 1.0 / (spec.params["p"] - 1.0)
            vals += [edge, np.nextafter(edge, -math.inf),
                     np.nextafter(edge, math.inf), 8.0, 99.9999, -1e6, -1e308]
        return vals

    def raises(self, fn, *args):
        try:
            with np.errstate(all="ignore"):
                fn(*args)
        except WarpDomainError as exc:
            return exc
        return None

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "schwarzschild3",
                                     "saturating", "power", "power p=1.01",
                                     "power p=1.25", "power p=1.5", "power p=3.7"])
    def test_entry_points_agree_on_every_value(self, presets, pid):
        spec = (presets[pid] if pid in presets
                else make_warp("power", p=float(pid.split("=")[1])))
        for v in self.edge_values(spec):
            c = 0.5 if pid in ("euclidean", "schwarzschild3", "saturating") else -0.5
            phi = np.array([c, v, c])
            bad = phi_domain_violation(spec, phi)
            exc = self.raises(r_of_phi, spec, phi)
            assert (exc is not None) == (bad is not None), v
            _, lo, hi = scalar_speed(spec, 2)
            # the float speed's interval, the point base's check, also ends
            # where F = 2 h' overflows (hyperbolic, before cosh r does)
            with np.errstate(over="ignore"):
                point_ok = bad is None and np.isfinite(2.0 * field_hp(spec)[0](phi)).all()
            assert (lo < float(v) < hi) == point_ok, v
            if bad is not None:
                assert bad == exc.node == 1
            full = self.raises(warp_at_phi, spec, phi)
            assert (full is None) == (bad is None), v
            if full is None:
                hp = warp_at_phi(spec, phi)[2]
                # the domain ends before h' overflows (cosh r on hyperbolic)
                assert np.isfinite(hp).all(), v
                assert np.array_equal(np.broadcast_to(field_hp(spec)[0](phi),
                                                      hp.shape), hp)
            else:
                assert full.node == 1

    @pytest.mark.parametrize("p,phi", [(1.5, 8.0), (1.5, 99.9999), (1.25, 8.0),
                                       (1.01, 99.9999), (1.01, -1e6), (3.7, -1e308)])
    def test_power_radius_off_the_floats_is_outside(self, p, phi):
        # pow of the negative base 1 + (1-p) phi is finite and positive where
        # 1/(1-p) is an even integer (p = 1.5: b = -3 gives r = 1/9); the
        # other values give r = inf or 0
        spec = make_warp("power", p=p)
        arr = np.array([phi])
        assert phi_domain_violation(spec, arr) == 0
        assert self.raises(r_of_phi, spec, arr) is not None
        assert self.raises(warp_at_phi, spec, arr) is not None
        _, lo, hi = scalar_speed(spec, 2)
        assert not lo < phi < hi

    @pytest.mark.parametrize("pid", ["euclidean", "hyperbolic", "schwarzschild3",
                                     "saturating", "power"])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_scalar_speed_rejects_non_finite(self, presets, pid, v):
        spec = presets[pid]
        assert phi_domain_violation(spec, np.array([v])) == 0
        _, lo, hi = scalar_speed(spec, 2)
        assert not lo < v < hi

    def test_scalar_error_has_no_node(self, presets):
        exc = self.raises(r_of_phi, presets["hyperbolic"], 0.2)
        assert exc is not None and exc.node is None


DOMAIN_WARPS = {
    "euclidean": make_warp("euclidean"),
    "hyperbolic": make_warp("hyperbolic"),
    "power p=1.01": make_warp("power", p=1.01),
    "power p=2": make_warp("power", p=2.0),
    "power p=3.7": make_warp("power", p=3.7),
    "schwarzschild3 m=0.5": make_warp("schwarzschild3", m=0.5),
    "schwarzschild3 m=2": make_warp("schwarzschild3", m=2.0),
    "saturating k=0.5": make_warp("saturating", a=2.0, b=1.0, k=0.5),
    "saturating k=1": make_warp("saturating", a=2.0, b=1.0, k=1.0),
    "saturating k=2": make_warp("saturating", a=2.0, b=1.0, k=2.0),
}


class TestOneDomainTest:
    """A value is tested once, where it enters: a potential inside its
    domain inverts to a radius that obeys the domain rule, so warp_at_phi
    and field_hp test no radius; and the float speed's interval is the
    one the overflow search of F = nm1 h' gives on every preset."""

    @pytest.mark.parametrize("name", sorted(DOMAIN_WARPS))
    def test_inside_potentials_invert_to_valid_radii(self, name):
        # numpy's array loops take other code paths by length (vector body
        # and remainder), so each value runs at every place of every length
        spec = DOMAIN_WARPS[name]
        lo, hi = spec._phi_domain
        ends = []
        for end, into in ((lo, hi), (hi, lo)):
            v = float(np.nextafter(end, into))
            for _ in range(100):
                ends.append(v)
                v = float(np.nextafter(v, into))
        inner = np.random.default_rng(17).uniform(lo, hi, 100)
        phi = np.concatenate([ends, inner[(inner > lo) & (inner < hi)]])
        assert phi_domain_violation(spec, phi) is None
        with np.errstate(all="ignore"):
            for n in (1, 2, 3, 4, 7, 8, 16, 17, 64):
                windows = np.lib.stride_tricks.sliding_window_view(phi, n)
                for w in windows:
                    assert _valid_at(spec, np.ascontiguousarray(w)).all(), (n, w)
            for v in phi.tolist():
                assert _valid_at(spec, np.float64(v)), v
                assert _valid_at(spec, np.array(v)), v

    @pytest.mark.parametrize("name", sorted(DOMAIN_WARPS))
    @pytest.mark.parametrize("nm1", [1, 2, 3])
    def test_speed_interval_is_the_overflow_search(self, name, nm1):
        # the search runs only where h' is unbounded; elsewhere it finds
        # the domain's own end, which the interval keeps without a search
        spec = DOMAIN_WARPS[name]
        lo, hi = spec._phi_domain

        def finite(phi):
            return bool(np.isfinite(nm1 * field_hp(spec)[0](np.array([phi]))).all())
        with np.errstate(over="ignore"):
            want = warp._first_outside(finite, float(np.nextafter(lo, hi)), hi)
        _, got_lo, got_hi = scalar_speed(spec, nm1)
        assert got_lo.hex() == lo.hex() and got_hi.hex() == want.hex()


BRACKETED = [("hyperbolic", {}), ("power", {"p": 1.01}), ("power", {"p": 1.25}),
             ("power", {"p": 1.5}), ("power", {"p": 2.0}), ("power", {"p": 3.7}),
             ("power", {"p": 12.0}), ("schwarzschild3", {"m": 0.5}),
             ("schwarzschild3", {"m": 2.0}), ("schwarzschild3", {"r_max": 10.0}),
             ("schwarzschild3", {"phi0": 3.0, "phi_r0": 5.0})]


class TestBracketedSearch:
    """make_warp starts each domain search at an end known in closed form;
    the edges are those of the search over the whole range."""

    @pytest.mark.parametrize("pid, params", BRACKETED)
    def test_edges_equal_the_unbracketed_search(self, pid, params):
        spec = make_warp(pid, **params)
        full = warp.WarpSpec(pid, spec.params, (0.0, spec.params.get("r_max", math.inf)))
        if pid == "hyperbolic":
            warp._derive_domains(full, -1.0, r_good=1.0)
        elif pid == "schwarzschild3":
            full._phi_lo = spec._phi_lo
            w_mid = warp._sw_w_of_r(spec.params["m"], 0.5 * spec.params["r_max"])
            warp._derive_domains(full, spec._phi_lo + float(w_mid))
        else:
            q = 1.0 - spec.params["p"]
            pole = warp._first_outside(lambda phi: 1.0 + q * phi > 0.0, 0.0, math.inf)
            assert pole.hex() == warp._first_outside(
                lambda phi: 1.0 + q * phi > 0.0, 0.0, math.inf, 1.0 / -q).hex()
            warp._derive_domains(full, 0.0, r_good=1.0, phi_bad=pole)
        got = [v.hex() for v in spec.r_domain + spec._phi_domain]
        assert got == [v.hex() for v in full.r_domain + full._phi_domain]

    @pytest.mark.parametrize("pid, params", [("hyperbolic", {}), ("power", {"p": 3.7}),
                                             ("schwarzschild3", {})])
    def test_estimates_bracket_every_edge(self, pid, params, monkeypatch):
        # four searches (two on schwarzschild3, which has no radius search)
        # of 2 + 16 probes, each a one-element array and a scalar, where the
        # whole range takes about 62 probes a search
        calls = []
        valid = warp._valid
        monkeypatch.setattr(warp, "_valid", lambda *a: calls.append(1) or valid(*a))
        make_warp(pid, **params)
        assert len(calls) <= (2 if pid == "schwarzschild3" else 4) * 2 * 18


class TestClosedFormSlope:
    """h' in closed form in phi on hyperbolic and power, as field_hp,
    warp_at_phi and the float speed read it."""

    @pytest.mark.parametrize("nm1", [1, 2])
    @pytest.mark.parametrize("name", ["hyperbolic", "power p=2", "power p=3.7"])
    def test_point_and_field_inverse_speeds(self, name, nm1):
        # the point base's float 1/F = 1/(nm1 h') against the field path's
        # on a one-node base: bit for bit on power; on hyperbolic exactly
        # where math.tanh and numpy's tanh agree, else within 2 ulp
        spec = ROUND_TRIP_WARPS[name]
        speed, lo, hi = scalar_speed(spec, nm1)
        rng = np.random.default_rng(5)
        phi = np.concatenate([-(10.0 ** rng.uniform(-300, 1, 1000)),
                              rng.uniform(-20.0, 1.0, 1000)])
        phi = phi[(phi > lo) & (phi < hi)]
        dispatch = flow._Dispatch(make_base("point", d=nm1), spec)
        got = np.array([speed(v) for v in phi.tolist()])
        want = np.array([flow._evaluate(dispatch, np.array([v]), 0.0, 0.0)[0][1][0]
                         for v in phi.tolist()])
        same = got == want
        if spec.preset_id == "power":
            assert same.all()
        else:
            tanh_agrees = np.array([math.tanh(v) == np.tanh(v) for v in phi.tolist()])
            assert same[tanh_agrees].all()
            assert np.all(abs(got - want) <= 2.0 * np.spacing(want))

    @pytest.mark.parametrize("name", ["hyperbolic", "power p=2", "power p=3.7"])
    def test_closed_form_slope_against_the_radius(self, name):
        # h' in phi (-1/tanh(phi), p / (1 + (1-p) phi)) against h' of the
        # inverted radius (cosh r, p r^(p-1)), on radii 1e-3 to 30; cosh r
        # carries the radius's rounding, about eps r relative
        spec = ROUND_TRIP_WARPS[name]
        r = np.geomspace(1e-3, 30.0, 2000)
        phi = radial_potential(spec, r)
        want = eval_warp(spec, r_of_phi(spec, phi))[1]
        assert np.all(abs(field_hp(spec)[0](phi) - want) <= 4.0 * EPS * (1.0 + r) * want)


def _valid_at(spec, phi):
    return warp._valid(spec, *warp._warp_at_phi(spec, phi))


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
    def test_field_hp_matches_warp_at_phi_bitwise(self, name, logr, square):
        # radii from 1e-3 to 10^1.5, inside every preset's domain and below
        # the hyperbolic potential's rounding to 0, as a row or a 2D grid
        spec = LEAN_WARPS[name]
        r = 10.0 ** np.array(logr)
        if square:
            r = np.outer(r, r[::-1]) ** 0.5
        phi = radial_potential(spec, r)
        ref = warp_at_phi(spec, phi)[2]
        hp = field_hp(spec)[0](phi)
        assert np.broadcast_to(hp, ref.shape).tobytes() == ref.tobytes()


ROUND_TRIP_WARPS = dict(LEAN_WARPS, **{"power p=3.7": make_warp("power", p=3.7)})
TINY, EPS = np.finfo(float).tiny, np.finfo(float).eps


class TestRoundTripProperty:
    """radial_potential inverts r_of_phi on each preset's whole potential domain.

    Wherever r, h(r) and phi are normal floats (a subnormal carries fewer
    than 53 bits, so nothing recovers it), to 16 ulps of phi plus the
    potential step of one ulp of r, eps r / h(r).
    """

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(ROUND_TRIP_WARPS)), st.data())
    def test_round_trip_on_the_potential_domain(self, name, data):
        spec = ROUND_TRIP_WARPS[name]
        lo, hi = spec._phi_domain
        phi = data.draw(st.floats(lo, hi, exclude_min=lo > -math.inf,
                                  exclude_max=True, allow_nan=False,
                                  allow_infinity=False))
        assume(phi_domain_violation(spec, np.array([phi])) is None)
        with np.errstate(all="ignore"):
            r = float(r_of_phi(spec, phi))
        assume(TINY <= r < math.inf and not 0.0 < abs(phi) < TINY)
        with np.errstate(all="ignore"):
            h = float(eval_warp(spec, r)[0])
        assume(TINY <= h)
        back = float(radial_potential(spec, r))
        assert abs(back - phi) <= 16.0 * EPS * (abs(phi) + r / h), (phi, r, back)


# The tabulated inversion: one searchsorted (one bisect on the scalar path)
# and the quintic's Horner pass.  It is the array path's algorithm itself,
# and the bitwise reference for the float path's reuse of the last piece.

def _ref_segment(table, xq):
    idx = table.x.searchsorted(xq) - 1
    return np.minimum(np.maximum(idx, 0), len(table.x) - 2)


def _ref_at(table, idx, xq):
    t = xq - table.x.take(idx)
    c5, c4, c3, c2, c1, c0 = table.rows[1:].take(idx, axis=1)
    return ((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0


def _ref_saturating(spec, r):
    a, b, k = spec.params["a"], spec.params["b"], spec.params["k"]
    if k == 1.0:
        h = 1.0 + a * r - b * np.log1p(r)
    else:
        h = 1.0 + a * r + b / (k - 1.0) * ((1.0 + r) ** (1.0 - k) - 1.0)
    return h, a - b * (1.0 + r) ** (-k), k * b * (1.0 + r) ** (-k - 1.0)


def reference_r_of_phi(spec, phi):
    inv = spec._r_of_phi_table
    return _ref_at(inv, _ref_segment(inv, phi), phi)


def reference_warp_at_phi(spec, phi):
    """(r, h, h', h'') or the node of the first bad radius."""
    r = reference_r_of_phi(spec, phi)
    ok = (r > 0.0) & (r < spec.r_domain[1])
    if not ok.all():
        return int((~ok).argmax())
    return (r,) + _ref_saturating(spec, r)


def reference_scalar_speed(spec, nm1):
    x = spec._r_of_phi_table.x.tolist()
    c = spec._r_of_phi_table.rows[1:].tolist()
    a, b, k = (spec.params[key] for key in ("a", "b", "k"))

    def speed(phi):
        i = min(max(bisect.bisect_left(x, phi) - 1, 0), len(x) - 2)
        t = phi - x[i]
        r = ((((c[0][i] * t + c[1][i]) * t + c[2][i]) * t + c[3][i]) * t
             + c[4][i]) * t + c[5][i]
        return 1.0 / (nm1 * (a - b * (1.0 + r) ** (-k)))
    return speed


TABLE_WARPS = {name: LEAN_WARPS[name] for name in
               ("saturating k=1", "saturating k=2")}


def knot_potentials(spec):
    """Every inner knot of the inverse table and both float neighbours."""
    x = spec._r_of_phi_table.x
    phi = np.concatenate([x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)])
    lo, hi = spec._phi_domain
    return phi[(phi > lo) & (phi < hi)]


def same_outcome(spec, phi):
    """r_of_phi, warp_at_phi and field_hp give the reference's bits, or
    warp_at_phi raises at the reference's node."""
    assert reference_r_of_phi(spec, phi).tobytes() == r_of_phi(spec, phi).tobytes()
    ref = reference_warp_at_phi(spec, phi)
    if isinstance(ref, int):
        with pytest.raises(WarpDomainError) as exc:
            warp_at_phi(spec, phi)
        assert exc.value.node == (ref if phi.ndim else None)
        return
    for want, got in zip(ref, warp_at_phi(spec, phi)):
        assert want.tobytes() == got.tobytes()
    assert field_hp(spec)[0](phi).tobytes() == ref[2].tobytes()


class TestOneKnotSearch:
    """The tabulated inversion gives the one-search reference bit for bit:
    the array path is that algorithm, and the float speed's guessed pieces
    are verified."""

    @pytest.mark.parametrize("name", sorted(TABLE_WARPS))
    def test_knots_and_neighbours(self, name):
        spec = TABLE_WARPS[name]
        phi = knot_potentials(spec)
        # the set reaches every piece, from both of its knots
        assert np.unique(_ref_segment(spec._r_of_phi_table, phi)).size \
            == spec._r_of_phi_table.x.size - 1
        same_outcome(spec, phi)
        same_outcome(spec, phi[:phi.size // 4 * 4].reshape(4, -1)[::-1])
        for v in phi[::phi.size // 60]:
            same_outcome(spec, np.asarray(v))
        speed, _, _ = scalar_speed(spec, 2)
        ref = reference_scalar_speed(spec, 2)
        assert all(speed(v) == ref(v) for v in phi.tolist())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(TABLE_WARPS)), st.data())
    def test_any_call_order_gives_a_fresh_closures_bits(self, name, data):
        # the float speed guesses each call's inverse piece from the last
        # call's, and a fresh closure, whose guess is the first piece,
        # searches: a guess it keeps gives the searched piece's bits.  The
        # calls walk the table by a neighbouring piece or a jump anywhere,
        # each inside its piece or a few floats from its left knot
        spec = TABLE_WARPS[name]
        x = spec._r_of_phi_table.x
        top = len(x) - 2
        lo, hi = spec._phi_domain
        piece = data.draw(st.integers(0, top))
        moves = data.draw(st.lists(st.tuples(
            st.integers(-2, 2) | st.integers(-top, top),
            st.floats(0.0, 1.0) | st.integers(-3, 3)), min_size=1, max_size=30))
        fresh = functools.partial(warp.scalar_speed.__wrapped__, spec, 2)
        speed = fresh()[0]
        for step, where in moves:
            piece = min(max(piece + step, 0), top)
            left = float(x[piece])
            if isinstance(where, int):
                v = left + where * float(np.spacing(left))
            else:
                v = left + where * (float(x[piece + 1]) - left)
            if lo < v < hi:
                assert speed(v).hex() == fresh()[0](v).hex()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(TABLE_WARPS)),
           st.lists(st.floats(-6.0, 3.25), min_size=1, max_size=60),
           st.booleans())
    def test_random_radii(self, name, logr, square):
        spec = TABLE_WARPS[name]
        r = 10.0 ** np.array(logr)
        if square:
            r = np.outer(r, r[::-1]) ** 0.5
        phi = radial_potential(spec, r)
        if phi_domain_violation(spec, phi) is not None:
            return
        same_outcome(spec, phi)
        speed, _, _ = scalar_speed(spec, 2)
        ref = reference_scalar_speed(spec, 2)
        assert all(speed(v) == ref(v) for v in phi.ravel().tolist())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(TABLE_WARPS)), st.data())
    def test_order_of_calls_changes_no_bit(self, name, data):
        # the float speed guesses each call's inverse piece from the last
        # call's, and the lru_cache shares that closure between callers
        spec = TABLE_WARPS[name]
        x = spec._r_of_phi_table.x
        lo, hi = spec._phi_domain
        # a few neighbouring pieces: inside them, on their knots' float
        # neighbours, and anywhere, so the guess both holds and misses
        i0 = data.draw(st.integers(0, len(x) - 6))
        inside = st.tuples(st.integers(0, 3), st.floats(0.0, 1.0)).map(
            lambda p: float(x[i0 + p[0]] + p[1] * (x[i0 + p[0] + 1] - x[i0 + p[0]])))
        near = st.tuples(st.integers(0, 4), st.integers(-2, 2)).map(
            lambda p: float(x[i0 + p[0]] + p[1] * np.spacing(x[i0 + p[0]])))
        phi = data.draw(st.lists(inside | near | st.floats(lo, hi),
                                 min_size=2, max_size=12, unique=True))
        phi = [v for v in phi if lo < v < hi]
        fresh = functools.partial(warp.scalar_speed.__wrapped__, spec, 2)
        want = {v: fresh()[0](v).hex() for v in phi}
        for order in (sorted(phi), sorted(phi, reverse=True),
                      data.draw(st.permutations(phi))):
            speed = fresh()[0]
            assert {v: speed(v).hex() for v in order} == want


class TestHermiteTables:
    """saturating's tables: quintic Hermite pieces through the quadrature
    values of Phi with the exact first and second derivatives, built with
    numpy alone."""

    @pytest.mark.parametrize("name", sorted(TABLE_WARPS))
    def test_pieces_reproduce_knot_values_and_slopes(self, name):
        # the forward table takes Phi, Phi' = 1/h and Phi'' = -h'/h^2 at the
        # radius knots, the inverse one r, r' = h and r'' = h h' at the
        # potential knots.  At the left knot these are the constant, linear
        # and (halved) quadratic coefficients.  At the right knot they hold
        # to the rounding of the coefficients: each sums 62 multiples of
        # dy/dx^(n-1) and d2y/dx^(n-2) at most, and the j-th derivative of
        # t^n at t = dx multiplies by n!/(n-j)! <= 20, hence 2^(6+2j) units
        # of the slopes' and second derivatives' size there (plus y's)
        spec = TABLE_WARPS[name]
        fwd, inv = spec._phi_table, spec._r_of_phi_table
        a, b, k = (spec.params[key] for key in ("a", "b", "k"))
        h = warp._saturating_h(a, b, k, fwd.x)
        hp = a - b * (1.0 + fwd.x) ** (-k)
        eps = np.finfo(float).eps
        n = np.arange(5, -1, -1)[:, None]     # the powers of t in rows[1:]
        for table, y, dy, d2y in ((fwd, inv.x, 1.0 / h, -hp / h ** 2),
                                  (inv, fwd.x, h, h * hp)):
            x, c = table.x, table.rows[1:]
            dx = np.diff(x)
            pieces = np.arange(len(dx))
            assert table.at(pieces, x[:-1]).tobytes() == y[:-1].tobytes()
            assert c[4].tobytes() == dy[:-1].tobytes()
            assert c[3].tobytes() == (0.5 * d2y[:-1]).tobytes()
            value = table.at(pieces, x[1:])
            slope = (n[:5] * c[:5] * dx ** (n[:5] - 1)).sum(axis=0)
            curvature = (n[:4] * (n[:4] - 1) * c[:4] * dx ** (n[:4] - 2)).sum(axis=0)
            size_d = abs(dy[:-1]) + abs(dy[1:])
            size_d2 = abs(d2y[:-1]) + abs(d2y[1:])
            for j, (got, want) in enumerate(((value, y[1:]), (slope, dy[1:]),
                                             (curvature, d2y[1:]))):
                size = size_d * dx ** (1 - j) + size_d2 * dx ** (2 - j)
                if j == 0:
                    size = size + abs(y[:-1]) + abs(y[1:])
                assert np.all(abs(got - want) <= 2.0 ** (6 + 2 * j) * eps * size), j

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_potential_against_quadrature(self, k):
        # adaptive quadrature of 1/h from the anchor r = 1, on geometric
        # sub-intervals so that each one is resolved to the rounding floor
        spec = make_warp("saturating", a=2.0, b=1.0, k=k)

        def inv_h(s):
            return 1.0 / float(warp._saturating_h(2.0, 1.0, k, s))

        for r in np.geomspace(1e-3, 9e3, 41):
            edges = np.geomspace(min(r, 1.0), max(r, 1.0), 41)
            ref = math.copysign(1.0, r - 1.0) * sum(
                quad(inv_h, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
            assert abs(float(radial_potential(spec, r)) - ref) < 1e-11, r

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_radius_against_quadrature(self, k):
        # the inverse of the quadrature potential above, the radius error
        # measured in potential, dr / h, to the same 1e-11
        spec = make_warp("saturating", a=2.0, b=1.0, k=k)

        def inv_h(s):
            return 1.0 / float(warp._saturating_h(2.0, 1.0, k, s))

        for r in np.geomspace(1e-3, 9e3, 41):
            edges = np.geomspace(min(r, 1.0), max(r, 1.0), 41)
            phi = math.copysign(1.0, r - 1.0) * sum(
                quad(inv_h, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
            got = float(r_of_phi(spec, phi))
            assert abs(got - r) * inv_h(r) < 1e-11, r

    def test_built_without_scipy(self):
        # k != 1 takes the power form of h, which the cold-start runs in
        # test_cli (k = 1, the log1p form) do not
        code = ("import sys; from imcflow import warp\n"
                "for k in (0.5, 2.0): warp.make_warp('saturating', a=2.0, b=1.0, k=k)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.')))")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", sorted(TABLE_WARPS))
    def test_float_speed_within_four_ulp_of_the_array_path(self, name):
        # the float speed computes h' with a float power, the array path
        # with numpy's; numpy scalar calls on the point path would cost
        # more than one formula earns.  Of these 20000 potentials 2 differ
        # at k = 1 and 47 at k = 2, by at most 2 ulp
        spec = TABLE_WARPS[name]
        lo, hi = spec._phi_domain
        phi = np.random.default_rng(3).uniform(lo, hi, 20000)
        phi = phi[(phi > lo) & (phi < hi)]
        speed, _, _ = scalar_speed(spec, 2)
        got = np.array([speed(v) for v in phi.tolist()])
        want = 1.0 / (2.0 * field_hp(spec)[0](phi))
        assert np.all(abs(got - want) <= 4.0 * np.spacing(want))


class TestConditions:
    def test_euclidean_flags(self, presets):
        rep = check_conditions(presets["euclidean"], (0.5, 10.0), rho=1.0)
        assert rep.c1_weak is True
        assert rep.c1_strict is False   # h'' = 0 is not strict
        assert rep.c5_bounded is True

    def test_schwarzschild_strict(self, presets):
        spec = presets["schwarzschild3"]
        lo, hi = r_at_h(spec, 1.5001), r_at_h(spec, 10.0)
        rep = check_conditions(spec, (lo, hi), rho=1.0)
        # h h'' - h'^2 + rho = 3m/h > 0 here
        assert rep.c1_weak and rep.c1_strict and rep.c5_bounded

    def test_hyperbolic_unbounded_witness(self, presets):
        # h h'' - h'^2 = -1 exactly, so strict needs rho >= 1
        rep = check_conditions(presets["hyperbolic"], (1.0, 5.0), rho=1.0)
        assert rep.c1_weak and rep.c1_strict
        assert rep.c5_bounded is False
        # h' = cosh r is unbounded, and grows towards the right edge
        assert rep.witnesses["c5_bounded"] > 4.5

    def test_saturating_alpha_sensitivity(self, presets):
        spec = presets["saturating"]
        # k=1: h^2 h'' = (1 + 2r - ln(1+r))^2/(1+r)^2, bounded by 4
        ok = check_conditions(spec, (0.1, 500.0), rho=0.0, alpha=1.0)
        assert ok.c5_bounded is True
        bad = check_conditions(spec, (0.1, 500.0), rho=0.0, alpha=2.0)
        assert bad.c5_bounded is False  # h^(1+2) h'' grows linearly

    def test_strict_implies_weak(self, presets):
        for spec in presets.values():
            rep = check_conditions(spec, (0.8, 4.0), rho=1.0)
            if rep.c1_strict:
                assert rep.c1_weak

    @pytest.mark.parametrize("r_hi", [15.7, 16.0, 100.0, 700.0])
    def test_hyperbolic_strict_needs_rho_one(self, presets, r_hi):
        # q = h h'' - h'^2 = -1 on the whole interval; sampled as
        # sinh r sinh r - cosh r^2 with a tolerance growing like cosh^2 r,
        # it read as >= 0 from r_hi = 15.66 on
        spec = presets["hyperbolic"]
        rep = check_conditions(spec, (0.5, r_hi), rho=0.0)
        assert rep.c1_strict is False
        assert rep.witnesses["c1_strict"] == r_hi
        assert check_conditions(spec, (0.5, r_hi), rho=1.0).c1_strict is True

    def test_power_weak_down_to_tiny_radii(self):
        # h' = 3 r^2 > 0 however small r is; a sign tolerance scaled by
        # max h' once read it as 0 near r = 1e-6
        rep = check_conditions(make_warp("power", p=3.0), (1e-6, 5.0), rho=1.0)
        assert rep.c1_weak is True

    def test_power_strict_depends_on_interval(self, presets):
        spec = presets["power"]
        # h h'' - h'^2 + rho = rho - p r^(2p-2); with p=2, rho=1: fails past r=2^(-1/2)... r > (1/2)^(1/2)
        good = check_conditions(spec, (0.1, 0.5), rho=1.0)
        bad = check_conditions(spec, (0.1, 3.0), rho=1.0)
        assert good.c1_strict is True
        assert bad.c1_strict is False


# the presets with h''/h stated in closed form: 0, 1, p (p-1)/r^2, m/h^3
# and k b (1+r)^(-k-1)/h
H0_WARPS = {
    "euclidean": make_warp("euclidean"),
    "hyperbolic": make_warp("hyperbolic"),
    "power_1": make_warp("power", p=1.0),
    "power_2": make_warp("power", p=2.0),
    "power_3.7": make_warp("power", p=3.7),
    "schwarzschild3": make_warp("schwarzschild3", m=0.5),
    "saturating_0.5": make_warp("saturating", a=2.0, b=1.0, k=0.5),
    "saturating_1": make_warp("saturating", a=2.0, b=1.0, k=1.0),
    "saturating_2": make_warp("saturating", a=2.0, b=1.0, k=2.0),
}


class TestRAtH:
    # targets beyond each domain: no finite radius gives h = inf on the
    # unbounded ones, and r_max caps the others
    @pytest.mark.parametrize("pid,params,target", [
        ("euclidean", {}, math.inf),
        ("hyperbolic", {}, math.inf),
        ("power", {"p": 2.0}, math.inf),
        ("schwarzschild3", {"m": 0.5}, 3e3),
        ("saturating", {"a": 2.0, "b": 1.0, "k": 1.0}, 3e4),
        ("schwarzschild3", {"m": 0.5}, 1.0),   # below h(0) = 3m
    ])
    def test_target_beyond_the_domain(self, pid, params, target):
        with pytest.raises(WarpDomainError):
            r_at_h(make_warp(pid, **params), target)

    @pytest.mark.parametrize("name", sorted(H0_WARPS))
    def test_lands_on_the_target(self, name):
        spec = H0_WARPS[name]
        h0 = float(eval_warp(spec, 1e-12 + 1e-15)[0])
        # h0 itself is h at the lower end of the search
        for target in np.append(h0, h0 + np.geomspace(0.5, 1000.0, 25)):
            r = r_at_h(spec, target)
            h = float(eval_warp(spec, r)[0])
            assert abs(h / target - 1.0) <= 4.0 * np.finfo(float).eps, (target, r)

    def test_closed_forms(self, presets):
        # in the last case the doubling stops at the top of hyperbolic's
        # domain (r = 710.48, where cosh r would overflow), not at r = 1024
        for target in (1e-3, 0.7, 5.0, 1e3, 1e250):
            assert r_at_h(presets["euclidean"], target) == target
            r = r_at_h(presets["hyperbolic"], target)
            assert abs(r / math.asinh(target) - 1.0) < 1e-15, target
            r = r_at_h(presets["power"], target)
            assert abs(r / math.sqrt(target) - 1.0) < 1e-15, target


def top_radius(name, spec):
    """The largest radius the preset tests probe: hyperbolic's domain ends
    where cosh r overflows, just past 710."""
    return 710.0 if name == "hyperbolic" else min(spec.r_domain[1] * (1.0 - 1e-12), 1e4)


class TestInfimumH0:
    @pytest.mark.parametrize("name", sorted(H0_WARPS))
    def test_ratio_does_not_increase_so_the_top_is_the_infimum(self, name):
        # what lets infimum_h0 read h''/h at the top of the interval
        spec = H0_WARPS[name]
        h, _, hpp = eval_warp(spec, np.geomspace(1e-6, top_radius(name, spec), 20000))
        assert np.all(np.diff(hpp / h) <= 0.0)
        for a, b in ((1e-3, 0.5), (0.5, 2.0), (1.0, 50.0), (3.0, 500.0)):
            h, _, hpp = eval_warp(spec, np.linspace(a, b, 10000))
            assert infimum_h0(spec, (a, b)) == float(hpp[-1] / h[-1])

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


class TestExactConditions:
    """The c1 flags follow from preset facts: h' > 0 (the domain rule),
    h'' >= 0, and q = h h'' - h'^2 stated in closed form and not
    increasing."""

    @pytest.mark.parametrize("name", sorted(H0_WARPS))
    def test_q_does_not_increase(self, name):
        # what lets check_conditions decide c1_strict at the top
        spec = H0_WARPS[name]
        r = np.geomspace(1e-6, top_radius(name, spec), 20000)
        assert np.all(np.diff(warp.q(spec, r, eval_warp(spec, r)[0])) <= 0.0)

    @pytest.mark.parametrize("name", sorted(H0_WARPS))
    def test_q_is_the_product_within_its_rounding(self, name):
        # h h'' - h'^2 from rounded factors is off by a few eps times the
        # size of its terms; the closed forms must sit within that
        spec = H0_WARPS[name]
        r = np.geomspace(1e-6, top_radius(name, spec), 2000)
        h, hp, hpp = eval_warp(spec, r)
        with np.errstate(over="ignore", invalid="ignore"):
            product, size = h * hpp - hp ** 2, h * hpp + hp ** 2
        ok = np.isfinite(product)
        assert ok.sum() > 1500
        err = np.abs(warp.q(spec, r, h) - product)[ok]
        assert np.all(err <= 8.0 * np.finfo(float).eps * size[ok])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(H0_WARPS)), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 10.0))
    def test_flags_equal_a_dense_oracle(self, name, u1, u2, rho):
        # the oracle samples h', h'' and the closed-form q with no tolerance
        spec = H0_WARPS[name]
        top = top_radius(name, spec)
        r_lo, r_hi = sorted(1e-6 * (top / 1e-6) ** u for u in (u1, u2))
        assume(r_hi > r_lo)
        r = np.linspace(r_lo, r_hi, 20001)
        h, hp, hpp = eval_warp(spec, r)
        positive = bool(np.all(hp > 0.0))
        weak = positive and bool(np.all(hpp >= 0.0))
        strict = (positive and bool(np.all(hpp > 0.0))
                  and bool(np.all(warp.q(spec, r, h) + rho >= 0.0)))
        rep = check_conditions(spec, (r_lo, r_hi), rho=rho)
        assert (rep.c1_weak, rep.c1_strict) == (weak, strict)


# the largest alpha of each preset's bounded family, as the presets state
# it: every alpha where h'' = 0, none where h' is unbounded
ALPHA_MAX = {"euclidean": math.inf, "power_1": math.inf,
             "hyperbolic": -math.inf, "power_2": -math.inf, "power_3.7": -math.inf,
             "schwarzschild3": 1.0, "saturating_0.5": 0.5, "saturating_1": 1.0,
             "saturating_2": 2.0}
# over the top decade the bounded functions' log-log slopes stay below
# 0.014 (saturating's product at alpha = k = 0.5, which approaches its
# limit a^1.5 k b from below); the unbounded ones climb at 0.49 or more
SLOPE_TOL = 0.05


def loglog_slope(r, log_f):
    """Least-squares slope of ln f against ln r; 0 where f = 0 (h'' = 0)."""
    if np.all(log_f == -math.inf):
        return 0.0
    return float(np.polyfit(np.log(r), log_f, 1)[0])


class TestBoundedFamily:
    """c5_bounded is decided from each preset's family; the oracle samples
    h' and h^(1+alpha) h'' densely over the top decade of the domain."""

    @pytest.mark.parametrize("name", sorted(H0_WARPS))
    def test_flag_equals_the_slopes_of_a_dense_sample(self, name):
        spec = H0_WARPS[name]
        top = top_radius(name, spec)
        r = np.geomspace(top / 10.0, top, 2001)
        h, hp, hpp = eval_warp(spec, r)
        a_max = ALPHA_MAX[name]
        alphas = ([a_max - 0.5, a_max, a_max + 0.5] if math.isfinite(a_max)
                  else [0.5, 1.0, 2.0])
        for alpha in alphas:
            # the product in logs, which stays finite where it would overflow
            with np.errstate(divide="ignore"):
                log_product = (1.0 + alpha) * np.log(h) + np.log(hpp)
            slopes = loglog_slope(r, np.log(hp)), loglog_slope(r, log_product)
            bounded = max(slopes) <= SLOPE_TOL
            rep = check_conditions(spec, (top / 10.0, top), rho=0.0, alpha=alpha)
            assert rep.c5_bounded is bounded, (alpha, slopes)
            assert rep.witnesses.get("c5_bounded") == (None if bounded else top)
            # the slopes sit far from the tolerance on either side
            assert min(abs(s - SLOPE_TOL) for s in slopes) > 0.02, (alpha, slopes)

    def test_a_single_radius_is_an_interval_and_a_reversed_one_is_not(self, presets):
        # a point run's radial hull is one radius, which once needed a pad
        bounded = {"euclidean": True, "hyperbolic": False, "schwarzschild3": True,
                   "saturating": True, "power": False}
        for name, spec in presets.items():
            assert check_conditions(spec, (1.5, 1.5), rho=1.0).c5_bounded is bounded[name]
        for bad in ((2.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="interval"):
                check_conditions(presets["euclidean"], bad, rho=1.0)


def valid(r, h, hp, hpp):
    """The domain rule: r, h, h', h'' finite and r, h, h' > 0."""
    values = np.array([r, h, hp, hpp], dtype=float)
    return bool(np.isfinite(values).all() and (values[:3] > 0.0).all())


def around(ends):
    """Floats a few ulps from the finite ends, anywhere between them, or
    anything, NaN and infinities included."""
    lo, hi = ends
    edges = [e for e in ends if math.isfinite(e)]
    near = st.tuples(st.sampled_from(edges), st.integers(-4, 4)).map(
        lambda p: float(p[0] + p[1] * np.spacing(p[0])))
    return (near | st.floats(lo, hi, allow_infinity=False) | st.floats()
            if edges else st.floats())


class TestDomainRule:
    """A radius is valid when r, h, h', h'' are finite and r, h, h' > 0,
    a potential when its inverse is: every value the entry points accept
    obeys the rule, as a one-element array, in a longer array and as a
    numpy scalar."""

    @staticmethod
    def accepted(fn, spec, x):
        try:
            with np.errstate(all="ignore"):
                return fn(spec, x)
        except WarpDomainError:
            return None

    def check(self, fn, spec, xs, values):
        """fn's output, through values, obeys the rule wherever fn accepts
        a value, and a longer array of the accepted values is accepted."""
        ok = []
        for x in xs:
            for arg in (np.array([x]), np.float64(x)):
                out = self.accepted(fn, spec, arg)
                if out is not None:
                    assert valid(*values(arg, out)), (x, type(arg))
                    ok.append(x)
        if ok:
            arg = np.array(ok * 8)
            out = self.accepted(fn, spec, arg)
            assert out is not None, ok
            for i in range(arg.size):
                assert valid(*(v.flat[i] if np.ndim(v) else v
                               for v in values(arg, out))), arg[i]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(H0_WARPS)), st.data())
    def test_accepted_radii_obey_the_rule(self, name, data):
        spec = H0_WARPS[name]
        xs = data.draw(st.lists(around(spec.r_domain), min_size=1, max_size=6))
        self.check(eval_warp, spec, xs, lambda r, out: (r,) + tuple(out))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(H0_WARPS)), st.data())
    def test_accepted_potentials_obey_the_rule(self, name, data):
        spec = H0_WARPS[name]
        xs = data.draw(st.lists(around(spec._phi_domain), min_size=1, max_size=6))
        self.check(warp_at_phi, spec, xs, lambda phi, out: out)

    def test_hyperbolic_radius_domain_ends_where_cosh_overflows(self):
        spec = make_warp("hyperbolic")
        with pytest.raises(WarpDomainError):
            eval_warp(spec, 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert infimum_h0(spec, (3.0, 1000.0)) == 1.0

    def test_power_radius_whose_h_overflows_is_outside(self):
        # h = r^1.01 overflows from r = 1.6e305; a point run from 1e307
        # once completed with h = inf in every row
        with pytest.raises(WarpDomainError):
            radial_potential(make_warp("power", p=1.01), 1e307)


@pytest.mark.parametrize("pid,params", [("schwarzschild3", {"M": 2.0}),
                                        ("euclidean", {"p": 2.0}),
                                        ("saturating", {"phi_0": 1.0})])
def test_misspelled_parameter_is_rejected(pid, params):
    # schwarzschild3 with M = 2 once returned m = 0.5
    with pytest.raises(ValueError, match=repr(next(iter(params)))):
        make_warp(pid, **params)


def test_preset_catalog_complete():
    for pid in ["euclidean", "hyperbolic", "schwarzschild3", "saturating", "power"]:
        assert pid in warp.PRESETS
