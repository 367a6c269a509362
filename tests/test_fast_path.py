"""The lean stage path on 1D bases: fused kernel, fast accept, run counts.

The fused kernel must give the generic einsum path's F and Theta^2 bit for
bit, a state the fast test accepts must be one _probe passes without an
event, and a run must not change by one bit when the fast path is removed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow import flow as flow_mod
from imcflow.flow import FlowConfig, run
from imcflow.geometry import (GraphState, _einsum_fields, _light_fields,
                              _speed_1d)
from imcflow.manifold import make_base
from imcflow.warp import make_warp, radial_potential, warp_at_phi

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

WARPS = {
    "euclidean": make_warp("euclidean"),
    "hyperbolic": make_warp("hyperbolic"),
    "power": make_warp("power", p=2.0),
    "schwarzschild3": make_warp("schwarzschild3", m=0.5),
    "saturating": make_warp("saturating", a=2.0, b=1.0, k=1.0),
}

# a potential value deep inside each preset's image, and the image's edges
CENTRE = {"euclidean": 0.0, "hyperbolic": -1.0, "power": 0.0,
          "schwarzschild3": 1.0, "saturating": 0.5}


def edges(pid):
    w = WARPS[pid]
    if pid == "euclidean":
        # r = e^phi leaves (0, inf) by underflow and overflow
        return (-745.1332191019411, 709.782712893384)
    if pid == "hyperbolic":
        return (None, 0.0)
    if pid == "power":
        return (None, 1.0 / (w.params["p"] - 1.0))
    return w._phi_domain


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


kinds = st.sampled_from(["circle", "axisphere"])
finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw, kind=None):
    """A base and a field on it: smooth modes, rough noise or raw values."""
    kind = kind or draw(kinds)
    M = draw(st.integers(4, 40))
    base = make_base(kind, M)
    style = draw(st.sampled_from(["smooth", "rough", "raw"]))
    if style == "raw":
        phi = np.array(draw(st.lists(finite | st.just(-0.0), min_size=M,
                                     max_size=M)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        amp = 10.0 ** draw(st.floats(-4.0, 1.0))
        l = draw(st.integers(1, 6))
        phi = draw(finite) * 0.01 + amp * np.cos(l * base.theta)
        if style == "rough":
            phi = phi + amp * rng.standard_normal(M)
    return base, phi


hps = st.just(1.0) | st.floats(0.05, 20.0).map(float)


class TestFusedKernel:
    @SETTINGS
    @given(fields(), hps, st.data())
    def test_matches_einsum_path_bitwise(self, field, hp, data):
        base, phi = field
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
            hp = hp * (1.0 + 0.1 * rng.random(base.shape))   # h' as a field
        F, theta2, dphi2, g, d2 = _speed_1d(base, phi, hp)
        ref = _einsum_fields(base, phi, hp)
        assert same_bits(F, ref["F"])
        assert same_bits(theta2, ref["theta2"])
        assert same_bits(dphi2, ref["dphi2"])
        assert same_bits(g, ref["grad"][0])
        assert same_bits(d2, ref["hess"][0, 0])

    @SETTINGS
    @given(fields(), st.sampled_from(sorted(WARPS)))
    def test_light_fields_match_einsum_path_bitwise(self, field, pid):
        # snapshot reads these, so the stored geometry is unchanged too
        base, phi = field
        w = WARPS[pid]
        phi = CENTRE[pid] + 1e-2 * np.tanh(phi)
        lf = _light_fields(GraphState(base, w, phi))
        ref = _einsum_fields(base, phi, warp_at_phi(w, phi)[2])
        for key in ("F", "theta", "theta2", "dphi2", "grad", "hess", "sinv"):
            assert same_bits(lf[key], ref[key]), key


def probe_agrees(base, w, phi, theta_min):
    """Fast accept must imply no _probe event and the same fields."""
    fast = flow_mod._fast_accept(base, w, phi, theta_min)
    lf, ev = flow_mod._probe(base, w, phi, 0.0, theta_min)
    if fast is not None:
        assert ev is None
        F, k, theta2, g = fast
        assert same_bits(F, lf["F"])
        assert same_bits(k, 1.0 / lf["F"])
        assert same_bits(theta2, lf["theta2"])
        assert same_bits(g, lf["grad"][0])
    return fast is not None, ev


class TestFastAccept:
    @SETTINGS
    @given(kinds, st.sampled_from(sorted(WARPS)), st.data())
    def test_accept_implies_no_event(self, kind, pid, data):
        base, phi = data.draw(fields(kind))
        w = WARPS[pid]
        lo, hi = edges(pid)
        where = data.draw(st.sampled_from(["centre", "lo", "hi", "nonfinite"]))
        shape = 1e-3 * np.tanh(phi)
        if where == "lo" and lo is None:
            where = "centre"
        if where == "centre":
            # large amplitudes push F through zero
            phi = CENTRE[pid] + phi
        elif where == "lo":
            phi = lo + data.draw(st.floats(-1e-6, 1e-3)) + shape
        elif where == "hi":
            phi = hi - data.draw(st.floats(-1e-6, 1e-3)) + shape
        else:
            phi = CENTRE[pid] + shape
            node = data.draw(st.integers(0, phi.size - 1))
            phi[node] = data.draw(st.sampled_from([math.nan, math.inf,
                                                   -math.inf]))
        with np.errstate(all="ignore"):
            lf, _ = flow_mod._probe(base, w, phi, 0.0, 0.0)
            theta_min = data.draw(st.sampled_from([0.0, 1e-3, 0.5]))
            if lf is not None and data.draw(st.booleans()):
                # put theta_min on, or one ulp either side of, min Theta
                tmin = float(lf["theta"].min())
                theta_min = data.draw(st.sampled_from(
                    [tmin, np.nextafter(tmin, 0.0), np.nextafter(tmin, 1.0)]))
                theta_min = min(theta_min, np.nextafter(1.0, 0.0))
            probe_agrees(base, w, phi, theta_min)

    @pytest.mark.parametrize("kind", ["circle", "axisphere"])
    def test_theta_min_boundary_is_exact(self, kind):
        base = make_base(kind, 32)
        w = WARPS["euclidean"]
        phi = np.log(1.0 + 0.3 * np.cos(base.theta))
        tmin = float(_light_fields(GraphState(base, w, phi))["theta"].min())
        assert probe_agrees(base, w, phi, tmin) == (True, None)
        accepted, ev = probe_agrees(base, w, phi, np.nextafter(tmin, 1.0))
        assert not accepted and ev.kind == "angle_degeneracy"

    @pytest.mark.parametrize("kind", ["circle", "axisphere"])
    def test_loss_of_mean_convexity_falls_back(self, kind):
        base = make_base(kind, 32)
        w = WARPS["euclidean"]
        phi = 0.6 * np.cos(4 * base.theta)
        accepted, ev = probe_agrees(base, w, phi, 0.0)
        assert not accepted and ev.kind == "loss_of_mean_convexity"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_falls_back(self, bad):
        base = make_base("axisphere", 16)
        phi = np.zeros(16)
        phi[5] = bad
        with np.errstate(all="ignore"):
            accepted, ev = probe_agrees(base, WARPS["euclidean"], phi, 1e-3)
        assert not accepted
        assert (ev.kind, ev.node) == ("numeric", 5)

    def test_infinite_F_inside_the_domain_falls_back(self):
        # the smallest negative potential maps to r ~ 745, where cosh r
        # overflows: h' = inf passes the radius check, F = inf does not; a
        # round state, so F is positive (infinite) everywhere
        base = make_base("axisphere", 16)
        phi = np.full(16, -5e-324)
        with np.errstate(all="ignore"):
            accepted, ev = probe_agrees(base, WARPS["hyperbolic"], phi, 1e-3)
        assert not accepted
        assert (ev.kind, ev.node, ev.value) == ("numeric", 0, math.inf)

    @pytest.mark.parametrize("pid,value", [
        ("euclidean", 710.0), ("euclidean", -746.0), ("hyperbolic", 0.0),
        ("power", 1.0), ("schwarzschild3", None), ("saturating", None)])
    def test_warp_domain_edge_falls_back(self, pid, value):
        w = WARPS[pid]
        base = make_base("axisphere", 16)
        phi = np.full(16, CENTRE[pid])
        phi[9] = w._phi_domain[1] if value is None else value
        with np.errstate(all="ignore"):
            accepted, ev = probe_agrees(base, w, phi, 1e-3)
        assert not accepted
        assert (ev.kind, ev.node, ev.value) == ("domain", 9, phi[9])


def strip_path_counts(stats):
    return {k: v for k, v in stats.items()
            if k not in ("fast_accepts", "full_probes")}


def assert_same_trace(a, b):
    assert same_bits(a.times, b.times)
    assert a.columns.keys() == b.columns.keys()
    for key in a.columns:
        assert same_bits(a.columns[key], b.columns[key]), key
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, sa, _), (tb, sb, _) in zip(a.snapshots, b.snapshots):
        assert ta == tb and same_bits(sa.phi, sb.phi)
    assert repr(a.terminal) == repr(b.terminal)
    assert strip_path_counts(a.stats) == strip_path_counts(b.stats)


def criterion2_state(M=200):
    base = make_base("axisphere", M)
    w = WARPS["euclidean"]
    return GraphState(base, w,
                      radial_potential(w, 1.0 + 0.3 * np.cos(base.theta)))


def circle_state():
    base = make_base("circle", 64)
    w = WARPS["euclidean"]
    r = 1.5 + 0.2 * np.cos(base.theta) + 0.05 * np.sin(3 * base.theta)
    return GraphState(base, w, radial_potential(w, r))


def domain_exit_state():
    base = make_base("axisphere", 8)
    w = WARPS["saturating"]
    return GraphState.from_radius(base, w,
                                  5000.0 * (1.0 + 0.01 * np.cos(base.theta)))


CASES = {
    # criterion 2's setup (M=200, RK4, safety 0.5, dt_max 1e-3), shortened
    "criterion2": (criterion2_state, FlowConfig(
        t_end=0.25, integrator="rk4", safety=0.5, dt_max=1e-3,
        snapshot_every=0.1, record_every=0.1)),
    "circle": (circle_state, FlowConfig(t_end=1.0, safety=0.5, dt_max=5e-3)),
    "circle_euler": (circle_state, FlowConfig(
        t_end=0.3, integrator="euler", safety=0.25, dt_max=5e-3)),
    "domain_exit": (domain_exit_state, FlowConfig(
        t_end=3.0, dt_max=1e-2, safety=0.5)),
}


class TestTraceIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fast_path_changes_no_bit(self, case, monkeypatch):
        make_state, cfg = CASES[case]
        fast = run(make_state(), cfg)
        monkeypatch.setattr(flow_mod, "_fast_accept", lambda *args: None)
        slow = run(make_state(), cfg)
        assert_same_trace(fast, slow)
        assert fast.stats["fast_accepts"] > 0
        assert slow.stats["fast_accepts"] == 0
        assert slow.stats["full_probes"] == slow.stats["f_evals"]


class TestRunStats:
    def test_counts_add_up_and_repeat(self):
        _, cfg = CASES["criterion2"]
        a = run(criterion2_state(100), cfg)
        b = run(criterion2_state(100), cfg)
        s = a.stats
        assert s == b.stats
        assert s["f_evals"] == s["fast_accepts"] + s["full_probes"]
        # RK4: initial probe plus four F evaluations per step
        assert s["f_evals"] == 1 + 4 * s["steps"]
        assert sum(s["dt_limiter"].values()) == s["steps"]
        # M=100 at safety 0.5 is CFL-bound; every record time is landed on
        assert s["dt_limiter"]["cfl"] > 0
        assert s["dt_limiter"]["landing"] >= 3
        assert 0.0 < s["min_dt"] <= s["max_dt"] <= cfg.dt_max

    def test_point_run_counts(self):
        w = WARPS["euclidean"]
        tr = run(GraphState(make_base("point", 2), w, np.array([0.0])),
                 FlowConfig(t_end=0.3, dt_max=1e-3))
        s = tr.stats
        assert s["steps"] == 300 and s["f_evals"] == 1 + 4 * 300
        assert s["fast_accepts"] == 0 and s["full_probes"] == 1
        assert s["dt_limiter"]["cfl"] == 0
        assert s["dt_limiter"]["landing"] + s["dt_limiter"]["dt_max"] == 300

    def test_event_before_first_step(self):
        w = WARPS["hyperbolic"]
        tr = run(GraphState(make_base("point", 2), w, np.array([0.5])),
                 FlowConfig(t_end=1.0))
        assert tr.stats["steps"] == 0
        assert tr.stats["min_dt"] is None and tr.stats["max_dt"] is None
