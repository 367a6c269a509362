"""The lean stage path: the stencil, the speed kernel, _evaluate, the counts.

differences and assemble must give the np.roll stencils' gradient and
Hessian bit for bit, geometry.speed_kernel the generic einsum formula's F and
Theta^2, flow._evaluate the verdict, fault and fields of a reference built
from warp_at_phi and that formula, with a StageBuffers set and without,
flow._cfl_dt the step size of a plain np.max reference, and a run must
not change by one bit when the references take their places.  The
extremes these and flow._diag_row read by index (warp._min, warp._max)
give the reductions' verdicts and values on planted NaN, +-inf and
signed-zero ties.
"""

import dataclasses
import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imcflow import flow as flow_mod, warp as warp_mod
from imcflow.flow import FlowConfig, run
from imcflow.geometry import (GraphState, _light_fields, snapshot, speed_kernel,
                              stage_buffers)
from imcflow.manifold import covariant_derivatives, make_base
from imcflow.warp import (WarpDomainError, eval_warp, make_warp, radial_potential,
                          scalar_speed, warp_at_phi)

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
        # cosh r overflows just below phi = 0
        return (None, w._phi_domain[1])
    if pid == "power":
        return (None, 1.0 / (w.params["p"] - 1.0))
    return w._phi_domain


def _roll_stencils(base, f):
    """Covariant gradient and Hessian by np.roll, independent of manifold.

    Periodic neighbours on the circle and the torus, neighbours by even
    reflection across the poles on the axisphere; zero-size arrays on the
    point base.  The bitwise reference for differences and assemble.
    """
    if base.kind == "torus2":
        def d1(f, axis):
            return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * base.dx)

        def d2(f, axis):
            return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2.0 * f) / base.dx ** 2
        hess = np.zeros((2, 2) + base.shape)
        hess[0, 0], hess[1, 1] = d2(f, 0), d2(f, 1)
        hess[0, 1] = hess[1, 0] = d1(d1(f, 0), 1)
        return np.stack([d1(f, 0), d1(f, 1)]), hess
    grad = np.zeros((base.dc,) + base.shape)
    hess = np.zeros((base.dc, base.dc) + base.shape)
    if base.dc == 0:
        return grad, hess
    if base.kind == "circle":
        up, down = np.roll(f, -1), np.roll(f, 1)
    else:
        up = np.concatenate((f[1:], f[-1:]))
        down = np.concatenate((f[:1], f[:-1]))
    grad[0] = (up - down) / (2.0 * base.dtheta)
    hess[0, 0] = (up + down - 2.0 * f) / base.dtheta ** 2
    if base.kind == "axisphere":
        hess[1, 1] = base.sin * base.cos * grad[0]   # -Gamma^theta_ss f_theta
    return grad, hess


def _einsum_fields(base, phi, hp):
    """Theta, dphi2 and F through the full stencils and einsum.

    The generic formula for any base with a diagonal metric, from the
    np.roll stencils; the bitwise reference for geometry.speed_kernel.
    """
    nm1 = base.d
    grad, hess = _roll_stencils(base, phi)
    sinv = base.sigma_inv_diag()
    up = sinv * grad                       # phi^i (diagonal sigma)
    dphi2 = np.sum(up * grad, axis=0)      # |D phi|^2
    theta2 = 1.0 / (1.0 + dphi2)
    # st^ij phi_ij = sigma^ii phi_ii - Theta^2 phi^i phi^j phi_ij
    S = np.einsum("i...,ii...->...", sinv, hess)
    S -= theta2 * np.einsum("i...,j...,ij...->...", up, up, hess)
    F = theta2 * (nm1 * hp - S)
    return dict(theta=np.sqrt(theta2), theta2=theta2, dphi2=dphi2, F=F,
                grad=grad, hess=hess, sinv=sinv)


FIELD_KEYS = ("F", "theta", "theta2", "dphi2", "grad", "hess", "sinv")


def _speed_fields(base, phi, hp):
    """geometry.speed_kernel and base.assemble, keyed like _einsum_fields."""
    F, theta2, dphi2, diffs = speed_kernel(base)(phi, hp)
    grad, hess = base.assemble(diffs)
    return dict(theta=np.sqrt(theta2), theta2=theta2, dphi2=dphi2, F=F,
                grad=grad, hess=hess, sinv=base.sigma_inv_diag())


def _diffs(base, grad, hess):
    """The differences tuple of a base, read off full grad/hess arrays."""
    if base.kind == "torus2":
        return grad[0], grad[1], hess[0, 0], hess[1, 1], hess[0, 1]
    return (grad[0], hess[0, 0]) if base.dc else ()


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


KINDS = ["circle", "axisphere", "torus2"]
kinds = st.sampled_from(KINDS)
finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw, kind=None):
    """A base and a field on it: smooth modes, rough noise or raw values."""
    kind = kind or draw(kinds)
    M = draw(st.integers(4, 24 if kind == "torus2" else 40))
    base = make_base(kind, M)
    style = draw(st.sampled_from(["smooth", "rough", "raw"]))
    if style == "raw":
        phi = np.array(draw(st.lists(finite | st.just(-0.0),
                                     min_size=base.n_nodes,
                                     max_size=base.n_nodes)))
        phi = phi.reshape(base.shape)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        amp = 10.0 ** draw(st.floats(-4.0, 1.0))
        l = draw(st.integers(1, 6))
        if kind == "torus2":
            q = draw(st.integers(-3, 3))
            angle = l * base.x[:, None] + q * base.x[None, :]
        else:
            angle = l * base.theta
        phi = draw(finite) * 0.01 + amp * np.cos(angle)
        if style == "rough":
            phi = phi + amp * rng.standard_normal(base.shape)
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
        ref = _einsum_fields(base, phi, hp)
        mine = _speed_fields(base, phi, hp)
        for key in FIELD_KEYS:
            assert same_bits(mine[key], ref[key]), key
        diffs = base.differences(phi)
        for a, b in zip(diffs, _diffs(base, ref["grad"], ref["hess"]), strict=True):
            assert same_bits(a, b)
        grad, hess = covariant_derivatives(base, phi)
        assert same_bits(grad, ref["grad"]) and same_bits(hess, ref["hess"])

    @pytest.mark.parametrize("sign", [0.0, -0.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_signed_zero_field(self, kind, sign):
        base = make_base(kind, 6)
        phi = np.full(base.shape, sign)
        ref = _einsum_fields(base, phi, 1.0)
        mine = _speed_fields(base, phi, 1.0)
        for key in FIELD_KEYS:
            assert same_bits(mine[key], ref[key]), key

    @SETTINGS
    @given(fields(), st.sampled_from(sorted(WARPS)))
    def test_light_fields_match_einsum_path_bitwise(self, field, pid):
        # snapshot reads these, so the stored geometry is unchanged too
        base, phi = field
        w = WARPS[pid]
        phi = CENTRE[pid] + 1e-2 * np.tanh(phi)
        lf = _light_fields(GraphState(base, w, phi))
        ref = _einsum_fields(base, phi, warp_at_phi(w, phi)[2])
        for key in FIELD_KEYS:
            assert same_bits(lf[key], ref[key]), key


def wave(base, l):
    """cos(l theta) on a 1D base, cos(l (x + y)) on the torus."""
    if base.kind == "torus2":
        return np.cos(l * (base.x[:, None] + base.x[None, :]))
    return np.cos(l * base.theta)


def reference_evaluate(dispatch, phi, theta_min, out=None):
    """flow._evaluate from the full warp evaluation and the einsum formula.

    The fault rules, in their order: non-finite phi, the warp's domain,
    non-finite F, F <= 0, Theta < theta_min, each at its first or
    smallest node, as (kind, node, value).  Every array is new; out is
    not used.
    """
    base, w = dispatch.base, dispatch.wspec
    finite = np.isfinite(phi)
    if not finite.all():
        node = int((~finite).argmax())
        return None, ("numeric", node, float(phi.flat[node]))
    try:
        hp = warp_at_phi(w, phi)[2]
    except WarpDomainError as exc:
        return None, ("domain", exc.node, float(phi.flat[exc.node]))
    ref = _einsum_fields(base, phi, hp)
    F = ref["F"]
    finite = np.isfinite(F)
    if not finite.all():
        node = int((~finite).argmax())
        return None, ("numeric", node, float(F.flat[node]))
    fmin = float(F.min())
    if fmin <= 0.0:
        return None, ("loss_of_mean_convexity", int(F.argmin()), fmin)
    theta = ref["theta"]
    tmin = float(theta.min())
    if tmin < theta_min:
        return None, ("angle_degeneracy", int(theta.argmin()), tmin)
    return (F, 1.0 / F, ref["theta2"], _diffs(base, ref["grad"], ref["hess"])), None


def reference_cfl_dt(base, F, theta2, diffs, safety):
    """flow._cfl_dt with new arrays and np.max, over the grid's
    directions: the bitwise reference for the step size."""
    if base.kind == "circle":
        D = theta2 * (1.0 - theta2 * diffs[0] ** 2) / F ** 2
    else:
        D = theta2 / F ** 2
    dmax = float(np.max(D))
    if dmax <= 0.0:
        return math.inf
    return safety * base.dx_min ** 2 / (2.0 * len(base.shape) * dmax)


def nan_buffers(base):
    """A StageBuffers set whose every array holds NaN, so a value the
    kernel reads before it writes it shows."""
    out = stage_buffers(base)
    for a in out.stencil + out[1:]:
        a.fill(math.nan)
    return out


def probe_agrees(base, w, phi, theta_min):
    """_evaluate must give the reference's fault, or its fields bit for bit,
    with new arrays and, on a field base, with a StageBuffers set, whose F
    and 1/F arrays it then returns."""
    dispatch = flow_mod._Dispatch(base, w)
    ref_fields, ref_ev = reference_evaluate(dispatch, phi, theta_min)
    outs = [None, nan_buffers(base)] if base.dc else [None]
    for out in outs:
        fields, ev = flow_mod._evaluate(dispatch, phi, theta_min, out)
        assert repr(ev) == repr(ref_ev)
        if ev is None:
            # F, 1/F, Theta^2, then each difference
            for mine, theirs in zip(fields[:3] + fields[3],
                                    ref_fields[:3] + ref_fields[3], strict=True):
                assert same_bits(mine, theirs)
            if out is not None:
                assert fields[0] is out.F and fields[1] is out.k
        else:
            assert fields is None
    return ev is None, ev


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
            phi.flat[node] = data.draw(st.sampled_from(
                [math.nan, math.inf, -math.inf]))
        with np.errstate(all="ignore"):
            _, ev = reference_evaluate(flow_mod._Dispatch(base, w), phi, 0.0)
            graph = ev is None or ev[0] == "loss_of_mean_convexity"
            theta_min = data.draw(st.sampled_from([0.0, 1e-3, 0.5]))
            if graph and data.draw(st.booleans()):
                # put theta_min on, or one ulp either side of, min Theta
                # (Theta does not depend on h')
                tmin = float(_einsum_fields(base, phi, 1.0)["theta"].min())
                theta_min = data.draw(st.sampled_from(
                    [tmin, np.nextafter(tmin, 0.0), np.nextafter(tmin, 1.0)]))
                theta_min = min(theta_min, np.nextafter(1.0, 0.0))
            probe_agrees(base, w, phi, theta_min)

    @pytest.mark.parametrize("kind", KINDS)
    def test_theta_min_boundary_is_exact(self, kind):
        base = make_base(kind, 32)
        w = WARPS["euclidean"]
        phi = np.log(1.0 + 0.3 * wave(base, 1))
        tmin = float(_light_fields(GraphState(base, w, phi))["theta"].min())
        assert probe_agrees(base, w, phi, tmin) == (True, None)
        accepted, ev = probe_agrees(base, w, phi, np.nextafter(tmin, 1.0))
        assert not accepted and ev[0] == "angle_degeneracy"

    @pytest.mark.parametrize("pid", sorted(WARPS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_valid_state_of_every_preset(self, kind, pid):
        # probe_agrees runs the kernel with a buffer set and without
        base = make_base(kind, 32)
        phi = CENTRE[pid] + np.log(1.0 + 0.3 * wave(base, 1))
        assert probe_agrees(base, WARPS[pid], phi, 1e-3) == (True, None)

    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_of_mean_convexity_falls_back(self, kind):
        base = make_base(kind, 32)
        w = WARPS["euclidean"]
        phi = 0.6 * wave(base, 4)
        accepted, ev = probe_agrees(base, w, phi, 0.0)
        assert not accepted and ev[0] == "loss_of_mean_convexity"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_falls_back(self, bad):
        base = make_base("axisphere", 16)
        phi = np.zeros(16)
        phi[5] = bad
        with np.errstate(all="ignore"):
            accepted, ev = probe_agrees(base, WARPS["euclidean"], phi, 1e-3)
        assert not accepted
        assert ev[:2] == ("numeric", 5)

    def test_infinite_F_inside_the_domain_falls_back(self):
        # phi = -1e-308 maps to r = 709.89, where h' = cosh r is finite but
        # F = 2 cosh r overflows: the state passes the domain check, F = inf
        # does not; a round state, so F is positive (infinite) everywhere
        base = make_base("axisphere", 16)
        phi = np.full(16, -1e-308)
        with np.errstate(all="ignore"):
            accepted, ev = probe_agrees(base, WARPS["hyperbolic"], phi, 1e-3)
        assert not accepted
        assert ev == ("numeric", 0, math.inf)

    @pytest.mark.parametrize("pid,value", [
        ("euclidean", 710.0), ("euclidean", -746.0), ("hyperbolic", 0.0),
        ("power", 1.0), ("schwarzschild3", None), ("saturating", None)])
    def test_warp_domain_edge_falls_back(self, pid, value):
        w = WARPS[pid]
        for base in (make_base("axisphere", 16), make_base("torus2", 4)):
            phi = np.full(base.shape, CENTRE[pid])
            phi.flat[9] = w._phi_domain[1] if value is None else value
            with np.errstate(all="ignore"):
                accepted, ev = probe_agrees(base, w, phi, 1e-3)
            assert not accepted
            assert ev == ("domain", 9, phi.flat[9])

    @pytest.mark.parametrize("pid", sorted(WARPS))
    def test_point_base_matches_reference(self, pid):
        # the scalar stepper's initial state and event faults
        base = make_base("point", d=2)
        w = WARPS[pid]
        phi = np.array([CENTRE[pid]])
        assert probe_agrees(base, w, phi, 1e-3) == (True, None)
        for value in edges(pid) + (math.nan, math.inf, -math.inf):
            if value is not None:
                phi[0] = value
                with np.errstate(all="ignore"):
                    probe_agrees(base, w, phi, 1e-3)


def by_reduction(module):
    """module's _min and _max as np.minimum.reduce and np.maximum.reduce,
    the reductions that the reads by index replace."""
    return mock.patch.multiple(
        module, _min=lambda x: np.minimum.reduce(x, None),
        _max=lambda x: np.maximum.reduce(x, None))


def outcome(f, *args):
    """f(*args), or the type, message and node of the error it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "node", None)


def same(a, b):
    """Equal bit for bit, through tuples, arrays and floats."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, (np.ndarray, float)):
        return isinstance(b, (np.ndarray, float)) and same_bits(a, b)
    return a == b


def reduction_row(snap, dt):
    """flow._diag_row with the extremes by np.min, np.max and np.sqrt."""
    scale = np.exp(-snap.t / (snap.n - 1))
    return {
        "dt": dt,
        "min_H": float(np.min(snap.H)),
        "max_H": float(np.max(snap.H)),
        "min_omega": float(np.min(snap.omega)),
        "max_omega": float(np.max(snap.omega)),
        "max_grad_phi": float(np.sqrt(np.max(snap.dphi2))),
        "max_hess_phi": float(np.max(np.abs(snap.hess))) if snap.hess.size else 0.0,
        "max_A": float(np.sqrt(np.max(snap.A2))),
        "osc_rescaled_h": float(scale * (np.max(snap.h) - np.min(snap.h))),
    }


def plants(a):
    """What to plant into the array a, each a list of (flat node, value):
    NaN at a node after its minimum, +inf, -inf, and 0.0 and -0.0 at two
    nodes, either way round."""
    low, last, mid = int(a.argmin()), a.size - 1, a.size // 2 + 1
    assert low < last
    return ([(last, math.nan)], [(mid, math.inf)], [(mid, -math.inf)],
            [(1, 0.0), (last - 1, -0.0)], [(1, -0.0), (last - 1, 0.0)])


def planted(a, plant):
    a = np.array(a, dtype=float)
    for node, value in plant:
        a.flat[node] = value
    return a


def planting_dispatch(base, w, name, plant):
    """A _Dispatch whose speed kernel plants into its F or Theta^2."""
    dispatch = flow_mod._Dispatch(base, w)
    speed_kernel = dispatch.speed

    def planting(phi, hp, out=None):
        F, theta2, dphi2, diffs = speed_kernel(phi, hp, out)
        for node, value in plant:
            {"F": F, "theta2": theta2}[name].flat[node] = value
        return F, theta2, dphi2, diffs
    dispatch.speed = planting
    return dispatch


# the axisphere's 1D arrays, and the torus's 2D ones, read by flat index
PLANT_BASES = [("axisphere", 16), ("torus2", 6)]


class TestReductionsByIndex:
    """warp._min and warp._max read an extreme at its argmin or argmax in
    place of np.minimum.reduce and np.maximum.reduce.  At every site they
    feed, a planted NaN, +-inf or 0.0/-0.0 tie gives what the reductions
    give: the same verdict, event kind, node and value, and the same bits
    of every returned field."""

    @SETTINGS
    @given(st.data())
    def test_extremes_compare_as_the_reductions(self, data):
        shape = data.draw(st.sampled_from([(1,), (2,), (9,), (3, 4)]))
        values = st.floats() | st.sampled_from(
            [0.0, -0.0, math.inf, -math.inf, math.nan])
        size = math.prod(shape)
        x = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        x = x.reshape(shape)
        for read, reduce, arg in ((warp_mod._min, np.minimum.reduce, x.argmin),
                                  (warp_mod._max, np.maximum.reduce, x.argmax)):
            mine, theirs = read(x), float(reduce(x, None))
            assert type(mine) is float
            if math.isnan(theirs):
                # argmin and argmax stop at the first NaN
                assert math.isnan(mine)
                assert arg() == int(np.isnan(x).argmax())
            else:
                # equal; the same bits unless 0.0 and -0.0 tie
                assert mine == theirs
                assert theirs == 0.0 or same_bits(mine, theirs)

    def agree(self, dispatch, phi, theta_min):
        """_evaluate by index and by reduction, with new arrays and with
        a fresh StageBuffers set each, give the same."""
        base = dispatch.base
        with np.errstate(all="ignore"):
            for fresh in (lambda: None, lambda: nan_buffers(base)):
                mine = outcome(flow_mod._evaluate, dispatch, phi,
                               theta_min, fresh())
                with by_reduction(flow_mod):
                    theirs = outcome(flow_mod._evaluate, dispatch, phi,
                                     theta_min, fresh())
                assert same(mine, theirs), (mine, theirs)
        return mine

    @pytest.mark.parametrize("pid", sorted(WARPS))
    @pytest.mark.parametrize("kind,M", PLANT_BASES)
    def test_evaluate_phi_domain_test(self, kind, M, pid):
        base, w = make_base(kind, M), WARPS[pid]
        dispatch = flow_mod._Dispatch(base, w)
        # >= 1e-2 and smallest inside the grid: the planted 0.0 and -0.0
        # are the minimum of bump and the maximum of -bump
        bump = 1e-2 * (2.0 + wave(base, 2))
        for phi in (CENTRE[pid] + bump, bump, -bump):
            for plant in plants(phi):
                bad = planted(phi, plant)
                self.agree(dispatch, bad, 1e-3)
                with np.errstate(all="ignore"):
                    probe_agrees(base, w, bad, 1e-3)

    @pytest.mark.parametrize("theta_min", [0.0, 1e-3])
    @pytest.mark.parametrize("name", ["F", "theta2"])
    @pytest.mark.parametrize("kind,M", PLANT_BASES)
    def test_evaluate_field_tests(self, kind, M, name, theta_min):
        # F's test, and Theta^2's: F > 0 and 0 < Theta^2 <= 1 elsewhere,
        # so a planted -inf or 0.0/-0.0 tie is the array's minimum
        base, w = make_base(kind, M), WARPS["euclidean"]
        phi = 0.1 * wave(base, 2)
        F, theta2 = speed_kernel(base)(phi, 1.0)[:2]
        assert F.min() > 0.0
        kinds = set()
        for plant in plants({"F": F, "theta2": theta2}[name]):
            dispatch = planting_dispatch(base, w, name, plant)
            got = self.agree(dispatch, phi, theta_min)
            if len(got) == 3:       # raised: (type, message, node)
                kinds.add(got[0])
            else:                   # (fields, fault or None)
                kinds.add(got[1] and got[1][0])
        if name == "F":
            assert kinds == {"numeric", "loss_of_mean_convexity"}
        else:
            # +inf is no minimum; Theta = +-0 passes theta_min = 0; sqrt
            # of -inf raises alike (no state has Theta^2 < 0)
            assert kinds == {"angle_degeneracy", None, ValueError}

    @pytest.mark.parametrize("kind,M", PLANT_BASES)
    def test_evaluate_reciprocal_test(self, kind, M):
        # 1/F is tested only after min F > 0, so its only value <= 0 is
        # the 0.0 of an infinite F; NaN and -inf in F fail F's test first
        base, w = make_base(kind, M), WARPS["euclidean"]
        phi = 0.1 * wave(base, 2)
        last = base.n_nodes - 1
        for plant in ([(last, math.inf)], [(1, math.inf), (last, math.inf)]):
            dispatch = planting_dispatch(base, w, "F", plant)
            fields, ev = self.agree(dispatch, phi, 1e-3)
            assert ev == ("numeric", plant[0][0], math.inf)

    @pytest.mark.parametrize("name", ["F", "theta2"])
    @pytest.mark.parametrize("kind,M", PLANT_BASES + [("circle", 16)])
    def test_cfl_dt(self, kind, M, name):
        # a NaN bound is NaN alike, but its sign bit is not pinned: the
        # read by index gives the NaN as stored (sqrt(-inf) is -NaN here),
        # np.maximum.reduce a positive one; run takes dt_max
        # on either, since NaN < dt_max is false
        base = make_base(kind, M)
        phi = 0.1 * wave(base, 2)
        F, theta2, _, diffs = speed_kernel(base)(phi, 1.0)
        for plant in plants({"F": F, "theta2": theta2}[name]):
            args = {"F": F, "theta2": theta2}
            args[name] = planted(args[name], plant)
            args = (base, args["F"], args["theta2"], diffs, 0.5)
            with np.errstate(all="ignore"):
                mine = flow_mod._cfl_dt(*args)
                with by_reduction(flow_mod):
                    theirs = flow_mod._cfl_dt(*args)
                for other in (theirs, reference_cfl_dt(*args)):
                    assert (same(mine, other) if not math.isnan(mine)
                            else math.isnan(other))

    def test_cfl_dt_signed_zero_tie(self):
        # only the circle's D = Theta^2 st / F^2 can be -0.0: st < 0 where
        # Theta^2 phi_theta^2 > 1, and the quotient underflows; D = 0.0
        # where Theta^2 = 0, so max D is a 0.0/-0.0 tie and nothing binds
        base = make_base("circle", 8)
        F, theta2, g = np.ones(8), np.zeros(8), np.zeros(8)
        F[3], theta2[3], g[3] = 1e150, 1e-200, 1e101
        args = (base, F, theta2, (g, np.zeros(8)), 0.5)
        with np.errstate(all="ignore"):
            D = theta2 * (1.0 - theta2 * g ** 2) / F ** 2
            assert same_bits(D[3], -0.0) and same_bits(D[2], 0.0)
            assert flow_mod._cfl_dt(*args) == math.inf
            with by_reduction(flow_mod):
                assert flow_mod._cfl_dt(*args) == math.inf
            assert reference_cfl_dt(*args) == math.inf

    @pytest.mark.parametrize("kind,M", [("point", 1)] + PLANT_BASES)
    def test_diag_row_gives_the_reductions_values(self, kind, M):
        # a recorded row and the snapshot extremes it reads, on a snapshot
        # and with each array it reads planted; the point base's one-node
        # arrays take a NaN only
        # the point base's one node takes no resolution
        base = make_base(kind) if kind == "point" else make_base(kind, M)
        w = WARPS["saturating"]
        phi = np.full(base.shape, CENTRE["saturating"])
        if base.dc:
            phi += 0.1 * wave(base, 2)
        snap = snapshot(GraphState(base, w, phi, 0.7))
        cases = [snap]
        for name in ("H", "omega", "dphi2", "hess", "A2", "h"):
            arr = getattr(snap, name)
            if arr.size:
                for plant in [[(arr.size - 1, math.nan)],
                              *(plants(arr) if arr.size > 1 else ())]:
                    cases.append(dataclasses.replace(snap, **{name: planted(arr, plant)}))
        for s in cases:
            mine, theirs = flow_mod._diag_row(s, 1e-3), reduction_row(s, 1e-3)
            assert mine.keys() == theirs.keys()
            for key, want in theirs.items():
                got = mine[key]
                assert type(got) is float, key
                if math.isnan(want):
                    assert math.isnan(got), key
                else:
                    # the same bits unless 0.0 and -0.0 tie
                    assert got == want, key
                    assert want == 0.0 or same_bits(got, want), key

    @pytest.mark.parametrize("pid", ["euclidean", "saturating"])
    @pytest.mark.parametrize("kind,M", PLANT_BASES)
    def test_warp_checked(self, kind, M, pid):
        # radii, whose domain starts at 0.0, where the tie decides nothing,
        # and potentials
        base, w = make_base(kind, M), WARPS[pid]
        r = 1.0 + 0.1 * wave(base, 2)
        phi = radial_potential(w, r)
        for f, x, (lo, hi) in ((eval_warp, r, w.r_domain),
                               (warp_at_phi, phi, w._phi_domain)):
            for plant in plants(x):
                bad = planted(x, plant)
                with np.errstate(all="ignore"):
                    mine = outcome(f, w, bad)
                    with by_reduction(warp_mod):
                        theirs = outcome(f, w, bad)
                assert same(mine, theirs), (f.__name__, mine, theirs)
                outside = sorted(n for n, v in plant if not lo < v < hi)
                if outside:
                    assert mine[0] is WarpDomainError
                    assert mine[2] == outside[0]
                else:
                    assert not (isinstance(mine, tuple) and mine[0] is WarpDomainError)


class TestCflDt:
    @SETTINGS
    @given(fields(), hps, st.floats(0.01, 6.0), st.data())
    def test_matches_reference_bitwise(self, field, hp, safety, data):
        # the step size, so the dt column, from the one bound formula
        base, phi = field
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
            hp = hp * (1.0 + 0.1 * rng.random(base.shape))
        with np.errstate(all="ignore"):
            F, theta2, _, diffs = speed_kernel(base)(phi, hp)
            mine = flow_mod._cfl_dt(base, F, theta2, diffs, safety)
            assert same(mine, reference_cfl_dt(base, F, theta2, diffs, safety))


def assert_same_trace(a, b):
    assert same_bits(a.times, b.times)
    assert a.columns.keys() == b.columns.keys()
    for key in a.columns:
        assert same_bits(a.columns[key], b.columns[key]), key
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, sa, _), (tb, sb, _) in zip(a.snapshots, b.snapshots):
        assert ta == tb and same_bits(sa.phi, sb.phi)
    assert repr(a.terminal) == repr(b.terminal)
    assert a.stats == b.stats


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


def torus_tabulated_state():
    # the torus_tabulated benchmark's seed-0 input
    base = make_base("torus2", 32)
    w = WARPS["schwarzschild3"]
    x, y = base.x[:, None], base.x[None, :]
    r = np.ones(base.shape)
    for p, q in ((1, 0), (0, 1), (1, 1)):
        r = r + 0.05 * np.cos(p * x + q * y + 0.0)
    return GraphState(base, w, radial_potential(w, 2.0 * r))


def saturating_state():
    base = make_base("axisphere", 64)
    w = WARPS["saturating"]
    return GraphState(base, w,
                      radial_potential(w, 1.0 + 0.3 * np.cos(base.theta)))


def unstable_state():
    # a period-4 ripple, which safety 3 (beyond RK4's stable range) grows
    # until F <= 0 at a stage of a later step
    base = make_base("axisphere", 64)
    w = WARPS["euclidean"]
    ripple = np.cos(0.5 * np.pi * np.arange(64))
    return GraphState.from_radius(
        base, w, 1.0 + 0.1 * np.cos(base.theta) + 1e-4 * ripple)


def curved_state(kind, pid):
    base = make_base(kind, 48)
    w = WARPS[pid]
    return GraphState.from_radius(
        base, w, 1.0 + 0.1 * np.cos(base.theta) + 0.05 * np.sin(2 * base.theta))


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
    "circle_quarter_safety": (circle_state, FlowConfig(
        t_end=0.3, safety=0.25, dt_max=5e-3)),
    "domain_exit": (domain_exit_state, FlowConfig(
        t_end=3.0, dt_max=1e-2, safety=0.5)),
    "torus_tabulated": (torus_tabulated_state, FlowConfig(
        t_end=0.05, integrator="rk4", safety=0.5, dt_max=1e-3,
        record_every=0.1, snapshot_every=0.5)),
    "saturating_axisphere": (saturating_state, FlowConfig(
        t_end=0.3, integrator="rk4", safety=0.5, dt_max=1e-3,
        record_every=0.1, snapshot_every=0.1)),
    "midrun_loss_of_mean_convexity": (unstable_state, FlowConfig(
        t_end=0.2, safety=3.0, dt_max=1.0, record_every=0.01,
        snapshot_every=0.01)),
    "torus_fine_records": (torus_tabulated_state, FlowConfig(
        t_end=0.05, safety=0.5, dt_max=1e-3, record_every=0.02,
        snapshot_every=0.05)),
}
CASES.update({
    f"{pid}_{kind}": (functools.partial(curved_state, kind, pid), FlowConfig(
        t_end=0.2, safety=0.5, dt_max=1e-2, record_every=0.05,
        snapshot_every=0.1))
    for kind in ("circle", "axisphere") for pid in ("hyperbolic", "schwarzschild3")})


def trace_arrays(trace):
    """Every array a trace stores: times, columns, each snapshot's phi and
    geometry fields."""
    arrays = [trace.times, *trace.columns.values()]
    for _, st, snap in trace.snapshots:
        arrays.append(st.phi)
        arrays += [v for v in vars(snap).values() if isinstance(v, np.ndarray)]
    return arrays


def trace_digest(trace):
    h = hashlib.sha256()
    for a in trace_arrays(trace):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest() + repr(trace.terminal) + repr(trace.stats)


class TestTraceIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fast_path_changes_no_bit(self, case, monkeypatch):
        make_state, cfg = CASES[case]
        lean = run(make_state(), cfg)
        monkeypatch.setattr(flow_mod, "_evaluate", reference_evaluate)
        monkeypatch.setattr(flow_mod, "_cfl_dt", reference_cfl_dt)
        reference = run(make_state(), cfg)
        assert_same_trace(lean, reference)
        if case == "midrun_loss_of_mean_convexity":
            # the offending stage is stored as the last snapshot, and that
            # snapshot re-verifies the event
            ev = lean.terminal
            assert ev.kind == "loss_of_mean_convexity" and ev.t > 0.0
            # the ring of buffer sets has come round more than once
            assert lean.stats["steps"] >= 2
            t_s, _, snap = lean.snapshots[-1]
            assert t_s == ev.t == lean.times[-1]
            assert ev.value == float(np.min(snap.F)) <= 0.0

    def test_second_run_leaves_the_first_trace(self):
        # the buffer sets belong to a run, not to the base both runs share
        make_state, cfg = CASES["circle"]
        state = make_state()
        first = run(state, cfg)
        digest = trace_digest(first)
        second = run(GraphState(state.base, state.warp, state.phi + 0.01), cfg)
        assert trace_digest(first) == digest
        assert trace_digest(second) != digest
        for a in trace_arrays(first):
            for b in trace_arrays(second):
                assert not np.shares_memory(a, b)


class TestRunStats:
    def test_counts_add_up_and_repeat(self):
        _, cfg = CASES["criterion2"]
        a = run(criterion2_state(100), cfg)
        b = run(criterion2_state(100), cfg)
        s = a.stats
        assert s == b.stats
        # RK4: the initial evaluation plus four F evaluations per step
        assert s["f_evals"] == 1 + 4 * s["steps"]
        assert sum(s["dt_limiter"].values()) == s["steps"]
        # M=100 at safety 0.5 is CFL-bound; every record time is landed on
        assert s["dt_limiter"]["cfl"] > 0
        assert s["dt_limiter"]["landing"] >= 3
        assert 0.0 < s["min_dt"] <= s["max_dt"] <= cfg.dt_max

    def test_point_run_counts(self):
        w = WARPS["euclidean"]
        tr = run(GraphState(make_base("point", d=2), w, np.array([0.0])),
                 FlowConfig(t_end=0.3, dt_max=1e-3))
        s = tr.stats
        assert s["steps"] == 300 and s["f_evals"] == 1 + 4 * 300
        assert s["dt_limiter"]["cfl"] == 0
        assert s["dt_limiter"]["landing"] + s["dt_limiter"]["dt_max"] == 300

    def test_event_before_first_step(self):
        w = WARPS["hyperbolic"]
        tr = run(GraphState(make_base("point", d=2), w, np.array([0.5])),
                 FlowConfig(t_end=1.0))
        assert tr.stats["steps"] == 0
        assert tr.stats["min_dt"] is None and tr.stats["max_dt"] is None

    @pytest.mark.parametrize("integrator,f_evals", [
        # the initial state, the states of each completed step, then those of
        # the step that left the domain (RK4: its last stage)
        ("rk4", 1 + 4 * 138 + 3),
    ])
    def test_point_domain_exit_counts(self, integrator, f_evals):
        w = WARPS["saturating"]
        phi0 = radial_potential(w, np.array([5000.0]))
        tr = run(GraphState(make_base("point", d=2), w, phi0),
                 FlowConfig(t_end=3.0, integrator=integrator, dt_max=1e-2))
        assert tr.terminal.kind == "domain"
        assert math.isclose(tr.terminal.t, 1.39, abs_tol=1e-12)
        s = tr.stats
        assert s["steps"] == 138 and s["f_evals"] == f_evals
        assert sum(s["dt_limiter"].values()) == 138

    @pytest.mark.parametrize("integrator", ["rk4"])
    @pytest.mark.parametrize("kind,pid,r0,t_end", [
        ("point", "euclidean", 1.0, 0.3),
        ("point", "saturating", 5000.0, 3.0),      # leaves the domain
        ("axisphere", "euclidean", 1.0, 0.05),
        ("axisphere", "saturating", 5000.0, 3.0),  # leaves the domain
    ])
    def test_f_evals_are_the_evaluations_made(self, integrator, kind, pid,
                                              r0, t_end):
        # field bases evaluate each state by _evaluate; the point base by
        # its float speed, valid or not, and the one state that ends the
        # run again by _evaluate, for its event, which is no check
        calls = [0]

        def counted_evaluate(*args):
            calls[0] += 1
            return evaluate(*args)
        evaluate = flow_mod._evaluate

        def counted(spec, nm1):
            speed, lo, hi = scalar_speed(spec, nm1)

            def call(phi):
                calls[0] += 1
                return speed(phi)
            return call, lo, hi
        base = make_base("point", d=2) if kind == "point" else make_base(kind, 8)
        r = r0 * (1.0 + 0.01 * np.cos(base.theta)) if kind != "point" \
            else np.array([r0])
        st0 = GraphState.from_radius(base, WARPS[pid], r)
        name, counting = (("_scalar_speed", counted) if kind == "point"
                          else ("_evaluate", counted_evaluate))
        with mock.patch.object(flow_mod, name, counting):
            tr = run(st0, FlowConfig(t_end=t_end, integrator=integrator,
                                     dt_max=1e-2, safety=0.5))
        assert tr.completed == (pid == "euclidean")
        assert tr.stats["f_evals"] == calls[0]
