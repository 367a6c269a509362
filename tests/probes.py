"""Probes of the library that only the tests use.

stable_dt      the step bound the time stepper takes from a state
commuting_residual
               the worst violation of the third-derivative commutation
               identity on a base's stencils
induced_metric the graph's metric and its inverse, on the base metric
               sigma_diag
"""

import numpy as np

from imcflow import flow as flow_mod
from imcflow.geometry import _light_fields


class UnsupportedBaseError(ValueError):
    """Operation not defined for this base kind."""


def stable_dt(state, config):
    """Step bound for the current state: dt_max or the parabolic CFL bound.

    Raises ValueError when the state has an event (no valid step starts
    there).
    """
    stepper = flow_mod._stepper(state.base, state.warp, config)
    _, event = stepper.start(np.array(state.phi, dtype=float))
    if event is not None:
        raise ValueError(f"no step from this state: {event}")
    return min(config.dt_max, stepper.cfl())


def _third_covariant_axisphere(base, f):
    """T3[i, j, k] = covariant derivative of Hess f along k on the unit sphere.

    For axisymmetric f the Hessian is diag(T00, T11) and the nonzero
    Christoffel symbols are Gamma^theta_{ss} = -sin cos and
    Gamma^s_{theta s} = cot (s the azimuth).  Expanding
    T3[i,j,k] = d_k T_ij - Gamma^l_{ki} T_lj - Gamma^l_{kj} T_il leaves
    four nonzero component families.
    """
    ft, T00 = base.differences(f)
    T11 = base.sincos * ft
    cot = base.cot
    T3 = np.zeros((2, 2, 2) + base.shape)
    T3[0, 0, 0] = base.differences(T00)[0]
    T3[1, 1, 0] = base.differences(T11)[0] - 2.0 * cot * T11
    T3[0, 1, 1] = T3[1, 0, 1] = base.sincos * T00 - cot * T11
    return T3, ft


def commuting_residual(base, f):
    """Worst violation of the third-derivative commutation identity.

    Swapping the last two covariant derivative slots of a scalar costs a
    curvature contraction R_{kjip} phi^p; the returned number is the max
    over nodes and index triples of | phi_ijk - phi_ikj - R_{kjip} phi^p |.
    Flat bases must return (near) zero, the axisphere converges at the
    stencil order.
    """
    if base.kind == "point":
        raise UnsupportedBaseError("commuting residual needs at least one tangent direction")
    f = base.check_field(f)
    if base.kind == "circle":
        # one direction: both orderings are the same nested stencil
        return 0.0
    if base.kind == "torus2":
        # nested first differences along flat axes commute up to rounding
        worst = 0.0
        for di in base.differences(f)[:2]:
            d = base.differences(di)
            # d_1 d_0 di is d's mixed entry; d_0 d_1 di needs one more pass
            a, b = d[4], base.differences(d[1])[0]
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst
    if base.kind == "axisphere":
        T3, ft = _third_covariant_axisphere(base, f)
        s = base.sin
        sig = np.zeros((2, 2) + base.shape)
        sig[0, 0] = 1.0
        sig[1, 1] = s ** 2
        worst = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if j == k:
                        continue
                    # R_{kjip} phi^p with phi^p only along theta (p = 0)
                    R = sig[k, i] * sig[j, 0] - sig[k, 0] * sig[j, i]
                    res = T3[i, j, k] - T3[i, k, j] - R * ft
                    worst = max(worst, float(np.max(np.abs(res))))
        return worst
    raise UnsupportedBaseError(f"unknown base kind {base.kind!r}")


def sigma_diag(base):
    """The base metric sigma as a (dc, *grid) diagonal: flat, but for the
    axisphere's azimuthal entry sin^2 theta."""
    s = np.ones((base.dc,) + base.shape)
    if base.kind == "axisphere":
        s[1] = base.sin ** 2
    return s


def induced_metric(state):
    """Induced metric and inverse as (dc, dc, *grid) component arrays."""
    base = state.base
    lf = _light_fields(state)
    dc = base.dc
    h = lf["h"]
    grad = lf["grad"]
    sinv = lf["sinv"]
    sdiag = sigma_diag(base)
    theta2 = lf["theta"] ** 2
    up = sinv * grad
    g = h ** 2 * np.einsum("i...,j...->ij...", grad, grad)
    ginv = -(theta2 / h ** 2) * np.einsum("i...,j...->ij...", up, up)
    for i in range(dc):
        g[i, i] += h ** 2 * sdiag[i]
        ginv[i, i] += sinv[i] / h ** 2
    return g, ginv
