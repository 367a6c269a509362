"""Fixed reference work for normalizing times on a drifting host.

The benchmark host is a shared virtual machine whose speed drifts by up to
2x over tens of seconds, with no steal time reported: a busy neighbour
slows every instruction.  ``kernel`` has the same make-up as imcflow's hot
paths (short numpy calls on 200-element arrays, einsum, padding,
Python-level float and dict work, bisect and Horner evaluation), so it
slows down by about the same factor.  It is timed right before and right
after every iteration, and the iteration's time is reported as

    seconds * REFERENCE_S / mean kernel seconds

that is, in seconds of a host on which one kernel pass takes REFERENCE_S.
Set-up probes are scaled the same way by a reference interpreter start,
SETUP_REFERENCE_CODE, against SETUP_REFERENCE_S.  Both references are
benchmark code and library imports, never program code, so a change to
imcflow cannot move them.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# The kernel's typical time on the quiet two-CPU benchmark host; it fixes
# the unit only, every comparison is between runs of the same kernel.
REFERENCE_S = 0.01

# Set-up is mostly interpreter start and imports, which slow down unlike
# the kernel, so set-up probes are normalized by a fresh interpreter that
# imports what imcflow imports from numpy and scipy, and nothing of imcflow.
SETUP_REFERENCE_CODE = "import numpy, scipy.integrate, scipy.interpolate, scipy.optimize"
SETUP_REFERENCE_S = 0.8

_M = 200
_THETA = (np.arange(_M) + 0.5) * np.pi / _M
_SIN, _COS = np.sin(_THETA), np.cos(_THETA)
_KNOTS = np.geomspace(1e-3, 1e3, 512).tolist()
_COEF = [[1.0 / (1 + i), 0.5, -0.25, 0.125] for i in range(len(_KNOTS))]


def _speed(u):
    pad = np.concatenate((u[:1], u, u[-1:]))
    g = (pad[2:] - pad[:-2]) / 0.0314
    grad = np.zeros((2, _M))
    grad[0] = g
    hess = np.zeros((2, 2, _M))
    hess[0, 0] = (pad[2:] + pad[:-2] - 2.0 * u) / 0.001
    hess[1, 1] = _SIN * _COS * g
    sinv = np.ones((2, _M))
    sinv[1] = _SIN ** -2.0
    up = sinv * grad
    theta2 = 1.0 / (1.0 + np.sum(up * grad, axis=0))
    s = np.einsum("i...,ii...->...", sinv, hess)
    s -= theta2 * np.einsum("i...,j...,ij...->...", up, up, hess)
    return {"F": theta2 * (2.0 * np.exp(u) - s) + 3.0, "theta": np.sqrt(theta2)}


def _scalar(x):
    i = min(max(bisect.bisect_left(_KNOTS, x) - 1, 0), len(_KNOTS) - 2)
    t = x - _KNOTS[i]
    c = _COEF[i]
    return ((c[0] * t + c[1]) * t + c[2]) * t + c[3] + math.exp(-x)


def kernel():
    """One pass of the reference work; returns a value so none is skipped."""
    u = 0.3 * _COS
    for _ in range(60):
        k1 = 1.0 / _speed(u)["F"]
        k2 = 1.0 / _speed(u + 1e-5 * k1)["F"]
        u = u + 0.5e-5 * (k1 + k2)
        if float(k1.min()) <= 0.0:
            break
    x = 0.5
    for _ in range(2000):
        x = 0.5 + abs(_scalar(x)) % 100.0
    return float(u.sum()) + x


def reference_time():
    """Wall time of one kernel pass, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
