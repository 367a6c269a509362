"""Rescaled roundness in flat space versus the hyperbolic obstruction.

The oscillation of the rescaled radius e^{-t/2} h measures how far the
surface is from a round slice.  In euclidean space it decays to zero; in
hyperbolic space the radius grows like r ~ t + c(theta) with c frozen, so
the oscillation of e^{-t/2} sinh(r) converges to a positive constant and
the rescaled surface never homogenizes.

The euclidean decay has a catch worth seeing in numbers: the l=1 component
of r = 1 + 0.3 cos(theta) is a center offset.  The flow expands the sphere
about its own center and never recenters it, so the rescaled oscillation
decays like 0.6 e^{-t/2} and is still about 1e-2 at t = 8.  A fixed
tolerance cannot judge that, since the oscillation scales with the unit of
length.  check_asymptotics takes its tolerance from the run instead,
tol_osc = osc(4) e^{-4 beta}, the decay its one-sided rate
beta = rho0/C2^2 gives over [4, 8].  The euclidean run passes.  The
hyperbolic run, two orders of magnitude above, fails: max H h grows like
e^{t/2}, faster than beta, so C2 is no time-uniform constant.  The demo
exits 1 unless both verdicts come out so.

The paper's sufficient condition for Euclidean asymptotics, h' and
h^(1+alpha) h'' bounded, is the flag c5_bounded of check_asymptotics: it
holds in euclidean space and fails in hyperbolic space, where h' = cosh r.
"""

import sys

import numpy as np

from imcflow.flow import FlowConfig, run
from imcflow.geometry import GraphState
from imcflow.manifold import make_base
from imcflow.verify import check_asymptotics, fit_decay_rate
from imcflow.warp import make_warp, radial_potential

M = 100
base = make_base("axisphere", M)
cfg = FlowConfig(t_end=8.0, integrator="rk4", safety=0.5, dt_max=1e-3,
                 record_every=0.25, snapshot_every=1.0)

runs = {}
for name, r0 in (("euclidean", 1.0), ("hyperbolic", 2.0)):
    w = make_warp(name)
    r = r0 + 0.3 * np.cos(base.theta)
    runs[name] = run(GraphState(base, w, radial_potential(w, r), 0.0), cfg)

print(f"{'t':>4} {'osc euclidean':>14} {'0.6 e^(-t/2)':>14} "
      f"{'osc hyperbolic':>15}")
te = runs["euclidean"].times
osc_e = runs["euclidean"].columns["osc_rescaled_h"]
osc_h = runs["hyperbolic"].columns["osc_rescaled_h"]
for i in range(0, len(te), 4):
    print(f"{te[i]:4.1f} {osc_e[i]:14.6f} {0.6 * np.exp(-te[i] / 2.0):14.6f} "
          f"{osc_h[i]:15.6f}")

half = te >= 4.0
rate_e = fit_decay_rate(te[half], osc_e[half])
rate_h = fit_decay_rate(te[half], osc_h[half])
print(f"\nfitted decay rate over t in [4, 8]: euclidean {rate_e:.3f} "
      f"(center-offset prediction 0.5), hyperbolic {rate_h:.4f}")
print(f"hyperbolic oscillation converges near {osc_h[-1]:.3f}: "
      "the rescaled graph keeps its shape")
reports = {name: check_asymptotics(trace, "expect_roundness")
           for name, trace in runs.items()}
print("c5_bounded (h' and h^2 h'' bounded, where Euclidean asymptotics "
      "extend) and check_asymptotics' expect_roundness verdict:")
for name, rep in reports.items():
    d = rep.details
    print(f"  {name}: c5_bounded {rep.hypothesis_status['c5_bounded']}, "
          f"roundness {rep.passed}: osc(8) {d['terminal_osc']:.4g} vs tol_osc "
          f"{d['tol_osc']:.4g}, C2 growth gamma {d['gamma_Hh']:.3g} vs beta "
          f"{d['beta_predicted']:.3g}")
if not (reports["euclidean"].passed is True
        and reports["hyperbolic"].passed is False):
    sys.exit(1)
