"""Exponential sandwich for a genuinely non-round initial surface.

Start from r = 1 + 0.3 cos(theta) on the axisphere in euclidean space.  The
check takes its bracket R1 <= omega <= R2 from the support function at t = 0
(about 0.70002 and 1.29995, just inside the radii 0.7 and 1.3), and the
sandwich keeps the evolving surface between the slices that start at those
values: R1 e^{t/2} <= h <= R2 e^{t/2} for all time.  The table shows the
sandwich ratios tightening as the surface rounds off, while min H stays
positive.
"""

import numpy as np

from imcflow.flow import FlowConfig, run
from imcflow.geometry import GraphState
from imcflow.manifold import make_base
from imcflow.verify import check_growth_and_support
from imcflow.warp import make_warp, radial_potential

M = 100
base = make_base("axisphere", M)
w = make_warp("euclidean")
r0 = 1.0 + 0.3 * np.cos(base.theta)

trace = run(GraphState(base, w, radial_potential(w, r0), 0.0),
            FlowConfig(t_end=4.0, integrator="rk4", safety=0.5, dt_max=1e-3,
                       record_every=0.1, snapshot_every=0.5))

rep = check_growth_and_support(trace)
R1, R2 = rep.details["R1"], rep.details["R2"]
print(f"bracket from omega at t=0: R1={R1:.5f}  R2={R2:.5f}\n")
print(f"{'t':>4} {'min h/(R1 e^(t/2))':>20} {'max h/(R2 e^(t/2))':>20} "
      f"{'min H':>10}")
rec = {t: i for i, t in enumerate(trace.times)}
for t, _, snap in trace.snapshots:
    ex = np.exp(t / 2.0)
    lo = float(np.min(snap.h)) / (R1 * ex)
    hi = float(np.max(snap.h)) / (R2 * ex)
    minH = trace.columns["min_H"][rec[round(t, 10)]] if round(t, 10) in rec \
        else float("nan")
    print(f"{t:4.1f} {lo:20.6f} {hi:20.6f} {minH:10.4f}")

print(f"\ncheck_growth_and_support: pass={rep.passed} "
      f"worst relative slack={rep.margin:.3e}")
print(f"worst bound: {rep.details['worst']}")
