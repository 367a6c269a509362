"""Inverse mean curvature flow of starshaped graphs in warped products.

The ambient space is N x_h (0, r_max) with metric dr^2 + h(r)^2 sigma; the
hypersurface is the graph r = r(x, t) over the base N, driven by normal
speed 1/H.  Submodules:

warp      presets for the warping factor h and the radial potential;
          closed forms but for the tabulated saturating preset
manifold  discretized base manifolds (point, circle, axisphere, torus2)
geometry  graph states and pointwise extrinsic geometry
flow      explicit time stepping with CFL control and event detection
verify    checks of the growth sandwich, curvature floor, asymptotic
          roundness and the evolution-identity residuals
cli       config-file driven runs, checks and parameter sweeps
"""

from .warp import (
    WarpSpec, WarpDomainError, ConditionReport, make_warp, eval_warp,
    radial_potential, r_of_phi, warp_at_phi, r_at_h, check_conditions,
    infimum_h0, PRESETS,
)
from .manifold import (
    BaseManifold, PointBase, CircleBase, AxisphereBase, Torus2Base,
    make_base, covariant_derivatives,
)
from .geometry import (
    GraphState, GeometrySnapshot, snapshot, embedding_oracle_H,
    OracleUnsupportedError,
)
from .flow import (
    FlowConfig, FlowEvent, FlowTrace, run,
)
from .verify import (
    CheckReport, check_growth_and_support, check_H_floor, check_asymptotics,
    evolution_residuals, check_A_bounded, curvature_floor, fit_decay_rate,
)

__version__ = "0.1.0"
