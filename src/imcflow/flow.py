"""Explicit time stepping for the graph flow d phi / dt = 1/F.

F = H h Theta is the speed weight of the potential formulation; it stays
positive exactly while the hypersurface is mean-convex, so F <= 0 anywhere
terminates the run as an event rather than an error.  Step sizes follow a
parabolic CFL bound built from the principal symbol Theta^2 st / F^2 of the
quasilinear operator, one term per direction of the grid; on the
degenerate point base the equation is an ODE and dt_max applies directly.

Diagnostics are recorded on a fixed cadence and full field snapshots on a
(usually coarser) second cadence; steps are clipped to land exactly on both
grids, which keeps runs bit-reproducible for a given configuration.

One driver, run, owns the cadence, the landing, the dt limiter, the
records and the events of every base, and _step is the one RK4 step.
A stepper only evaluates states and bounds dt (cfl): check(phi) returns
the rate k = 1/F of a valid state, else None, and event(phi, t) the
FlowEvent of a state check rejected, at the stage time only _step knows.
_step stores the rate of the state it lands on in the stepper's k, the
next step's first rate.  No check counts itself: run counts the initial
state and the completed steps' checks, _step those of a step that fails
(_RunStats).
_FieldStepper sends every array state through _evaluate, the one code
that decides whether a state is valid and which fault (kind, node,
value) it has, which event reads.  It resolves the base's speed kernel,
the warp's h' and its potential domain once per run (_Dispatch), and the
stencil and the speed kernel write each stage's fields into the next set
of a ring of geometry.StageBuffers allocated for the run; records copy
phi and snapshots evaluate into new arrays.  _PointStepper's check is
the warp's float speed, which tests the interval where a point state is
valid itself (warp.py states the domain rule and the F = d h' edge), and
event sends the state it rejects through _evaluate: criterion 1's 80k
speed calls must fit its 1 s gate, and one array evaluation on the point
base costs 20-100 us.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as _geom
from .warp import (_max, _min, field_hp, phi_domain_violation,
                   scalar_speed as _scalar_speed)
from .geometry import _ONE, GraphState

__all__ = [
    "FlowConfig", "FlowEvent", "FlowTrace", "run", "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("dt", "min_H", "max_H", "min_omega", "max_omega",
                 "max_grad_phi", "max_hess_phi", "max_A", "osc_rescaled_h")


@dataclass
class FlowConfig:
    t_end: float
    integrator: str = "rk4"          # "rk4" only
    safety: float = 0.25
    dt_max: float = 1e-3
    snapshot_every: float = 1.0
    record_every: float = 0.1
    theta_min: float = 1e-3

    def __post_init__(self):
        if self.integrator != "rk4":
            raise ValueError(f"unknown integrator {self.integrator!r}")
        for name in ("t_end", "safety", "dt_max", "snapshot_every", "record_every"):
            if not getattr(self, name) > 0.0:      # also true on NaN
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if not 0.0 <= self.theta_min < 1.0:
            raise ValueError("theta_min must lie in [0, 1)")


@dataclass
class FlowEvent:
    kind: str        # loss_of_mean_convexity | angle_degeneracy | numeric | domain
    t: float
    node: int
    value: float

    def as_dict(self):
        return {"kind": self.kind, "t": self.t, "node": self.node, "value": self.value}


@dataclass
class FlowTrace:
    base: object
    warp: object
    config: FlowConfig
    times: np.ndarray = None
    columns: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)   # (t, GraphState, GeometrySnapshot)
    terminal: object = "completed"                  # "completed" | FlowEvent
    stats: dict = field(default_factory=dict)       # _RunStats.as_dict()

    @property
    def n(self):
        return self.base.d + 1

    @property
    def completed(self):
        return self.terminal == "completed"

    @property
    def t_final(self):
        return float(self.times[-1]) if len(self.times) else 0.0


class _RunStats:
    """Counts of one run; machine-independent, so reruns give equal dicts.

    f_evals counts the states evaluated, one per check call of the
    stepper: the initial state, each RK4 stage and each step result, the
    state that ended the run included.  On field bases each is an
    _evaluate call, on the point base a call of the float speed, valid
    state or not; the event of the state that ended the run adds none.  No
    check counts itself: run adds the initial state, step the _CHECKS
    evaluations of each completed step (one call per run of equal steps),
    and _step the k checks of a step whose k-th check failed.  The dt
    limiter is "landing" when a step was clipped onto a record, snapshot
    or end time, else "cfl" when the parabolic bound was below dt_max,
    else "dt_max".
    """

    def __init__(self):
        self.f_evals = 0
        self.steps = 0
        self.limiter = {"cfl": 0, "landing": 0, "dt_max": 0}
        self.min_dt = math.inf
        self.max_dt = -math.inf

    def step(self, dt, limiter, n=1):
        """Record n completed steps of size dt, all set by one limiter."""
        if n == 0:
            return
        self.steps += n
        self.f_evals += _CHECKS * n
        self.limiter[limiter] += n
        if dt < self.min_dt:
            self.min_dt = dt
        if dt > self.max_dt:
            self.max_dt = dt

    def as_dict(self):
        taken = self.steps > 0
        return {"steps": self.steps, "f_evals": self.f_evals,
                "min_dt": self.min_dt if taken else None,
                "max_dt": self.max_dt if taken else None,
                "dt_limiter": dict(self.limiter)}


class _Dispatch:
    """A base and a warp with what _evaluate looks up resolved once:
    geometry.speed_kernel of the base, and warp.field_hp of the warp (h'
    and the open interval (lo, hi) of valid potentials)."""

    __slots__ = ("base", "wspec", "speed", "hp", "lo", "hi")

    def __init__(self, base, wspec):
        self.base, self.wspec = base, wspec
        self.speed = _geom.speed_kernel(base)
        self.hp, self.lo, self.hi = field_hp(wspec)


def _evaluate(dispatch, phi, theta_min, out=None):
    """((F, 1/F, Theta^2, diffs), None) of a valid state, else (None,
    (kind, node, value)), the fault that makes its FlowEvent at a time.

    phi is a float array on dispatch's base.  It lies in the potential
    domain when lo < min phi and max phi < hi; h' then comes from the
    warp, F, Theta^2 and diffs (the base's differences of phi) from the
    speed kernel.  out is a geometry.StageBuffers set, which the fields of
    a valid state are arrays of, or None for new arrays; the bits agree.
    A state is valid when F > 0 and 1/F > 0 everywhere (F positive and
    finite) and sqrt(min Theta^2) >= theta_min, which is min Theta >=
    theta_min because sqrt is correctly rounded and monotone; each extreme
    is read at its argmin or argmax (warp._min): the first NaN, which fails
    every comparison, or of a 0.0/-0.0 tie the first, which changes no
    test.  Otherwise the fault is, in this order: non-finite phi, phi
    outside the image of Phi, non-finite F, F <= 0 at its smallest node,
    Theta below theta_min at its smallest node.
    """
    if not (_min(phi) > dispatch.lo and _max(phi) < dispatch.hi):
        # the domain test fails on non-finite phi too; those come first
        bad = ~np.isfinite(phi)
        if bad.any():
            node = int(bad.argmax())
            return None, ("numeric", node, float(phi.flat[node]))
        node = phi_domain_violation(dispatch.wspec, phi)
        return None, ("domain", node, float(phi.flat[node]))
    F, theta2, _, diffs = dispatch.speed(phi, dispatch.hp(phi), out)
    k = np.divide(_ONE, F, None if out is None else out.k)
    if (_min(F) > 0.0 and _min(k) > 0.0
            and math.sqrt(_min(theta2)) >= theta_min):
        return (F, k, theta2, diffs), None
    bad = ~np.isfinite(F)
    if bad.any():
        node = int(bad.argmax())
        return None, ("numeric", node, float(F.flat[node]))
    fmin = float(F.min())
    if fmin <= 0.0:
        return None, ("loss_of_mean_convexity", int(F.argmin()), fmin)
    # F passed, so the angle test failed
    theta = np.sqrt(theta2)
    return None, ("angle_degeneracy", int(theta.argmin()), float(theta.min()))


def _cfl_dt(base, F, theta2, diffs, safety):
    """Parabolic CFL bound of a field base, inf when it does not bind (D <= 0).

    safety dx^2 / (2 g max D) over the g = len(base.shape) directions of
    the grid.  The axisphere's grid is theta alone: its azimuth enters
    through cot(theta) phi_theta, and cot(theta_j) <= 2/dtheta on the
    cell-centred grid keeps that within one direction's bound.
    """
    F2 = F ** 2
    if base.kind == "circle":
        # one direction only: the lone eigenvalue of st is 1 - Theta^2 phi_theta^2
        st = 1.0 - theta2 * diffs[0] ** 2
        D = theta2 * st / F2
    else:
        # st = I - Theta^2 Dphi Dphi^T keeps a unit eigenvalue transverse to Dphi
        D = theta2 / F2
    dmax = _max(D)
    if dmax <= 0.0:
        return math.inf
    return safety * base.dx_min ** 2 / (2.0 * len(base.shape) * dmax)


class _FieldStepper:
    """The arrays of a field base, each state through _evaluate.

    Each check writes the next StageBuffers set of a ring allocated once
    per run, and the run's dispatch is resolved once (_Dispatch).  A set
    holds a state's fields until the ring comes round to it again, so the
    ring has as many sets as _step keeps alive at a check: the rates
    k1..k4, while the last stage is checked; the state the step lands on
    is formed from them before its check takes k1's set, and its fields
    are what cfl reads and its rate is the next step's k1.  Nothing else
    keeps a set's arrays: the run stores copies of phi and snapshot
    evaluates its own.
    """

    def __init__(self, base, wspec, config, stats):
        self.base, self.config, self.stats = base, config, stats
        self.k = self.fields = self.fault = None
        self._dispatch = _Dispatch(base, wspec)
        self._theta_min = config.theta_min
        self._sets = itertools.cycle([_geom.stage_buffers(base)
                                      for _ in range(4)])

    def start(self, phi):
        """(state, event|None) of the initial potential array."""
        self.k = self.check(phi)
        return phi, None if self.k is not None else self.event(phi, 0.0)

    def check(self, phi):
        """The rate k = 1/F of a valid state, else None; keeps its fault."""
        self.fields, self.fault = _evaluate(self._dispatch, phi,
                                            self._theta_min, next(self._sets))
        return None if self.fields is None else self.fields[1]

    def event(self, phi, t):
        """The FlowEvent at t of the state the last check failed."""
        kind, node, value = self.fault
        return FlowEvent(kind, t, node, value)

    def cfl(self):
        F, _, theta2, diffs = self.fields
        return _cfl_dt(self.base, F, theta2, diffs, self.config.safety)


class _PointStepper:
    """A plain float.  check is the warp's float speed, one call a stage;
    event sends the state it rejects through _evaluate, for the field
    path's payload."""

    def __init__(self, base, wspec, config, stats):
        self.stats, self.k, self.config = stats, None, config
        self.check = _scalar_speed(wspec, base.d)[0]
        self._dispatch = _Dispatch(base, wspec)

    def start(self, phi):
        x = float(phi[0])
        self.k = self.check(x)
        return x, None if self.k is not None else self.event(x, 0.0)

    def event(self, phi, t):
        kind, node, value = _evaluate(self._dispatch, np.array([phi]),
                                      self.config.theta_min)[1]
        return FlowEvent(kind, t, node, value)

    def cfl(self):
        return math.inf


# the checks of one RK4 step: three stages and the state it lands on
_CHECKS = 4


def _step(stepper, phi, t, dt, t_new):
    """One RK4 step from a checked state, landing at t_new: (new state,
    None), or (offending state, its event at its check's time: t + dt/2,
    t + dt/2, t + dt or t_new).  The stages are unrolled, as a loop slows
    the point runs.  The new state is formed before it is checked, so its
    check may reuse the first rate's arrays (_FieldStepper's ring of buffer
    sets counts on this).  A failed k-th check ends the run and adds k to
    its f_evals (_RunStats)."""
    check = stepper.check
    k1 = stepper.k
    h = 0.5 * dt
    stage = phi + h * k1
    k2 = check(stage)
    if k2 is None:
        stepper.stats.f_evals += 1
        return stage, stepper.event(stage, t + h)
    stage = phi + h * k2
    k3 = check(stage)
    if k3 is None:
        stepper.stats.f_evals += 2
        return stage, stepper.event(stage, t + h)
    stage = phi + dt * k3
    k4 = check(stage)
    if k4 is None:
        stepper.stats.f_evals += 3
        return stage, stepper.event(stage, t + dt)
    new = phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    stepper.k = k = check(new)
    if k is None:
        stepper.stats.f_evals += _CHECKS
        return new, stepper.event(new, t_new)
    return new, None


def _stepper(base, wspec, config):
    cls = _PointStepper if base.dc == 0 else _FieldStepper
    return cls(base, wspec, config, _RunStats())


def _diag_row(snap, dt_used):
    return {
        "dt": dt_used,
        "min_H": _min(snap.H),
        "max_H": _max(snap.H),
        "min_omega": _min(snap.omega),
        "max_omega": _max(snap.omega),
        "max_grad_phi": snap.grad_norm_max,
        "max_hess_phi": snap.hess_abs_max,
        "max_A": snap.A_max,
        "osc_rescaled_h": snap.osc_rescaled_h,
    }


def run(initial, config):
    """Integrate a graph state to config.t_end (or a terminating event).

    Returns a FlowTrace whose diagnostics rows sit exactly on the record
    cadence plus t = 0 and the final time; snapshots follow their own
    cadence.  A violated validity condition terminates the trace with the
    corresponding event; the final stored snapshot is the offending state
    when it is still a well-defined graph (F <= 0, angle below theta_min)
    and the last valid state otherwise (domain exit, non-finite values),
    so every event can be re-verified from what the trace preserves.
    The trace's stats hold the run's counts (_RunStats).
    """
    base, wspec = initial.base, initial.warp
    stepper = _stepper(base, wspec, config)
    stats = stepper.stats
    times, rows, snaps = [], [], []

    def record(tt, phi_now, dt_used, want_row=True, want_snap=True):
        if not (want_row or want_snap):
            return
        st = GraphState(base, wspec, np.array(phi_now, dtype=float, ndmin=1), tt)
        snap = _geom.snapshot(st)
        if want_row:
            times.append(tt)
            rows.append(_diag_row(snap, dt_used))
        if want_snap:
            snaps.append((tt, st, snap))

    def finish(terminal):
        cols = {k: np.array([row[k] for row in rows]) for k in TRACE_COLUMNS}
        return FlowTrace(base=base, warp=wspec, config=config,
                         times=np.array(times), columns=cols,
                         snapshots=snaps, terminal=terminal,
                         stats=stats.as_dict())

    # an overflow to inf or NaN ends the run with the event the stepper's
    # checks name, so numpy's warning (an error under -W error) adds
    # nothing; one errstate per run, as entering one costs about a tenth of
    # a stage
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi, event = stepper.start(np.array(initial.phi, dtype=float))
        stats.f_evals += 1
        bad, t, dt = phi, 0.0, 0.0
        if event is None:
            record(t, phi, dt)
        t_end, dt_max = config.t_end, config.dt_max
        rec_every, snap_every = config.record_every, config.snapshot_every
        tol = 1e-12 * max(1.0, t_end)
        t_stop = t_end - tol
        cfl_of = stepper.cfl
        k_rec, k_snap = 1, 1
        # completed steps go to stats in runs of equal (dt, limiter): a stats
        # call per step would cost the point runs several percent
        run_dt, run_lim, run_n = 0.0, "dt_max", 0

        # one pass per cadence target, which only moves when a step lands on
        # it; the conditional expressions are min's, which keeps its first
        # argument on a tie (and on NaN)
        while event is None and t < t_stop:
            next_rec = k_rec * rec_every
            next_snap = k_snap * snap_every
            target = min(next_rec, next_snap, t_end)
            while t < t_stop:
                cfl = cfl_of()
                capped = cfl < dt_max
                dt = cfl if capped else dt_max
                left = target - t
                landed = dt >= left - tol
                if landed:
                    dt = left
                limiter = ("landing" if landed
                           else "cfl" if capped else "dt_max")

                t_new = target if landed else t + dt
                new, event = _step(stepper, phi, t, dt, t_new)
                if event is not None:
                    bad = new       # phi, t stay the last valid state
                    break
                phi, t = new, t_new

                if dt == run_dt and limiter == run_lim:
                    run_n += 1
                else:
                    stats.step(run_dt, run_lim, run_n)
                    run_dt, run_lim, run_n = dt, limiter, 1
                if landed:
                    final = t >= t_stop
                    at_rec = abs(t - next_rec) <= tol or final
                    at_snap = abs(t - next_snap) <= tol or final
                    record(t, phi, dt, at_rec, at_snap)
                    while k_rec * rec_every <= t + tol:
                        k_rec += 1
                    while k_snap * snap_every <= t + tol:
                        k_snap += 1
                    break
        stats.step(run_dt, run_lim, run_n)

        if event is None:
            # a step that does not land ends below t_stop, so the last step
            # landed on t_end and stored its row and snapshot (or t_end <= tol)
            return finish("completed")
        # graph-valid violations keep the offending state; otherwise fall back
        # to the last valid one (phi at t; there is none before the first
        # record) unless it is already stored
        if event.kind in ("loss_of_mean_convexity", "angle_degeneracy"):
            record(event.t, bad, dt)
        elif times:
            record(t, phi, dt, times[-1] != t, snaps[-1][0] != t)
        return finish(event)
