"""Explicit time stepping for the graph flow d phi / dt = 1/F.

F = H h Theta is the speed weight of the potential formulation; it stays
positive exactly while the hypersurface is mean-convex, so F <= 0 anywhere
terminates the run as an event rather than an error.  Step sizes follow a
parabolic CFL bound built from the principal symbol Theta^2 st / F^2 of the
quasilinear operator; on the degenerate point base the equation is an ODE
and dt_max applies directly.

Diagnostics are recorded on a fixed cadence and full field snapshots on a
(usually coarser) second cadence; steps are clipped to land exactly on both
grids, which keeps runs bit-reproducible for a given configuration.

On the circle and the axisphere each stage state goes first through a fast
acceptance test: the fused kernel gives F and Theta^2, and a state whose
h' exists, whose F is positive and finite everywhere and whose smallest
Theta reaches theta_min is taken as it is.  Every other state goes to
_probe, the only code that classifies events.  The test accepts exactly
the states on which _probe would find no event, and the kernel's F is
_probe's F bit for bit, so the fast path changes no trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as _geom
from .warp import WarpDomainError, hp_at_phi, phi_domain_violation
from .geometry import GraphState

__all__ = [
    "FlowConfig", "FlowEvent", "FlowTrace", "MeanConvexityError",
    "rhs", "stable_dt", "run", "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("dt", "min_H", "max_H", "min_omega", "max_omega",
                 "max_grad_phi", "max_hess_phi", "max_A", "osc_rescaled_h")


class MeanConvexityError(RuntimeError):
    """Speed weight F <= 0 somewhere: 1/F is no longer defined."""

    def __init__(self, node, value):
        self.node = int(node)
        self.value = float(value)
        super().__init__(f"F = {value:.6g} <= 0 at node {node}")


@dataclass
class FlowConfig:
    t_end: float
    integrator: str = "rk4"          # "euler" | "rk4"
    safety: float = 0.25
    dt_max: float = 1e-3
    snapshot_every: float = 1.0
    record_every: float = 0.1
    theta_min: float = 1e-3

    def __post_init__(self):
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        for name in ("t_end", "safety", "dt_max", "snapshot_every", "record_every"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
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

    def snapshot_times(self):
        return np.array([t for t, _, _ in self.snapshots])


class _RunStats:
    """Counts of one run; machine-independent, so reruns give equal dicts.

    f_evals counts every evaluation of F (initial state, RK4 stages, step
    results); on field bases each is either a fast accept or a full
    _probe, on the point base it is a call of the scalar speed function
    (and full_probes counts the _probe calls for the initial state and
    event payloads).  The dt limiter is "landing" when a step was clipped
    onto a record, snapshot or end time, else "cfl" when the parabolic
    bound was below dt_max, else "dt_max".
    """

    def __init__(self):
        self.f_evals = 0
        self.fast_accepts = 0
        self.full_probes = 0
        self.steps = 0
        self.limiter = {"cfl": 0, "landing": 0, "dt_max": 0}
        self.min_dt = math.inf
        self.max_dt = -math.inf

    def step(self, dt, limiter, n=1):
        """Record n steps of size dt, all set by one limiter."""
        if n == 0:
            return
        self.steps += n
        self.limiter[limiter] += n
        if dt < self.min_dt:
            self.min_dt = dt
        if dt > self.max_dt:
            self.max_dt = dt

    def as_dict(self):
        taken = self.steps > 0
        return {"steps": self.steps, "f_evals": self.f_evals,
                "fast_accepts": self.fast_accepts,
                "full_probes": self.full_probes,
                "min_dt": self.min_dt if taken else None,
                "max_dt": self.max_dt if taken else None,
                "dt_limiter": dict(self.limiter)}


def _probe(base, wspec, phi, t, theta_min):
    """Light geometry fields plus event detection; (lf, event|None)."""
    finite = np.isfinite(phi)
    if not finite.all():
        node = int((~finite).argmax())
        return None, FlowEvent("numeric", t, node, float(phi.flat[node]))
    node = phi_domain_violation(wspec, phi)
    if node is not None:
        return None, FlowEvent("domain", t, node, float(phi.flat[node]))
    try:
        lf = _geom._light_fields(GraphState(base, wspec, phi, t))
    except WarpDomainError as exc:
        # the radius check failed after inversion; it names the node
        node = exc.node if exc.node is not None else 0
        return None, FlowEvent("domain", t, node, float(phi.flat[node]))
    F = lf["F"]
    finite = np.isfinite(F)
    if not finite.all():
        node = int((~finite).argmax())
        return None, FlowEvent("numeric", t, node, float(F.flat[node]))
    fmin = float(F.min())
    if fmin <= 0.0:
        return lf, FlowEvent("loss_of_mean_convexity", t, int(F.argmin()), fmin)
    theta = lf["theta"]
    tmin = float(theta.min())
    if tmin < theta_min:
        return lf, FlowEvent("angle_degeneracy", t, int(theta.argmin()), tmin)
    return lf, None


def rhs(state):
    """Speed of the potential, 1/F, as a field over the base."""
    lf = _geom._light_fields(state)
    F = lf["F"]
    fmin = float(np.min(F))
    if fmin <= 0.0 or not np.isfinite(fmin):
        raise MeanConvexityError(int(np.argmin(F)), fmin)
    return 1.0 / F


def _scalar_speed(wspec, nm1):
    """Pure-float 1/F for round slices: (speed_fn, phi_lo, phi_hi).

    On the point base the flow is the ODE d phi/dt = 1/((n-1) h'(r(phi)));
    the numpy probe costs dominate there, so each preset gets a closed-form
    or table-backed float evaluator.  speed_fn raises WarpDomainError
    outside (phi_lo, phi_hi).
    """
    pid = wspec.preset_id
    inf = math.inf
    if pid == "euclidean" or (pid == "power" and wspec.params["p"] == 1.0):
        c = 1.0 / nm1
        return (lambda phi: c), -inf, inf
    if pid == "hyperbolic":
        # h' = cosh r = (1 + e^{2 phi}) / (1 - e^{2 phi}) for phi = ln tanh(r/2)
        def speed(phi):
            if phi >= 0.0:
                raise WarpDomainError("hyperbolic potential must be negative")
            e2 = math.exp(2.0 * phi)
            return (1.0 - e2) / ((1.0 + e2) * nm1)
        return speed, -inf, 0.0
    if pid == "power":
        p = wspec.params["p"]
        q = 1.0 - p
        hi = 1.0 / (p - 1.0)

        # r^{1-p} = 1 + (1-p) phi exactly, so 1/F is affine in phi
        def speed(phi):
            b = 1.0 + q * phi
            if b <= 0.0:
                raise WarpDomainError("potential beyond the image of Phi")
            return b / (nm1 * p)
        return speed, -inf, hi
    lo, hi = wspec._phi_domain
    inv, fwd = wspec._r_of_phi_table, wspec._phi_table
    if pid == "schwarzschild3":
        ht = wspec._h_table
        m2 = 2.0 * wspec.params["m"]

        def speed(phi):
            if phi <= lo or phi >= hi:
                raise WarpDomainError("potential outside tabulated image")
            r = inv.scalar(phi)
            r -= (fwd.scalar(r) - phi) * ht.scalar(r)
            return 1.0 / (nm1 * math.sqrt(1.0 - m2 / ht.scalar(r)))
        return speed, lo, hi
    if pid == "saturating":
        a, b, k = (wspec.params[key] for key in ("a", "b", "k"))

        def h_closed(r):
            if k == 1.0:
                return 1.0 + a * r - b * math.log1p(r)
            return 1.0 + a * r + b / (k - 1.0) * ((1.0 + r) ** (1.0 - k) - 1.0)

        def speed(phi):
            if phi <= lo or phi >= hi:
                raise WarpDomainError("potential outside tabulated image")
            r = inv.scalar(phi)
            r -= (fwd.scalar(r) - phi) * h_closed(r)
            return 1.0 / (nm1 * (a - b * (1.0 + r) ** (-k)))
        return speed, lo, hi
    raise ValueError(f"unknown preset {pid!r}")


def _fast_accept(base, wspec, phi, theta_min):
    """(F, 1/F, Theta^2, phi_theta) of a state _probe passes, else None.

    Accepts when h' exists (the warp's own domain check, which also fails
    on non-finite phi), F > 0 and 1/F > 0 everywhere (F positive and
    finite) and sqrt(min Theta^2) >= theta_min, which is min Theta >=
    theta_min because sqrt is correctly rounded and monotone.  NaN fails
    every comparison.  Returns None for anything else, so the caller falls
    back to _probe.
    """
    try:
        hp = hp_at_phi(wspec, phi)
    except WarpDomainError:
        return None
    F, theta2, _, g, _ = _geom._speed_1d(base, phi, hp)
    k = 1.0 / F
    if (F.min() > 0.0 and k.min() > 0.0
            and math.sqrt(theta2.min()) >= theta_min):
        return F, k, theta2, g
    return None


def _cfl_dt(base, F, theta2, g, safety):
    """Parabolic CFL bound, inf when it does not bind (point base, D <= 0).

    Theta is formed as sqrt(Theta^2) and squared again, as the stored Theta
    field would be, so the bound does not depend on which path produced
    the fields.
    """
    if base.dc == 0:
        return math.inf
    theta2 = np.sqrt(theta2) ** 2
    F2 = F ** 2
    if base.kind == "circle":
        # one direction only: the lone eigenvalue of st is 1 - Theta^2 phi_theta^2
        st = 1.0 - theta2 * g ** 2
        D = theta2 * st / F2
    else:
        # st = I - Theta^2 Dphi Dphi^T keeps a unit eigenvalue transverse to Dphi
        D = theta2 / F2
    dmax = float(np.max(D))
    if dmax <= 0.0:
        return math.inf
    return safety * base.dx_min ** 2 / (2.0 * base.d * dmax)


def stable_dt(state, config):
    """Parabolic CFL step bound for the current state."""
    lf = _geom._light_fields(state)
    return min(config.dt_max, _cfl_dt(state.base, lf["F"], lf["theta2"],
                                      lf["grad"][0] if state.base.dc else None,
                                      config.safety))


def _diag_row(snap, dt_used):
    return {
        "dt": dt_used,
        "min_H": float(np.min(snap.H)),
        "max_H": float(np.max(snap.H)),
        "min_omega": float(np.min(snap.omega)),
        "max_omega": float(np.max(snap.omega)),
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
    if initial.base.dc == 0:
        return _run_point(initial, config)
    base, wspec = initial.base, initial.warp
    phi = np.array(initial.phi, dtype=float)
    t = 0.0
    times, rows, snaps = [], [], []
    k_rec, k_snap = 1, 1
    stats = _RunStats()
    fused = base.kind in _geom.FUSED_KINDS

    def evaluate(phi_s, t_s):
        """((F, 1/F, Theta^2, phi_theta), None) or (None, event)."""
        stats.f_evals += 1
        if fused:
            fields = _fast_accept(base, wspec, phi_s, config.theta_min)
            if fields is not None:
                stats.fast_accepts += 1
                return fields, None
        stats.full_probes += 1
        lf, ev = _probe(base, wspec, phi_s, t_s, config.theta_min)
        if ev is not None:
            return None, ev
        F = lf["F"]
        return (F, 1.0 / F, lf["theta2"], lf["grad"][0]), None

    def record(tt, phi_now, dt_used, want_row=True, want_snap=True):
        st = GraphState(base, wspec, phi_now.copy(), tt)
        snap = _geom.snapshot(st)
        if want_row:
            times.append(tt)
            rows.append(_diag_row(snap, dt_used))
        if want_snap:
            snaps.append((tt, st, snap))
        return snap

    def finish(terminal):
        cols = {k: np.array([row[k] for row in rows]) for k in TRACE_COLUMNS}
        return FlowTrace(base=base, warp=wspec, config=config,
                         times=np.array(times), columns=cols,
                         snapshots=snaps, terminal=terminal,
                         stats=stats.as_dict())

    def settle_event(ev, dt_used, bad_phi, ok_phi, ok_t):
        # graph-valid violations keep the offending state; otherwise fall
        # back to the last valid one (unless it is already stored)
        if ev.kind in ("loss_of_mean_convexity", "angle_degeneracy"):
            record(ev.t, bad_phi, dt_used)
        else:
            need_row = not times or times[-1] != ok_t
            need_snap = not snaps or snaps[-1][0] != ok_t
            if need_row or need_snap:
                record(ok_t, ok_phi, dt_used, want_row=need_row,
                       want_snap=need_snap)
        return finish(ev)

    fields, event = evaluate(phi, t)
    if event is not None and event.kind in ("domain", "numeric"):
        return finish(event)
    record(t, phi, 0.0)
    if event is not None:
        return finish(event)
    F, k, theta2, g = fields

    t_end = config.t_end
    tol = 1e-12 * max(1.0, t_end)
    euler = config.integrator == "euler"
    dt = 0.0

    while t < t_end - tol:
        next_rec = k_rec * config.record_every
        next_snap = k_snap * config.snapshot_every
        target = min(next_rec, next_snap, t_end)
        cfl = _cfl_dt(base, F, theta2, g, config.safety)
        dt = min(min(config.dt_max, cfl), target - t)
        landed = dt >= target - t - 1e-15 * max(1.0, target)
        if landed:
            dt = target - t
        limiter = ("landing" if landed
                   else "cfl" if cfl < config.dt_max else "dt_max")

        if euler:
            phi_new = phi + dt / F
        else:
            ks = [k]
            for frac in (0.5, 0.5, 1.0):
                phi_stage = phi + frac * dt * ks[-1]
                fields, ev = evaluate(phi_stage, t + frac * dt)
                if ev is not None:
                    return settle_event(ev, dt, phi_stage, phi, t)
                ks.append(fields[1])
            phi_new = phi + dt / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])

        t_prev, phi_prev = t, phi
        t = target if landed else t + dt
        phi = phi_new

        fields, event = evaluate(phi, t)
        if event is not None:
            return settle_event(event, dt, phi, phi_prev, t_prev)
        F, k, theta2, g = fields
        stats.step(dt, limiter)

        if landed:
            final = t >= t_end - tol
            at_rec = abs(t - next_rec) <= tol or final
            at_snap = abs(t - next_snap) <= tol or final
            if at_rec or at_snap:
                record(t, phi, dt, want_row=at_rec, want_snap=at_snap)
            while k_rec * config.record_every <= t + tol:
                k_rec += 1
            while k_snap * config.snapshot_every <= t + tol:
                k_snap += 1

    # accumulated steps can drift inside the exit band without landing on
    # t_end; force the terminal row and snapshot if they are missing
    need_row = abs(times[-1] - t_end) > tol
    need_snap = not snaps or abs(snaps[-1][0] - t_end) > tol
    if need_row or need_snap:
        record(t_end, phi, dt, want_row=need_row, want_snap=need_snap)
    return finish("completed")


def _run_point(initial, config):
    """Scalar fast path of run() for the degenerate single-node base.

    Same cadence, landing and event semantics, but the inner loop works on
    a plain float through _scalar_speed instead of the array probe.
    """
    base, wspec = initial.base, initial.warp
    times, rows, snaps = [], [], []
    stats = _RunStats()
    per_step = 1 if config.integrator == "euler" else 4   # speed calls
    # steps of exactly dt_max are only counted in the loop and recorded at
    # the end: a stats call per step would cost this loop several percent
    n_plain = 0

    def record(tt, phi_val, dt_used, want_row=True, want_snap=True):
        st = GraphState(base, wspec, np.array([phi_val]), tt)
        snap = _geom.snapshot(st)
        if want_row:
            times.append(tt)
            rows.append(_diag_row(snap, dt_used))
        if want_snap:
            snaps.append((tt, st, snap))

    def finish(terminal):
        cols = {k: np.array([row[k] for row in rows]) for k in TRACE_COLUMNS}
        stats.step(config.dt_max, "dt_max", n_plain)
        stats.f_evals += per_step * stats.steps
        return FlowTrace(base=base, warp=wspec, config=config,
                         times=np.array(times), columns=cols,
                         snapshots=snaps, terminal=terminal,
                         stats=stats.as_dict())

    phi_arr = np.array(initial.phi, dtype=float)
    phi = float(phi_arr[0])
    t = 0.0
    stats.f_evals += 1
    stats.full_probes += 1
    _, event = _probe(base, wspec, phi_arr, t, config.theta_min)
    if event is not None and event.kind in ("domain", "numeric"):
        return finish(event)
    record(t, phi, 0.0)
    if event is not None:
        return finish(event)

    speed, phi_lo, phi_hi = _scalar_speed(wspec, base.d)

    def canonical_event(phi_val, tt):
        # reuse the array probe so event payloads match the generic path
        stats.full_probes += 1
        _, ev = _probe(base, wspec, np.array([phi_val]), tt, config.theta_min)
        return ev if ev is not None else FlowEvent("domain", tt, 0, phi_val)

    def settle_event(ev, dt_used, ok_phi, ok_t):
        # scalar-path events are domain or numeric: keep the last valid state
        need_row = not times or times[-1] != ok_t
        need_snap = not snaps or snaps[-1][0] != ok_t
        if need_row or need_snap:
            record(ok_t, ok_phi, dt_used, want_row=need_row, want_snap=need_snap)
        return finish(ev)

    t_end = config.t_end
    tol = 1e-12 * max(1.0, t_end)
    euler = config.integrator == "euler"
    dt = 0.0
    k_rec, k_snap = 1, 1

    while t < t_end - tol:
        next_rec = k_rec * config.record_every
        next_snap = k_snap * config.snapshot_every
        target = min(next_rec, next_snap, t_end)
        dt = min(config.dt_max, target - t)
        landed = dt >= target - t - 1e-15 * max(1.0, target)
        if landed:
            dt = target - t

        fail = None
        ks = []
        try:
            ks.append(speed(phi))
        except WarpDomainError:
            fail = (phi, t)
        if fail is None and not euler:
            for frac in (0.5, 0.5, 1.0):
                phi_stage = phi + frac * dt * ks[-1]
                try:
                    ks.append(speed(phi_stage))
                except WarpDomainError:
                    fail = (phi_stage, t + frac * dt)
                    break
        if fail is not None:
            # the calls of this step, the failing one included
            stats.f_evals += len(ks) + 1
            ph, tt = fail
            return settle_event(canonical_event(ph, tt), dt, phi, t)
        if euler:
            phi_new = phi + dt * ks[0]
        else:
            phi_new = phi + dt / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])

        t_prev, phi_prev = t, phi
        t = target if landed else t + dt
        phi = phi_new

        if not phi_lo < phi < phi_hi:  # also catches NaN
            stats.f_evals += per_step
            return settle_event(canonical_event(phi, t), dt, phi_prev, t_prev)

        if landed:
            stats.step(dt, "landing")
            final = t >= t_end - tol
            at_rec = abs(t - next_rec) <= tol or final
            at_snap = abs(t - next_snap) <= tol or final
            if at_rec or at_snap:
                record(t, phi, dt, want_row=at_rec, want_snap=at_snap)
            while k_rec * config.record_every <= t + tol:
                k_rec += 1
            while k_snap * config.snapshot_every <= t + tol:
                k_snap += 1
        else:
            n_plain += 1

    need_row = abs(times[-1] - t_end) > tol
    need_snap = not snaps or abs(snaps[-1][0] - t_end) > tol
    if need_row or need_snap:
        record(t_end, phi, dt, want_row=need_row, want_snap=need_snap)
    return finish("completed")
