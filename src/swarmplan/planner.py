"""Receding-horizon trajectory optimization over uniform B-splines.

Each cycle builds one convex QP in the stacked control points [Px; Py]:
derivative-energy smoothing, a quadratic end cost pulling x(t_end) to the
goal, and obstacle costs quadratized around the previous trajectory, subject
to initial-state and waypoint equalities, safe-region halfplanes at every
future timestep, and per-derivative box limits.  An infeasible solve is
retried with the box limits applied only at knot transitions; if that also
fails the previous trajectory is kept and the cycle reports failure.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bspline import (TrajectorySpline, basis_weights, derivative_gram,
                      difference_matrix, derivative_map, plan_knot_layout,
                      position_map)
from .geometry import Circle
from .qp import QPProblem, solve_qp

DISTANCE_FLOOR = 1e-3   # meters; keeps the kernel finite at contact

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)

# How far ahead (in knot segments) the goal pin sits once its stamp has
# passed; keeps the spline station-keeping at the goal.
PIN_LEAD_SEGMENTS = 2.0

# Sampling density of the relaxed derivative-limit rows, per knot segment.
# Ten per one-second segment matches the prediction grid.
RELAXED_SAMPLES_PER_SEGMENT = 10


@dataclass
class Weights:
    """Objective weights and obstacle-kernel parameters."""

    Q_n: float = 1.0        # order-n derivative energy
    Q_nm1: float = 0.1      # order-(n-1) derivative energy
    Q_final: float = 1000.0  # end-position pull toward the goal
    Q_final_vel: float = 100.0  # velocity pull at the goal stamp
    Q_obs: float = 1.0      # obstacle cost scale
    K_p: float = 10.0       # kernel decay rate, 1/m
    rho: float = 0.2        # kernel threshold distance, m

    def __post_init__(self):
        for name in ("Q_n", "Q_nm1", "Q_final", "Q_final_vel", "Q_obs",
                     "K_p", "rho"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.K_p <= 0:
            raise ValueError("K_p must be positive")


@dataclass
class PlanRequest:
    """Inputs for one replanning cycle.

    initial_state stacks derivative orders 0..n-1 at t_now; limits maps a
    derivative order to per-axis (lower, upper) bounds; waypoint and goal
    times are absolute.  regions may be None in open space.
    """

    t_now: float
    initial_state: np.ndarray
    goal: np.ndarray
    previous: TrajectorySpline
    regions: object = None
    goal_time: float = None
    waypoints: list = field(default_factory=list)     # (time, point) pairs
    near_obstacles: list = field(default_factory=list)
    limits: dict = field(default_factory=dict)        # order -> (lower, upper)
    horizon: float = 4.0
    dt: float = 1.0
    end_velocity: np.ndarray = None                   # velocity pinned at goal_time

    def __post_init__(self):
        self.initial_state = np.atleast_2d(np.asarray(self.initial_state, float))
        self.goal = np.asarray(self.goal, dtype=float)
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")
        if self.end_velocity is not None:
            self.end_velocity = np.asarray(self.end_velocity, dtype=float)
            if self.goal_time is None:
                raise ValueError("end_velocity needs a goal_time to pin it at")

    @property
    def order(self):
        return len(self.initial_state)


@dataclass
class PlanReport:
    status: str                 # optimal | relaxed | fallback
    iterations: int = 0
    kkt_residual: float = np.nan
    solve_time_us: float = 0.0
    continuity_error: float = np.nan
    layout: object = None


class AllSlicesInfeasible(RuntimeError):
    """Every safe-region slice was flagged infeasible; nothing to constrain."""


def collision_kernel(d, w):
    """Obstacle proximity kernel exp(-K_p*(max(d, floor) - rho)) / K_p.

    Equals 1/K_p at the threshold distance rho and decays exponentially
    beyond it; the floor removes the contact singularity.
    """
    d = np.maximum(np.asarray(d, dtype=float), DISTANCE_FLOOR)
    return np.exp(-w.K_p * (d - w.rho)) / w.K_p


def _quadrature_intervals(traj, span):
    """Per knot interval clipped to span: (ts, ws, idx, W) quadrature blocks.

    ts/ws are 64 Gauss-Legendre nodes and weights; W rows are the active
    basis weights so positions are W @ control[idx].  One basis_weights
    call covers the nodes of every interval.
    """
    lo, hi = traj.domain
    lo = max(lo, span[0])
    hi = min(hi, span[1])
    if hi - lo < 1e-12:
        return []
    t_start = traj.t0 + traj.degree * traj.dt
    k_lo = int(np.floor((lo - t_start) / traj.dt + 1e-12))
    k_hi = int(np.ceil((hi - t_start) / traj.dt - 1e-12))
    blocks = []
    for k in range(k_lo, k_hi):
        a = max(lo, t_start + k * traj.dt)
        b = min(hi, t_start + (k + 1) * traj.dt)
        if b - a >= 1e-12:
            blocks.append((a, b, min(traj.degree + k, traj.m - 1)))
    if not blocks:
        return []
    a, b, j = (np.array(c) for c in zip(*blocks))
    ts = 0.5 * (b - a)[:, None] * _GL64_NODES + 0.5 * (b + a)[:, None]
    ws = 0.5 * (b - a)[:, None] * _GL64_WEIGHTS
    u = (ts - (traj.t0 + j * traj.dt)[:, None]) / traj.dt
    W = basis_weights(traj.degree, u)
    return [(ts[i], ws[i], np.arange(j[i] - traj.degree, j[i] + 1), W[i])
            for i in range(len(blocks))]


def _distance_models(shape, pts):
    """Distance, unit gradient, and distance Hessian at many query points.

    Points inside the shape get distance 0 with zero gradient and Hessian.
    The Hessian is zero on edge features and (I - uu')/L on arcs and
    vertices, L being the distance to the curvature center.
    """
    n = len(pts)
    d = np.zeros(n)
    u = np.zeros((n, 2))
    Hd = np.zeros((n, 2, 2))
    eye = np.eye(2)
    if isinstance(shape, Circle):
        v = pts - shape.center
        ell = np.linalg.norm(v, axis=1)
        outside = ell > shape.radius
        safe = ell > 1e-12
        mask = outside & safe
        un = np.zeros_like(v)
        un[safe] = v[safe] / ell[safe, None]
        d[mask] = ell[mask] - shape.radius
        u[mask] = un[mask]
        uu = un[mask, :, None] * un[mask, None, :]
        Hd[mask] = (eye - uu) / ell[mask, None, None]
        return d, u, Hd
    corners = shape.corners
    a = corners
    b = np.roll(corners, -1, axis=0)
    e = b - a
    ee = np.sum(e * e, axis=1)
    t = np.clip(np.einsum("nkd,kd->nk", pts[:, None, :] - a, e) / ee, 0.0, 1.0)
    proj = a + t[:, :, None] * e
    diff = pts[:, None, :] - proj
    dist = np.linalg.norm(diff, axis=2)
    best = np.argmin(dist, axis=1)
    rows = np.arange(n)
    q = proj[rows, best]
    tb = t[rows, best]
    v = pts - q
    dv = dist[rows, best]
    inside = shape.contains_many(pts)
    mask = (~inside) & (dv > 1e-12)
    d[mask] = dv[mask]
    u[mask] = v[mask] / dv[mask, None]
    vertex = mask & ((tb < 1e-9) | (tb > 1.0 - 1e-9))
    uu = u[vertex, :, None] * u[vertex, None, :]
    Hd[vertex] = (eye - uu) / dv[vertex, None, None]
    return d, u, Hd


def _kernel_models(d, u, Hd, w):
    """Value, gradient, and PSD-clamped Hessian of the kernel at each point."""
    f = collision_kernel(d, w)
    g = np.zeros_like(u)
    H = np.zeros_like(Hd)
    act = d > DISTANCE_FLOOR
    if np.any(act):
        fp = -w.K_p * f[act]
        fpp = w.K_p * w.K_p * f[act]
        ua = u[act]
        g[act] = fp[:, None] * ua
        uu = ua[:, :, None] * ua[:, None, :]
        Hraw = fpp[:, None, None] * uu + fp[:, None, None] * Hd[act]
        ew, ev = np.linalg.eigh(Hraw)
        ew = np.clip(ew, 0.0, None)
        H[act] = np.einsum("nik,nk,njk->nij", ev, ew, ev)
    return f, g, H


def collision_cost_closed_form(traj, obs, span, w):
    """Integral of the kernel of the trajectory-to-shape distance over span.

    Fixed 64-node Gauss-Legendre quadrature per knot interval; the reference
    value all quadratic approximations are measured against.
    """
    total = 0.0
    for ts, ws, idx, W in _quadrature_intervals(traj, span):
        pts = W @ traj.control[idx]
        dists = np.array([obs.distance(p) for p in pts])
        total += float(ws @ collision_kernel(dists, w))
    return total


def quadratize_collision(previous, obs, span, w):
    """Quadratic model of the obstacle cost around the previous trajectory.

    Second-order Taylor expansion of the kernel at every quadrature node,
    node Hessians clamped PSD, accumulated into the stacked control-point
    space [Px; Py] of the previous trajectory's own knot layout.  Returns
    (H, F, c0) with cost(P) ~= 1/2 P'HP + F'P + c0; at P = previous control
    points this reproduces collision_cost_closed_form exactly.
    """
    m = previous.m
    H = np.zeros((2 * m, 2 * m))
    F = np.zeros(2 * m)
    c0 = 0.0
    for ts, ws, idx, W in _quadrature_intervals(previous, span):
        pts = W @ previous.control[idx]
        d, ug, Hd = _distance_models(obs, pts)
        f, g, Hn = _kernel_models(d, ug, Hd, w)
        outer = W[:, :, None] * W[:, None, :]
        gHx = g - np.einsum("nij,nj->ni", Hn, pts)
        ix = idx
        iy = idx + m
        H[np.ix_(ix, ix)] += np.einsum("n,n,nij->ij", ws, Hn[:, 0, 0], outer)
        H[np.ix_(iy, iy)] += np.einsum("n,n,nij->ij", ws, Hn[:, 1, 1], outer)
        Hxy = np.einsum("n,n,nij->ij", ws, Hn[:, 0, 1], outer)
        H[np.ix_(ix, iy)] += Hxy
        H[np.ix_(iy, ix)] += Hxy.T
        F[ix] += np.einsum("n,n,ni->i", ws, gHx[:, 0], W)
        F[iy] += np.einsum("n,n,ni->i", ws, gHx[:, 1], W)
        c0 += float(ws @ (f - np.einsum("ni,ni->n", g, pts)
                          + 0.5 * np.einsum("ni,nij,nj->n", pts, Hn, pts)))
    return H, F, c0


def end_cost(goal, row, q_final):
    """Quadratic pull of the position at one time row toward the goal.

    row is the (m,) position map row at the end time; returns (H, F) in the
    stacked [Px; Py] space so 1/2 P'HP + F'P + q_final*|goal|^2 equals
    q_final * |x(t_end) - goal|^2.
    """
    m = len(row)
    H = np.zeros((2 * m, 2 * m))
    F = np.zeros(2 * m)
    if q_final == 0.0:
        return H, F
    block = 2.0 * q_final * np.outer(row, row)
    H[:m, :m] = block
    H[m:, m:] = block
    F[:m] = -2.0 * q_final * goal[0] * row
    F[m:] = -2.0 * q_final * goal[1] * row
    return H, F


def end_time_heuristic(initial_state, goal, a_max, t_segment=1.0):
    """Seconds to reach the goal from the current speed at full acceleration.

    Smallest T > 0 with |goal - p0| = |v0| T + a_max T^2 / 2, floored at two
    knot segments so the spline always has room to maneuver.
    """
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    state = np.atleast_2d(np.asarray(initial_state, float))
    p0 = state[0]
    v = float(np.linalg.norm(state[1])) if len(state) > 1 else 0.0
    dist = float(np.linalg.norm(np.asarray(goal, float) - p0))
    floor = 2.0 * t_segment
    if dist <= 0.0:
        return floor
    T = (-v + np.sqrt(v * v + 2.0 * a_max * dist)) / a_max
    return max(T, floor)


def admit_obstacles(shapes, regions):
    """Shapes that can intersect at least one feasible region slice.

    Uses the per-plane support test (a shape is rejected by a slice only if
    some halfplane separates it entirely); conservative, so nearby shapes
    are always admitted into the obstacle cost.
    """
    if regions is None:
        return []
    out = []
    seen = set()
    for s in shapes:
        if id(s) in seen:
            continue
        seen.add(id(s))
        for sl in regions.slices:
            poly = sl.static_polytope
            sup = s.support(-poly.normals)
            if np.all(poly.offsets + sup >= 0.0):
                out.append(s)
                break
    return out


def fit_to_layout(traj, layout):
    """Least-squares refit of a trajectory onto a new knot layout.

    Samples the old trajectory (held constant outside its domain) densely
    over the new domain and fits the new control points; used to carry the
    previous solution into the shifted knot grid each cycle.
    """
    times = np.linspace(layout.t_start, layout.t_end, 2 * layout.m)
    A = position_map(layout, times)
    b = traj.positions(np.clip(times, *traj.domain))
    control, *_ = np.linalg.lstsq(A, b, rcond=None)
    return TrajectorySpline.from_layout(layout, control)


def constant_spline(layout, point):
    """Trajectory pinned at one point (all derivatives zero)."""
    control = np.tile(np.asarray(point, dtype=float), (layout.m, 1))
    return TrajectorySpline.from_layout(layout, control)


_GRAM_CACHE = {}


def _gram_cached(layout, order):
    """Full-domain derivative Gram, cached: it only depends on the knot
    topology (degree, control count, spacing), not on the absolute start."""
    key = (layout.degree, layout.m, round(layout.dt, 12), order)
    G = _GRAM_CACHE.get(key)
    if G is None:
        G = derivative_gram(layout, order)
        _GRAM_CACHE[key] = G
    return G


def assemble_qp(req, w, layout, reference, relaxed=False):
    """Build the cycle QP in the stacked control points [Px; Py].

    reference is the previous trajectory refit onto `layout`; obstacle costs
    are quadratized around it.  relaxed swaps the per-control-point box
    limits for samples at knot transitions only.  Raises AllSlicesInfeasible
    when regions exist but no slice is usable.
    """
    m = layout.m
    nvar = 2 * m
    n = req.order
    if layout.degree != n + 1:
        raise ValueError(f"layout degree {layout.degree} does not match order {n}")

    G = 2.0 * (w.Q_n * _gram_cached(layout, n)
               + w.Q_nm1 * _gram_cached(layout, n - 1))
    H = np.zeros((nvar, nvar))
    H[:m, :m] = G
    H[m:, m:] = G
    F = np.zeros(nvar)

    # Goal pull at the horizon end, and again at a pin instant: the goal
    # stamp while it is still ahead, then a point two knot segments out once
    # it has passed, so the spline keeps station at the goal instead of
    # gliding through.  The pin also pulls the velocity toward the requested
    # end velocity (rest by default, and rest after the stamp), damping
    # arrival speed.  Everything stays soft so a blocked goal cannot
    # deadlock the solve.
    row = position_map(layout, layout.t_end)
    H_fin, F_fin = end_cost(req.goal, row, w.Q_final)
    H += H_fin
    F += F_fin
    if req.goal_time is not None:
        ahead = req.goal_time > layout.t_start + 1e-9
        t_pin = (req.goal_time if ahead
                 else layout.t_start + PIN_LEAD_SEGMENTS * layout.dt)
        if t_pin <= layout.t_end - 1e-9:
            row_g = position_map(layout, t_pin)
            H_g, F_g = end_cost(req.goal, row_g, w.Q_final)
            H += H_g
            F += F_g
            v_des = np.zeros(2)
            if req.end_velocity is not None and ahead:
                v_des = req.end_velocity
            row_v = derivative_map(layout, t_pin, 1)
            H_v, F_v = end_cost(v_des, row_v, w.Q_final_vel)
            H += H_v
            F += F_v

    span = (layout.t_start, layout.t_end)
    for obs in req.near_obstacles:
        H_o, F_o, _ = quadratize_collision(reference, obs, span, w)
        H += w.Q_obs * H_o
        F += w.Q_obs * F_o

    # Equalities: initial derivative stack, then in-horizon waypoints.
    eq_rows = []
    eq_b = []
    for k in range(n):
        r = derivative_map(layout, layout.t_start, k)
        eq_rows.append(np.concatenate([r, np.zeros(m)]))
        eq_b.append(req.initial_state[k, 0])
        eq_rows.append(np.concatenate([np.zeros(m), r]))
        eq_b.append(req.initial_state[k, 1])
    for t_wp, p_wp in req.waypoints:
        if t_wp <= layout.t_start + 1e-9 or t_wp > layout.t_end + 1e-9:
            continue
        r = position_map(layout, t_wp)
        p_wp = np.asarray(p_wp, dtype=float)
        eq_rows.append(np.concatenate([r, np.zeros(m)]))
        eq_b.append(p_wp[0])
        eq_rows.append(np.concatenate([np.zeros(m), r]))
        eq_b.append(p_wp[1])

    in_rows = []
    in_lo = []
    in_hi = []

    # Safe-region halfplanes at every usable slice time.
    regions = req.regions
    if regions is not None and len(regions.t_rel):
        times = req.t_now + regions.t_rel
        usable = regions.feasible & (times <= layout.t_end + 1e-9)
        if not usable.any():
            raise AllSlicesInfeasible(
                f"{len(regions.t_rel)} slices, none feasible")
        R = position_map(layout, times[usable])[:, None, :]
        normals = regions.planes.normals[usable]
        live = regions.planes.live()[usable]
        in_rows.append(np.concatenate([normals[..., :1] * R,
                                       normals[..., 1:] * R], axis=2)[live])
        in_hi.append(regions.planes.offsets[usable][live])
        in_lo.append(np.full(len(in_hi[-1]), -np.inf))

    # Derivative box limits: control-point rows guarantee the bound at every
    # instant (convex hull); the relaxed pass instead samples the bound on
    # the same dense grid the regions use, trading the guarantee between
    # samples for feasibility when the convex-hull rows are too conservative.
    # Each row of D gives an x row then a y row.
    for order, (lo_b, hi_b) in sorted(req.limits.items()):
        lo_b = np.asarray(lo_b, dtype=float)
        hi_b = np.asarray(hi_b, dtype=float)
        if np.any(lo_b >= hi_b):
            raise ValueError(f"limits for order {order} must satisfy lower < upper")
        if relaxed:
            # Samples sit on absolute multiples of the step so every logged
            # state lands on a constrained instant no matter when the cycle
            # started.
            h = layout.dt / RELAXED_SAMPLES_PER_SEGMENT
            first = math.ceil(layout.t_start / h - 1e-9)
            last = math.floor(layout.t_end / h + 1e-9)
            times = h * np.arange(first, last + 1)
            D = derivative_map(layout, times, order)
        else:
            D = difference_matrix(m, layout.dt, order)
        rows = np.zeros((len(D), 2, nvar))
        rows[:, 0, :m] = D
        rows[:, 1, m:] = D
        in_rows.append(rows.reshape(-1, nvar))
        in_lo.append(np.tile(lo_b[:2], len(D)))
        in_hi.append(np.tile(hi_b[:2], len(D)))

    return QPProblem(
        H=H, F=F,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_b) if eq_b else None,
        A_in=np.concatenate(in_rows) if in_rows else None,
        lower=np.concatenate(in_lo) if in_rows else None,
        upper=np.concatenate(in_hi) if in_rows else None,
    )


def _unstacked(x):
    m = len(x) // 2
    return np.column_stack([x[:m], x[m:]])


def plan_with_fallback(req, w):
    """One replanning cycle: dense solve, relaxed retry, or keep the old plan.

    Returns (trajectory, report).  The dense pass enforces box limits on the
    derivative control points; if it is infeasible the limits are relaxed to
    knot-transition samples; if that also fails the previous trajectory is
    returned unchanged with status 'fallback'.
    """
    t_begin = time.perf_counter()
    if req.goal_time is None:
        # No stamp given: re-derive an arrival time each cycle from the
        # current state and the acceleration budget.
        a_max = _tightest_bound(req.limits, 2)
        if not np.isfinite(a_max):
            a_max = 1.0
        goal_time = req.t_now + end_time_heuristic(
            req.initial_state, req.goal, a_max, req.dt)
        req = replace(req, goal_time=goal_time)
    layout = plan_knot_layout(req.t_now, req.horizon, req.dt,
                              req.order + 1, goal_time=req.goal_time)
    reference = fit_to_layout(req.previous, layout)

    def finish(traj, status, sol=None):
        elapsed = (time.perf_counter() - t_begin) * 1e6
        err = 0.0
        for k in range(req.order):
            have = traj.derivative_value(traj.clamp_time(req.t_now), k)
            err = max(err, float(np.max(np.abs(have - req.initial_state[k]))))
        return traj, PlanReport(
            status=status,
            iterations=sol.iterations if sol else 0,
            kkt_residual=sol.stationarity if sol else np.nan,
            solve_time_us=elapsed,
            continuity_error=err,
            layout=layout,
        )

    try:
        dense = assemble_qp(req, w, layout, reference, relaxed=False)
    except AllSlicesInfeasible:
        return finish(req.previous, "fallback")
    sol = solve_qp(dense)
    if sol.status == "optimal":
        return finish(TrajectorySpline.from_layout(layout, _unstacked(sol.x)),
                      "optimal", sol)
    relaxed = assemble_qp(req, w, layout, reference, relaxed=True)
    sol2 = solve_qp(relaxed)
    if sol2.status == "optimal":
        return finish(TrajectorySpline.from_layout(layout, _unstacked(sol2.x)),
                      "relaxed", sol2)
    return finish(req.previous, "fallback", sol2)


def _tightest_bound(limits, order):
    """Smallest finite absolute bound on the order-th derivative, else inf."""
    if order not in limits:
        return np.inf
    lo, hi = limits[order]
    vals = np.abs(np.concatenate([np.atleast_1d(lo), np.atleast_1d(hi)]))
    vals = vals[np.isfinite(vals)]
    return float(vals.min()) if len(vals) else np.inf
