"""Receding-horizon trajectory optimization over uniform B-splines.

Each cycle builds one convex QP in the stacked control points [Px; Py]:
derivative-energy smoothing, a quadratic end cost pulling x(t_end) to the
goal, and obstacle costs quadratized around the previous trajectory, subject
to initial-state and waypoint equalities, safe-region halfplanes at every
future timestep, and per-derivative box limits on the derivative control
points.  An infeasible solve is retried on the same problem with the box
limits sampled RELAXED_SAMPLES_PER_SEGMENT times per knot segment instead;
if that also fails the previous trajectory is kept and the cycle reports
failure.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bspline import (TrajectorySpline, derivative_gram, difference_matrix,
                      derivative_map, plan_knot_layout, position_map)
from .geometry import Circle
from .qp import QPProblem, solve_qp

HORIZON = 4.0           # planning horizon, seconds
KNOT_SEGMENT = 1.0      # B-spline knot spacing, seconds
DISTANCE_FLOOR = 1e-3   # meters; keeps the kernel finite at contact

# Objective weights.
Q_N = 1.0             # order-n derivative energy
Q_NM1 = 0.1           # order-(n-1) derivative energy
Q_FINAL = 1000.0      # end-position pull toward the goal
Q_FINAL_VEL = 100.0   # velocity pull at the goal stamp
Q_OBS = 1.0           # obstacle cost scale
# Obstacle kernel: decay rate (1/m) and threshold distance (m).
K_P = 10.0
RHO = 0.2

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)

# How far ahead (in knot segments) the goal pin sits once its stamp has
# passed; keeps the spline station-keeping at the goal.
PIN_LEAD_SEGMENTS = 2.0

# Sampling density of the relaxed derivative-limit rows, per knot segment.
# Ten per one-second segment matches the prediction grid.
RELAXED_SAMPLES_PER_SEGMENT = 10


@dataclass
class PlanRequest:
    """Inputs for one replanning cycle.

    initial_state stacks derivative orders 0..n-1 at t_now; limits maps a
    derivative order to per-axis (lo, hi) bounds; waypoint and goal
    times are absolute.  goal_time None means no goal pin: only the horizon
    end is pulled to the goal.  regions may be None in open space.
    """

    t_now: float
    initial_state: np.ndarray
    goal: np.ndarray
    previous: TrajectorySpline
    regions: object = None
    goal_time: float = None
    waypoints: list = field(default_factory=list)     # (time, point) pairs
    near_obstacles: list = field(default_factory=list)
    limits: dict = field(default_factory=dict)        # order -> (lo, hi)
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


def collision_kernel(d):
    """Obstacle proximity kernel exp(-K_P*(max(d, floor) - RHO)) / K_P.

    Equals 1/K_P at the threshold distance RHO and decays exponentially
    beyond it; the floor removes the contact singularity.
    """
    d = np.maximum(np.asarray(d, dtype=float), DISTANCE_FLOOR)
    return np.exp(-K_P * (d - RHO)) / K_P


def _quadrature(traj, span):
    """Gauss-Legendre nodes and weights, 64 per knot interval clipped to span.

    Flat arrays (ts, ws); the basis rows at the nodes are
    position_map(traj, ts).
    """
    lo, hi = traj.domain
    lo = max(lo, span[0])
    hi = min(hi, span[1])
    t_start = traj.t0 + traj.degree * traj.dt
    knots = t_start + np.arange(traj.m - traj.degree + 1) * traj.dt
    a = np.maximum(lo, knots[:-1])
    b = np.minimum(hi, knots[1:])
    keep = b - a >= 1e-12
    a, b = a[keep], b[keep]
    ts = 0.5 * (b - a)[:, None] * _GL64_NODES + 0.5 * (b + a)[:, None]
    ws = 0.5 * (b - a)[:, None] * _GL64_WEIGHTS
    return ts.ravel(), ws.ravel()


def _distance_models(shape, pts):
    """Distance and its unit gradient at many query points.

    Points inside the shape get distance 0 and a zero gradient.
    """
    n = len(pts)
    d = np.zeros(n)
    u = np.zeros((n, 2))
    if isinstance(shape, Circle):
        v = pts - shape.center
        ell = np.linalg.norm(v, axis=1)
        mask = (ell > shape.radius) & (ell > 1e-12)
        d[mask] = ell[mask] - shape.radius
        u[mask] = v[mask] / ell[mask, None]
        return d, u
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
    v = pts - proj[rows, best]
    dv = dist[rows, best]
    mask = (~shape.contains_many(pts)) & (dv > 1e-12)
    d[mask] = dv[mask]
    u[mask] = v[mask] / dv[mask, None]
    return d, u


def _kernel_models(d, u):
    """Value, gradient, and Gauss-Newton Hessian fpp·uu' of the kernel.

    The kernel's full Hessian adds fp·Hd, where fp < 0 and the distance
    Hessian Hd is PSD with u in its null space; fpp·uu' is its PSD part.
    """
    f = collision_kernel(d)
    act = d > DISTANCE_FLOOR
    fp = np.where(act, -K_P * f, 0.0)
    fpp = np.where(act, K_P * K_P * f, 0.0)
    g = fp[:, None] * u
    H = fpp[:, None, None] * (u[:, :, None] * u[:, None, :])
    return f, g, H


def collision_cost_closed_form(traj, obs, span):
    """Integral of the kernel of the trajectory-to-shape distance over span.

    Fixed 64-node Gauss-Legendre quadrature per knot interval; the reference
    value all quadratic approximations are measured against.
    """
    ts, ws = _quadrature(traj, span)
    dists = np.array([obs.distance(p) for p in traj.positions(ts)])
    return float(ws @ collision_kernel(dists))


def quadratize_collision(previous, obstacles, span):
    """Quadratic model of the summed obstacle cost around the previous
    trajectory.

    Each obstacle's kernel is expanded at every quadrature node to its
    value, gradient and Gauss-Newton Hessian fpp·uu' (the PSD part of the
    exact Hessian), summed over the obstacles and projected once into the
    stacked control-point space [Px; Py] of the previous trajectory's own
    knot layout.  Returns (H, F, c0) with
    cost(P) ~= 1/2 P'HP + F'P + c0; at P = previous control points this
    reproduces the sum of collision_cost_closed_form over the obstacles.
    """
    ts, ws = _quadrature(previous, span)
    A = position_map(previous, ts)
    pts = A @ previous.control
    f = np.zeros(len(ts))
    g = np.zeros((len(ts), 2))
    Hn = np.zeros((len(ts), 2, 2))
    for obs in obstacles:
        f_o, g_o, H_o = _kernel_models(*_distance_models(obs, pts))
        f += f_o
        g += g_o
        Hn += H_o
    Hxx, Hxy, Hyy = (A.T @ ((ws * h)[:, None] * A)
                     for h in (Hn[:, 0, 0], Hn[:, 0, 1], Hn[:, 1, 1]))
    lin = ws[:, None] * (g - np.einsum("nij,nj->ni", Hn, pts))
    F = np.concatenate([A.T @ lin[:, 0], A.T @ lin[:, 1]])
    c0 = float(ws @ (f - np.einsum("ni,ni->n", g, pts)
                     + 0.5 * np.einsum("ni,nij,nj->n", pts, Hn, pts)))
    return np.block([[Hxx, Hxy], [Hxy.T, Hyy]]), F, c0


def end_cost(goal, row, q_final):
    """Quadratic pull of the position at one time row toward the goal.

    row is the (m,) position map row at the end time; returns (H, F) in the
    stacked [Px; Py] space so 1/2 P'HP + F'P + q_final*|goal|^2 equals
    q_final * |x(t_end) - goal|^2.
    """
    m = len(row)
    H = np.zeros((2 * m, 2 * m))
    F = np.zeros(2 * m)
    block = 2.0 * q_final * np.outer(row, row)
    H[:m, :m] = block
    H[m:, m:] = block
    F[:m] = -2.0 * q_final * goal[0] * row
    F[m:] = -2.0 * q_final * goal[1] * row
    return H, F


def admit_obstacles(shapes, regions):
    """Shapes that can intersect the static polytope of at least one slice,
    in their given order.

    Every slice counts, feasible or not.  A slice rejects a shape only if
    one of its halfplanes {n.p <= o} separates it entirely, that is
    o + support(-n) < 0; each shape is tested against every live row of
    the stacked static planes at once.  Conservative, so nearby shapes are
    always admitted into the obstacle cost.
    """
    if regions is None:
        return []
    static = regions.static
    u, padding = -static.normals, ~static.live()
    return [s for s in shapes
            if np.any(np.all((static.offsets + s.support(u) >= 0.0) | padding,
                             axis=1))]


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


def assemble_qp(req, layout, reference):
    """Build the cycle QP in the stacked control points [Px; Py].

    reference is the previous trajectory refit onto `layout`; obstacle costs
    are quadratized around it.  The box limits are the control-point rows
    of _limit_rows, which close A_in so that the relaxed retry can swap
    them.  Raises AllSlicesInfeasible when regions exist but no slice is
    usable.
    """
    m = layout.m
    nvar = 2 * m
    n = req.order
    if layout.degree != n + 1:
        raise ValueError(f"layout degree {layout.degree} does not match order {n}")

    G = 2.0 * (Q_N * _gram_cached(layout, n)
               + Q_NM1 * _gram_cached(layout, n - 1))
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
    H_fin, F_fin = end_cost(req.goal, row, Q_FINAL)
    H += H_fin
    F += F_fin
    if req.goal_time is not None:
        ahead = req.goal_time > layout.t_start + 1e-9
        t_pin = (req.goal_time if ahead
                 else layout.t_start + PIN_LEAD_SEGMENTS * layout.dt)
        if t_pin <= layout.t_end - 1e-9:
            row_g = position_map(layout, t_pin)
            H_g, F_g = end_cost(req.goal, row_g, Q_FINAL)
            H += H_g
            F += F_g
            v_des = np.zeros(2)
            if req.end_velocity is not None and ahead:
                v_des = req.end_velocity
            row_v = derivative_map(layout, t_pin, 1)
            H_v, F_v = end_cost(v_des, row_v, Q_FINAL_VEL)
            H += H_v
            F += F_v

    if req.near_obstacles:
        H_o, F_o, _ = quadratize_collision(
            reference, req.near_obstacles, (layout.t_start, layout.t_end))
        H += Q_OBS * H_o
        F += Q_OBS * F_o

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

    # Safe-region halfplanes at every usable slice time.
    region_rows = np.zeros((0, nvar))
    region_b = np.zeros(0)
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
        region_rows = np.concatenate([normals[..., :1] * R,
                                      normals[..., 1:] * R], axis=2)[live]
        region_b = regions.planes.offsets[usable][live]

    A_lim, b_lim = _limit_rows(req, layout, sampled=False)
    return QPProblem(
        H=H, F=F, A_eq=np.array(eq_rows), b_eq=np.array(eq_b),
        A_in=np.concatenate([region_rows, A_lim]),
        b_in=np.concatenate([region_b, b_lim]),
    )


def _limit_rows(req, layout, sampled):
    """Derivative box-limit rows (A, b) of req.limits, A x <= b.

    Each row d of an order's derivative map gives four rows: d x <= hi,
    -d x <= -lo, d y <= hi, -d y <= -lo.  The control-point rows
    (sampled=False) guarantee the bound at every instant (convex hull).  The
    sampled rows check it at RELAXED_SAMPLES_PER_SEGMENT instants per knot
    segment, the dense grid the regions use, trading the guarantee between
    samples for feasibility when the convex-hull rows are too conservative.
    The samples sit on absolute multiples of the step so every logged state
    lands on a constrained instant no matter when the cycle started.
    """
    m = layout.m
    A, b = [np.zeros((0, 2 * m))], [np.zeros(0)]
    for order, (lo, hi) in sorted(req.limits.items()):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo >= hi):
            raise ValueError(f"limits for order {order} must satisfy lo < hi")
        if sampled:
            h = layout.dt / RELAXED_SAMPLES_PER_SEGMENT
            first = math.ceil(layout.t_start / h - 1e-9)
            last = math.floor(layout.t_end / h + 1e-9)
            D = derivative_map(layout, h * np.arange(first, last + 1), order)
        else:
            D = difference_matrix(m, layout.dt, order)
        rows = np.zeros((len(D), 2, 2 * m))
        rows[:, 0, :m] = D
        rows[:, 1, m:] = D
        A.append(np.stack([rows, -rows], axis=2).reshape(-1, 2 * m))
        b.append(np.tile(np.stack([hi[:2], -lo[:2]], axis=1).ravel(), len(D)))
    return np.concatenate(A), np.concatenate(b)


def _unstacked(x):
    m = len(x) // 2
    return np.column_stack([x[:m], x[m:]])


def plan_with_fallback(req):
    """One replanning cycle: dense solve, relaxed retry, or keep the old plan.

    Returns (trajectory, report).  The QP is assembled once.  The dense pass
    enforces the box limits on the derivative control points; if it is
    infeasible, the relaxed pass solves the same problem with those rows
    swapped for limits sampled RELAXED_SAMPLES_PER_SEGMENT times per knot
    segment; if that also fails the previous trajectory is returned
    unchanged with status 'fallback'.
    """
    t_begin = time.perf_counter()
    layout = plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT,
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
        problem = assemble_qp(req, layout, reference)
    except AllSlicesInfeasible:
        return finish(req.previous, "fallback")
    for status in ("optimal", "relaxed"):
        if status == "relaxed":
            # The dense limit rows close A_in: four rows per derivative
            # control point of each limited order.
            fixed = len(problem.A_in) - sum(4 * (layout.m - order)
                                            for order in req.limits)
            A, b = _limit_rows(req, layout, sampled=True)
            problem = replace(
                problem, A_in=np.concatenate([problem.A_in[:fixed], A]),
                b_in=np.concatenate([problem.b_in[:fixed], b]))
        sol = solve_qp(problem)
        if sol.status == "optimal":
            return finish(TrajectorySpline.from_layout(layout, _unstacked(sol.x)),
                          status, sol)
    return finish(req.previous, "fallback", sol)

