"""Receding-horizon trajectory optimization over uniform B-splines.

Each cycle builds one convex QP in the stacked control points [Px; Py].
Its objective is one (m, m) block per axis, the same on both:
derivative-energy smoothing plus quadratic pulls of x(t_end), and of the
position and velocity at a pin instant, toward the goal.  The obstacle
cost is the only term that couples the axes: the kernel of the distance
from the previous plan at the safe-region slice seeds of each shape that
owns a region row (the seeding's one separation test admits it), as the
moving volume measured it, expanded there and weighted by the slice
spacing, so assembling it tests no shape and calls no geometry kernel.
The constraints are the initial-state and waypoint equalities and the
safe-region halfplanes at every future timestep.  The fallback ladder
appends each pass's derivative box limits to A_in: first on the derivative
control points, a read-only block checked once and cached per knot
topology and limits, then, if that is infeasible and there are limits,
sampled at the multiples of TAU, the slice grid, and checked on every
pass.  If both fail the previous trajectory is kept.  A cycle after a
fallback, with limits, first solves the QP without limit rows: each pass
only appends rows, so a Farkas certificate of its equalities and region
rows proves both infeasible in one solve.  A probe is one more solve in a
cycle that plans, so only a fallback streak runs it.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bspline import (TrajectorySpline, derivative_gram, difference_matrix,
                      derivative_map, plan_knot_layout, position_map)
from .qp import QPProblem, _checked_rows, solve_qp

HORIZON = 4.0           # planning horizon, seconds
TAU = 0.1               # region slice and limit sample spacing, seconds
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

# How far ahead (in knot segments) the goal pin sits once its stamp has
# passed; keeps the spline station-keeping at the goal.
PIN_LEAD_SEGMENTS = 2.0


@dataclass
class PlanRequest:
    """Inputs for one replanning cycle: what the cycle measured, and the
    agent's resolved `runtime.AgentSpec`, whose task (stamped waypoints,
    absolute times) and limits are read as it holds them.

    initial_state stacks derivative orders 0..spec.order-1 at t_now; regions
    may be None in open space.  near_obstacles holds the columns of the
    cycle's `perception.MovingVolume` (volume) whose shapes own a row of
    the regions (`regions.admit_obstacles`); the obstacle cost reads what
    the volume measured of them.  The limits, boxes that
    `runtime.symmetric_limits` has checked (lo < 0 < hi), are turned into
    limit_b once, here, not on every pass of the fallback ladder.
    after_fallback is set when the agent's last cycle fell back.
    """

    t_now: float
    initial_state: np.ndarray
    previous: TrajectorySpline
    spec: object
    regions: object = None
    volume: object = None
    near_obstacles: list = field(default_factory=list)
    after_fallback: bool = False

    # (order, bytes of hi_x, -lo_x, hi_y, -lo_y) per limited order, in order:
    # its four box rows' bounds, exact bytes that key _limit_block.
    limit_b: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.limit_b = tuple(
            (k, np.array([hi[0], -lo[0], hi[1], -lo[1]]).tobytes())
            for k, (lo, hi) in sorted(self.spec.limits.items()))


@dataclass
class PlanReport:
    status: str                 # optimal | relaxed | fallback
    iterations: int = 0
    kkt_residual: float = np.nan
    solve_time_us: float = 0.0
    continuity_error: float = np.nan


class AllSlicesInfeasible(RuntimeError):
    """Every safe-region slice was flagged infeasible; nothing to constrain."""


def collision_kernel(d):
    """Obstacle proximity kernel exp(-K_P*(max(d, floor) - RHO)) / K_P.

    Equals 1/K_P at the threshold distance RHO and decays exponentially
    beyond it; the floor removes the contact singularity.
    """
    d = np.maximum(np.asarray(d, dtype=float), DISTANCE_FLOOR)
    return np.exp(-K_P * (d - RHO)) / K_P


def _kernel_models(d, u):
    """Value, gradient, and Gauss-Newton Hessian fpp·uu' of the kernel at
    distances d (...) with unit gradients u (..., 2): (...), (..., 2) and
    (..., 2, 2).

    The kernel's full Hessian adds fp·Hd, where fp < 0 and the distance
    Hessian Hd is PSD with u in its null space; fpp·uu' is its PSD part.
    """
    f = collision_kernel(d)
    act = d > DISTANCE_FLOOR
    fp = np.where(act, -K_P * f, 0.0)
    fpp = np.where(act, K_P * K_P * f, 0.0)
    g = fp[..., None] * u
    H = fpp[..., None, None] * (u[..., :, None] * u[..., None, :])
    return f, g, H


def quadratize_collision(layout, times, seeds, d, u):
    """Quadratic model of the obstacle cost in the stacked control points
    [Px; Py] of `layout`.

    The cost sums, over the slices at `times` and the admitted shapes, the
    kernel of the shape's distance from the plan, each slice weighted by
    the time since the one before it (the first since layout.t_start).
    Slice k's shape j lies d[k, j] from seeds[k], with unit gradient
    u[k, j] there; its term is expanded at the seed to value, gradient and
    Gauss-Newton Hessian fpp·uu' (the PSD part of the exact Hessian) and
    projected through the slice's position row, the row its region
    constraints use.  Returns (H, F) with cost(P) ~= 1/2 P'HP + F'P plus a
    constant, with which a plan through the seeds at the slice times gets
    the cost itself; no solve reads it.
    """
    ws = times - np.concatenate([[layout.t_start], times[:-1]])
    g, Hn = (x.sum(axis=1) for x in _kernel_models(d, u)[1:])
    A = position_map(layout, times)
    m = layout.m
    H = np.empty((2 * m, 2 * m))
    H[:m, :m], H[:m, m:], H[m:, m:] = (
        A.T @ ((ws * h)[:, None] * A)
        for h in (Hn[:, 0, 0], Hn[:, 0, 1], Hn[:, 1, 1]))
    H[m:, :m] = H[:m, m:].T
    lin = ws[:, None] * (g - np.einsum("nij,nj->ni", Hn, seeds))
    F = np.concatenate([A.T @ lin[:, 0], A.T @ lin[:, 1]])
    return H, F


def end_cost(goal, row, q_final):
    """Quadratic pull of the value at one time row toward the goal, per axis.

    row is the (m,) map row at that time.  Returns the (m, m) block B that
    both axes share and the (2, m) linear rows f, one per axis, so that
    sum over axes a of 1/2 P_a'B P_a + f_a'P_a, plus q_final*|goal|^2,
    equals q_final * |row @ P - goal|^2.
    """
    return (2.0 * q_final * np.multiply.outer(row, row),
            -2.0 * q_final * goal[:, None] * row)


def constant_spline(layout, point):
    """Trajectory pinned at one point (all derivatives zero)."""
    control = np.tile(np.asarray(point, dtype=float), (layout.m, 1))
    return TrajectorySpline.from_layout(layout, control)


def assemble_qp(req, layout):
    """Build the cycle QP in the stacked control points [Px; Py].

    A_in holds only the safe-region rows of live planes; plan_with_fallback
    appends each pass's limit rows.  The obstacle cost is quadratized at
    the volume's slice seeds from the distances and gradients it measured
    of the near_obstacles columns.  Raises AllSlicesInfeasible when
    regions exist but no slice is usable.
    """
    spec = req.spec
    m = layout.m
    n = spec.order
    if layout.degree != n + 1:
        raise ValueError(f"layout degree {layout.degree} does not match order {n}")

    # Goal pull at the horizon end, and again at a pin instant: the goal
    # stamp while it is still ahead, then a point two knot segments out once
    # it has passed, so the spline keeps station at the goal instead of
    # gliding through.  The pin also pulls the velocity toward the requested
    # end velocity (rest by default, and rest after the stamp), damping
    # arrival speed.  Everything stays soft so a blocked goal cannot
    # deadlock the solve.
    pulls = [(spec.goal, position_map(layout, layout.t_end), Q_FINAL)]
    ahead = spec.goal_time > layout.t_start + 1e-9
    t_pin = (spec.goal_time if ahead
             else layout.t_start + PIN_LEAD_SEGMENTS * layout.dt)
    if t_pin <= layout.t_end - 1e-9:
        v_des = np.zeros(2)
        if spec.end_velocity is not None and ahead:
            v_des = spec.end_velocity
        pulls += [(spec.goal, position_map(layout, t_pin), Q_FINAL),
                  (v_des, derivative_map(layout, t_pin, 1), Q_FINAL_VEL)]
    degree, dt = layout.degree, layout.dt
    block = 2.0 * (Q_N * derivative_gram(degree, m, dt, n)
                   + Q_NM1 * derivative_gram(degree, m, dt, n - 1))
    f = np.zeros((2, m))
    for target, row, q in pulls:
        B, f_k = end_cost(target, row, q)
        block += B
        f += f_k
    H = np.zeros((2 * m, 2 * m))
    H[:m, :m] = block
    H[m:, m:] = block
    F = f.reshape(-1)
    if req.near_obstacles:
        v, near = req.volume, req.near_obstacles
        H_o, F_o = quadratize_collision(
            layout, req.t_now + v.t_rel, v.centers, v.distances[:, near],
            v.gradients[:, near])
        H += Q_OBS * H_o
        F += Q_OBS * F_o

    # Equalities, x then y for each row: initial derivative stack, then
    # in-horizon waypoints.
    rows = [derivative_map(layout, layout.t_start, k) for k in range(n)]
    values = list(req.initial_state)
    for t_wp, p_wp in spec.waypoints:
        if layout.t_start + 1e-9 < t_wp <= layout.t_end + 1e-9:
            rows.append(position_map(layout, t_wp))
            values.append(p_wp)
    A_eq = np.zeros((2 * len(rows), 2 * m))
    A_eq[0::2, :m] = rows
    A_eq[1::2, m:] = rows

    # Safe-region halfplanes at every usable slice time.
    region_rows = np.zeros((0, 2 * m))
    region_b = np.zeros(0)
    regions = req.regions
    if regions is not None and len(regions.t_rel):
        times = req.t_now + regions.t_rel
        usable = regions.feasible & (times <= layout.t_end + 1e-9)
        if not usable.any():
            raise AllSlicesInfeasible(
                f"{len(regions.t_rel)} slices, none feasible")
        usable = usable.nonzero()[0]
        slot, k = regions.planes.live()[usable].nonzero()
        at = usable[slot], k
        R = position_map(layout, times[usable])[slot, None, :]
        region_rows = (regions.planes.normals[at][:, :, None] * R).reshape(
            len(slot), 2 * m)
        region_b = regions.planes.offsets[at]

    return QPProblem(H=H, F=F, A_eq=A_eq, b_eq=np.array(values).ravel(),
                     A_in=region_rows, b_in=region_b)


def _box_rows(maps, m):
    """(A, b) of (D, bounds) pairs: four rows per row d of each derivative
    map D over the stacked [Px; Py], d x, -d x, d y, -d y in that order, and
    its bounds (bytes, as in PlanRequest.limit_b) once per row of D."""
    A, b = [np.zeros((0, 2 * m))], [np.zeros(0)]
    for D, bounds in maps:
        rows = np.zeros((len(D), 2, 2, 2 * m))
        rows[:, 0, 0, :m] = D
        rows[:, 1, 0, m:] = D
        np.negative(rows[:, :, 0], out=rows[:, :, 1])
        A.append(rows.reshape(-1, 2 * m))
        b.append(np.frombuffer(bounds * len(D)))
    return np.concatenate(A), np.concatenate(b)


@functools.lru_cache(maxsize=16)
def _limit_block(m, dt, limits):
    """The dense pass's _box_rows over m control points with knot spacing
    dt, of each order's difference matrix for `limits` as in
    PlanRequest.limit_b; checked once, here, and cached, so read-only."""
    block = _checked_rows(*_box_rows([(difference_matrix(m, dt, order), b)
                                      for order, b in limits], m),
                          2 * m, "in")
    for a in block:
        a.setflags(write=False)
    return block


def _limit_rows(req, layout, sampled):
    """Derivative box-limit rows (A, b) of req.spec.limits, A x <= b; none
    without limits.

    Each row d of an order's derivative map gives four rows: d x <= hi,
    -d x <= -lo, d y <= hi, -d y <= -lo.  The control-point rows
    (sampled=False) guarantee the bound at every instant (convex hull); they
    come read-only and checked from _limit_block.  The sampled rows, built
    per call, check it at every multiple of TAU in [t_start, t_end], the
    grid of the region slices and of the logged table, trading the guarantee
    between samples for feasibility when the convex-hull rows are too
    conservative; every logged state in the horizon is a constrained
    instant, whenever the cycle started.
    """
    if not sampled:
        return _limit_block(layout.m, layout.dt, req.limit_b)
    first = math.ceil(layout.t_start / TAU - 1e-9)
    last = math.floor(layout.t_end / TAU + 1e-9)
    times = TAU * np.arange(first, last + 1)
    return _box_rows([(derivative_map(layout, times, order), b)
                      for order, b in req.limit_b], layout.m)


def _unstacked(x):
    """The (m, 2) control points, C-ordered, of the stacked [Px; Py]."""
    return x.reshape(2, -1).T.copy()


def plan_with_fallback(req):
    """One replanning cycle: dense solve, relaxed retry, or keep the old plan.

    Returns (trajectory, report).  The QP is assembled and checked once, and
    each pass appends its own limit rows: the dense pass the cached block,
    checked when it was built (QPProblem.with_checked_rows), the relaxed
    pass its sampled rows, checked as they are appended
    (QPProblem.with_rows).  The dense pass enforces the box limits on the
    derivative control points; if it is infeasible and there are limits,
    the relaxed pass samples them at the multiples of TAU instead; if that
    also fails the previous trajectory is returned unchanged with status
    'fallback'.  With after_fallback and limits, a probe solves the QP
    without limit rows first; only if it is 'infeasible' is the previous
    trajectory returned at once, reporting the probe's iterations.
    """
    t_begin = time.perf_counter()
    layout = plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT,
                              req.spec.order + 1, goal_time=req.spec.goal_time)

    def finish(traj, status, sol=None):
        elapsed = (time.perf_counter() - t_begin) * 1e6
        err = 0.0
        for k in range(req.spec.order):
            have = traj.derivative_value(traj.clamp_time(req.t_now), k)
            err = max(err, float(np.abs(have - req.initial_state[k]).max()))
        return traj, PlanReport(
            status=status,
            iterations=sol.iterations if sol else 0,
            kkt_residual=sol.stationarity if sol else np.nan,
            solve_time_us=elapsed,
            continuity_error=err,
        )

    try:
        problem = assemble_qp(req, layout)
    except AllSlicesInfeasible:
        return finish(req.previous, "fallback")
    if req.after_fallback and req.limit_b:
        sol = solve_qp(problem)
        if sol.status == "infeasible":
            return finish(req.previous, "fallback", sol)
    for status, sampled in (("optimal", False), ("relaxed", True)):
        append = problem.with_rows if sampled else problem.with_checked_rows
        sol = solve_qp(append(*_limit_rows(req, layout, sampled)))
        if sol.status == "optimal":
            return finish(TrajectorySpline.from_layout(layout, _unstacked(sol.x)),
                          status, sol)
        if not req.limit_b:
            break        # no limit rows: the relaxed pass is the same QP
    return finish(req.previous, "fallback", sol)

