"""Trajectory optimizer: obstacle kernel, QP assembly, fallback ladder."""

import copy
import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import BSpline as SciBSpline

import swarmplan.planner as planner
from swarmplan import bspline, geometry, qp, runtime
from swarmplan.bspline import (KnotLayout, TrajectorySpline, derivative_gram,
                               derivative_map, difference_matrix,
                               plan_knot_layout, position_map)
from swarmplan.geometry import (Circle, Rectangle, Square, Triangle,
                                shape_groups, unit_rows)
from swarmplan.harness import run_scenario
from swarmplan.perception import LocalMap, build_moving_volume
from swarmplan.planner import (AllSlicesInfeasible, DISTANCE_FLOOR, HORIZON,
                               KNOT_SEGMENT, PIN_LEAD_SEGMENTS, Q_FINAL,
                               Q_FINAL_VEL, Q_N, Q_NM1, Q_OBS, PlanReport,
                               PlanRequest, TAU, _limit_rows, _unstacked,
                               assemble_qp, collision_kernel, constant_spline,
                               end_cost, plan_with_fallback,
                               quadratize_collision)
from swarmplan.qp import (_EQ_TOL, _FACTOR_MEMO, _RANK_TOL, _VIOL_TOL,
                          _ZERO_STEP, QPProblem, QPSolution, solve_qp)
from swarmplan.regions import (ConvexPolytope, PlaneStack, SafeRegion,
                               admit_obstacles, build_safe_regions)
from swarmplan.runtime import AgentSpec, symmetric_limits
from swarmplan.scenario import builtin_scenario
from test_qp import lp_feasible


def dist_many(shape, pts):
    """Test-local vectorized point-to-shape distance."""
    if isinstance(shape, Circle):
        return np.maximum(np.linalg.norm(pts - shape.center, axis=1) - shape.radius, 0.0)
    a = shape.corners
    b = np.roll(a, -1, axis=0)
    e = b - a
    t = np.clip(np.einsum("nkd,kd->nk", pts[:, None, :] - a, e)
                / np.sum(e * e, axis=1), 0.0, 1.0)
    d = np.linalg.norm(pts[:, None, :] - (a + t[:, :, None] * e), axis=2).min(axis=1)
    d[shape.contains(pts)] = 0.0
    return d


def own_distance_gradient(shape, pts):
    """The shape's kind's nearest-point kernel on the shape's own
    parameters: (d, u) at each point (n, 2)."""
    if isinstance(shape, Circle):
        return geometry._disk_distance_gradient(shape.center, shape.radius, pts)
    return geometry._polygon_distance_gradient(shape.corners, shape.edges, pts)


# The moving volume's slice times after the cycle start.
SLICE_TIMES = TAU * np.arange(1, round(HORIZON / TAU) + 1)


def collision_cost_closed_form(traj, shapes, times):
    """The obstacle cost of traj: each shape's kernel of its distance from
    traj at every slice time, weighted by the time since the slice before
    (the first since the domain start), summed over slices and shapes.

    The reference value all quadratic models are measured against.
    """
    ws = np.diff(times, prepend=traj.domain[0])
    pts = traj.positions(times)
    return float(sum(ws @ collision_kernel(s.distance(pts)) for s in shapes))


def layout_of(traj):
    """The knot layout whose domain is traj's."""
    lo, hi = traj.domain
    return KnotLayout(traj.degree, traj.t0, traj.dt, traj.m, lo, hi - lo)


def quadratize(traj, shapes, times):
    """quadratize_collision on traj's layout, with the seeds and (d, u) that
    a moving volume along traj measures of shapes at the slice times, and
    the model's constant c0: (H, F, c0) with cost(P) ~= 1/2 P'HP + F'P + c0,
    so that a plan through the seeds at the slice times gets the cost."""
    seeds = traj.positions(times)
    d, u = geometry.distance_gradients(shape_groups(shapes), seeds)
    layout = layout_of(traj)
    H, F = quadratize_collision(layout, times, seeds, d, u)
    ws = times - np.concatenate([[layout.t_start], times[:-1]])
    f, g, Hn = (x.sum(axis=1) for x in planner._kernel_models(d, u))
    c0 = float(ws @ (f - np.einsum("ni,ni->n", g, seeds)
                     + 0.5 * np.einsum("ni,nij,nj->n", seeds, Hn, seeds)))
    return H, F, c0


def scipy_eval(traj, ts):
    knots = traj.t0 + traj.dt * np.arange(traj.m + traj.degree + 1)
    return np.column_stack([
        SciBSpline(knots, traj.control[:, ax], traj.degree)(ts) for ax in range(2)])


def random_trajectory(rng, degree=3, m=7, t0=0.0, dt=1.0, scale=2.0):
    control = rng.normal(scale=scale, size=(m, 2))
    return TrajectorySpline(degree, t0 - degree * dt, dt, control)


class TestKernel:
    def test_threshold_value(self):
        assert collision_kernel(planner.RHO) == pytest.approx(1.0 / planner.K_P)

    def test_decay_ten_efolds(self):
        d = planner.RHO + 10.0 / planner.K_P
        assert collision_kernel(d) == pytest.approx(np.exp(-10.0) / planner.K_P)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 3.0, 1000)
        vals = collision_kernel(d)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_floor_flattens_contact(self):
        assert collision_kernel(0.0) == collision_kernel(DISTANCE_FLOOR)


class TestClosedForm:
    def test_static_point_at_threshold(self):
        layout = plan_knot_layout(0.0, 4.0, 1.0, 3)
        traj = constant_spline(layout, [0.0, 0.0])
        obs = Circle([planner.RHO + 1.0, 0.0], 1.0)  # distance exactly rho
        got = collision_cost_closed_form(traj, [obs], SLICE_TIMES[:10])
        assert got == pytest.approx(1.0 / planner.K_P, rel=1e-12)

    def test_distant_trajectory_negligible(self):
        layout = plan_knot_layout(0.0, 4.0, 1.0, 3)
        traj = constant_spline(layout, [0.0, 0.0])
        obs = Circle([50.0, 0.0], 1.0)
        got = collision_cost_closed_form(traj, [obs], SLICE_TIMES)
        assert got < 1e-3 * 4.0 / planner.K_P

    def test_matches_riemann_oracle(self):
        # On random slice times the oracle is the right Riemann sum of the
        # kernel, on positions and distances from independent code (scipy's
        # B-spline, a test-local distance).
        rng = np.random.default_rng(17)
        for attempt in range(6):
            traj = random_trajectory(rng)
            if attempt % 2 == 0:
                obs = Circle(rng.normal(scale=1.5, size=2), float(rng.uniform(0.3, 1.0)))
            else:
                c = rng.normal(scale=1.5, size=2)
                h = float(rng.uniform(0.3, 0.8))
                obs = Square([[c[0] - h, c[1] - h], [c[0] + h, c[1] - h],
                              [c[0] + h, c[1] + h], [c[0] - h, c[1] + h]])
            lo, hi = traj.domain
            times = np.sort(rng.uniform(lo, hi, size=40))
            edges = np.concatenate([[lo], times])
            want = sum((b - a) * collision_kernel(dist_many(obs, scipy_eval(traj, [b]))[0])
                       for a, b in zip(edges[:-1], edges[1:]))
            got = collision_cost_closed_form(traj, [obs], times)
            assert got == pytest.approx(want, rel=1e-9)


def shape_near(rng, kind, p):
    """A circle, triangle, rectangle or square (kind 0-3) about p."""
    c = p + rng.normal(scale=0.3, size=2)
    s = rng.uniform(0.15, 0.5)
    if kind == 0:
        return Circle(c, s)
    if kind == 1:
        return Triangle(c + s * np.array([[-1.0, -0.6], [1.0, -0.4], [0.1, 1.0]]))
    if kind == 2:
        return Rectangle(c + s * np.array([[-1, -0.4], [1, -0.4], [1, 0.4], [-1, 0.4]]))
    return Square(c + s * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]))


def control_gradient_fd(traj, shapes, times, h=1e-6):
    """Central differences of the oracle in the stacked control points."""
    fd = np.zeros(2 * traj.m)
    for i in range(len(fd)):
        for sgn in (1.0, -1.0):
            c = traj.control.copy()
            c[i % traj.m, i // traj.m] += sgn * h
            t2 = TrajectorySpline(traj.degree, traj.t0, traj.dt, c)
            fd[i] += sgn * collision_cost_closed_form(t2, shapes, times)
    return fd / (2 * h)


def stacked_control(traj):
    return np.concatenate([traj.control[:, 0], traj.control[:, 1]])


class TestQuadratize:
    def setup_pair(self, seed):
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng)
        obs = Circle(rng.normal(scale=1.0, size=2), float(rng.uniform(0.4, 1.0)))
        return traj, obs, rng

    def test_value_matches_closed_form(self):
        # Uneven slice times too: each slice weighs the time since the one
        # before it.
        for seed in range(5):
            traj, obs, rng = self.setup_pair(seed)
            lo, hi = traj.domain
            for times in (SLICE_TIMES, np.sort(rng.uniform(lo, hi, size=17))):
                H, F, c0 = quadratize(traj, [obs], times)
                x0 = stacked_control(traj)
                got = 0.5 * x0 @ H @ x0 + F @ x0 + c0
                want = collision_cost_closed_form(traj, [obs], times)
                assert want > 0.0
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        for seed in (3, 9, 21):
            traj, obs, _ = self.setup_pair(seed)
            H, F, _ = quadratize(traj, [obs], SLICE_TIMES)
            grad = H @ stacked_control(traj) + F
            fd = control_gradient_fd(traj, [obs], SLICE_TIMES)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / scale < 1e-4

    def test_far_obstacle_vanishes(self):
        traj, _, _ = self.setup_pair(2)
        H, F, c0 = quadratize(traj, [Circle([100.0, 100.0], 1.0)], SLICE_TIMES)
        assert np.linalg.norm(H) < 1e-8
        assert np.linalg.norm(F) < 1e-8

    def test_hessian_psd(self):
        for seed in range(6):
            traj, obs, _ = self.setup_pair(seed)
            H, _, _ = quadratize(traj, [obs], SLICE_TIMES)
            assert np.linalg.eigvalsh(H).min() >= -1e-9

    def test_polygon_obstacle_gradient(self):
        rng = np.random.default_rng(31)
        traj = random_trajectory(rng)
        obs = Square([[0.5, -0.5], [1.5, -0.5], [1.5, 0.5], [0.5, 0.5]])
        H, F, _ = quadratize(traj, [obs], SLICE_TIMES)
        grad = H @ stacked_control(traj) + F
        fd = control_gradient_fd(traj, [obs], SLICE_TIMES)
        assert np.linalg.norm(fd) > 0.0
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_node_hessian_is_psd_part_of_exact_hessian(self):
        # The node model's Hessian equals the finite-difference Hessian of
        # kernel(distance(p)) with its negative eigenvalues clamped to zero.
        rng = np.random.default_rng(17)
        h = 1e-4
        steps = [np.array(s, float) for s in ((h, 0), (0, h))]
        for shape in (Circle([0.2, -0.1], 0.6),
                      Square([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]),
                      Triangle([[0.0, 0.0], [1.0, 0.2], [0.3, 0.8]])):
            pts = rng.uniform(-1.5, 1.8, size=(400, 2))
            pts = pts[dist_many(shape, pts) > DISTANCE_FLOOR + 3 * h]
            _, _, H = planner._kernel_models(
                *own_distance_gradient(shape, pts))
            k = lambda p: collision_kernel(dist_many(shape, p))
            exact = np.empty((len(pts), 2, 2))
            for i, si in enumerate(steps):
                for j, sj in enumerate(steps):
                    exact[:, i, j] = (k(pts + si + sj) - k(pts + si - sj)
                                      - k(pts - si + sj) + k(pts - si - sj)) / (4 * h * h)
            ew, ev = np.linalg.eigh(0.5 * (exact + exact.transpose(0, 2, 1)))
            clamped = np.einsum("nik,nk,njk->nij", ev, np.clip(ew, 0.0, None), ev)
            err = np.linalg.norm(H - clamped, axis=(1, 2))
            assert np.all(err <= 1e-5 * np.linalg.norm(clamped, axis=(1, 2)) + 1e-12)

    def test_obstacles_sum_in_one_pass(self):
        # Several shapes of every kind, overlapping along the trajectory,
        # give the sum of their single-shape models, and the model still
        # reproduces the oracle at the seeds.
        rng = np.random.default_rng(41)
        for trial in range(10):
            traj = random_trajectory(rng, scale=1.0)
            n = 2 + trial % 9
            shapes = [shape_near(rng, k, traj.position(t)) for k, t in zip(
                rng.permutation(np.arange(n) % 4),
                rng.uniform(*traj.domain, size=n))]
            H, F, c0 = quadratize(traj, shapes, SLICE_TIMES)
            parts = [quadratize(traj, [s], SLICE_TIMES) for s in shapes]
            for got, k in ((H, 0), (F, 1), (c0, 2)):
                want = sum(part[k] for part in parts)
                assert np.linalg.norm(want) > 0.0
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            x0 = stacked_control(traj)
            want = collision_cost_closed_form(traj, shapes, SLICE_TIMES)
            assert 0.5 * x0 @ H @ x0 + F @ x0 + c0 == pytest.approx(want, rel=1e-9)


def stacked_end_cost(goal, row, q_final):
    """end_cost's per-axis block and rows as (H, F) in [Px; Py]."""
    B, f = end_cost(goal, row, q_final)
    assert B.shape == (len(row), len(row)) and f.shape == (2, len(row))
    return np.kron(np.eye(2), B), f.ravel()


class TestEndCost:
    def test_zero_weight(self):
        H, F = stacked_end_cost(np.array([1.0, 2.0]), np.ones(5), 0.0)
        assert not H.any() and not F.any()

    def test_pinned_at_goal_zero_gradient(self):
        layout = plan_knot_layout(0.0, 3.0, 1.0, 3)
        goal = np.array([1.5, -0.5])
        traj = constant_spline(layout, goal)
        row = position_map(layout, [layout.t_end])[0]
        H, F = stacked_end_cost(goal, row, 7.0)
        x0 = np.concatenate([traj.control[:, 0], traj.control[:, 1]])
        assert np.linalg.norm(H @ x0 + F) < 1e-10
        # Cost at the pinned point equals the dropped constant.
        assert 0.5 * x0 @ H @ x0 + F @ x0 == pytest.approx(-7.0 * goal @ goal)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        layout = plan_knot_layout(0.0, 3.0, 1.0, 3)
        control = rng.normal(size=(layout.m, 2))
        goal = rng.normal(size=2)
        row = position_map(layout, [layout.t_end])[0]
        H, F = stacked_end_cost(goal, row, 3.0)
        x0 = np.concatenate([control[:, 0], control[:, 1]])
        grad = H @ x0 + F

        def cost(x):
            c = np.column_stack([x[:layout.m], x[layout.m:]])
            p = row @ c
            return 3.0 * float((p - goal) @ (p - goal))

        h = 1e-6
        for i in range(len(x0)):
            e = np.zeros_like(x0)
            e[i] = h
            fd = (cost(x0 + e) - cost(x0 - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


def polytope(rows):
    """A slice's view over (normal, offset) rows, each divided by its
    normal's norm as every cut divides them."""
    normals, offsets = unit_rows(np.array([n for n, _ in rows], dtype=float),
                                 np.array([o for _, o in rows], dtype=float))
    return ConvexPolytope(normals, offsets)


def stacked_region(polytopes, tau=0.1):
    """Feasible SafeRegion with slice k's static and final planes those of
    polytopes[k], NaN-padded to the widest, bounding no shape."""
    n_slices = len(polytopes)
    counts = np.array([len(p) for p in polytopes])
    normals = np.full((n_slices, counts.max(), 2), np.nan)
    offsets = np.full((n_slices, counts.max()), np.nan)
    for k, p in enumerate(polytopes):
        normals[k, :len(p)] = p.normals
        offsets[k, :len(p)] = p.offsets
    stack = PlaneStack(normals, offsets, counts)
    return SafeRegion(t_rel=tau * np.arange(1, n_slices + 1),
                      seeds=np.zeros((n_slices, 2)), planes=stack, static=stack,
                      feasible=np.ones(n_slices, dtype=bool),
                      bounding=np.zeros((n_slices, 0), dtype=bool))


def wall_region(tau=0.1, n_slices=40, x_wall=2.0):
    planes = [([1.0, 0.0], x_wall), ([-1.0, 0.0], 20.0),
              ([0.0, 1.0], 20.0), ([0.0, -1.0], 20.0)]
    return stacked_region([polytope(planes)] * n_slices, tau)


def base_request(**kw):
    """A PlanRequest whose spec is an AgentSpec of the task keywords, with
    the order of initial_state and its position as the start."""
    defaults = dict(
        t_now=0.0,
        initial_state=np.array([[0.0, 0.0], [0.0, 0.0]]),
        goal=np.array([3.0, 0.0]),
        previous=None,
        goal_time=4.0,
        limits={1: (np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
                2: (np.array([-10.0, -10.0]), np.array([10.0, 10.0]))},
    )
    defaults.update(kw)
    task = {k: defaults.pop(k) for k in ("goal", "goal_time", "waypoints",
                                         "limits", "end_velocity")
            if k in defaults}
    n = len(defaults["initial_state"])
    if defaults["previous"] is None:
        layout = plan_knot_layout(defaults["t_now"], HORIZON, KNOT_SEGMENT,
                                  n + 1)
        defaults["previous"] = constant_spline(
            layout, defaults["initial_state"][0])
    spec = AgentSpec(start=defaults["initial_state"][0], order=n, **task)
    return PlanRequest(spec=spec, **defaults)


def cycle_layout(req):
    """The knot layout plan_with_fallback plans req on."""
    return plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT,
                            req.spec.order + 1, goal_time=req.spec.goal_time)


def moving_volume(shapes, previous, t_now=0.0):
    """The cycle's moving volume along previous, over a map of shapes that
    do not overlap (so the map keeps each as inserted)."""
    local_map = LocalMap()
    for s in shapes:
        local_map.insert(s)
    assert len(local_map) == len(shapes)
    return build_moving_volume(local_map, previous, t_now, HORIZON, TAU)


def dense_problem(req, layout):
    """The dense pass's QP: assemble_qp closed by the control-point limits."""
    problem = assemble_qp(req, layout)
    A, b = _limit_rows(req, layout, sampled=False)
    return QPProblem(H=problem.H, F=problem.F, A_eq=problem.A_eq,
                     b_eq=problem.b_eq,
                     A_in=np.concatenate([problem.A_in, A]),
                     b_in=np.concatenate([problem.b_in, b]))


class TestAssembleAndSolve:
    def test_free_space_reaches_goal(self):
        req = base_request()
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        assert np.linalg.norm(traj.position(4.0) - req.spec.goal) < 1e-3

    def test_matches_equality_only_kkt(self):
        # With inactive boxes the solution equals the unconstrained
        # equality-KKT solve of the same objective.
        req = base_request()
        layout = plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT, 3,
                                  goal_time=req.spec.goal_time)
        qp = dense_problem(req, layout)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        nvar = len(qp.F)
        neq = len(qp.b_eq)
        K = np.zeros((nvar + neq, nvar + neq))
        K[:nvar, :nvar] = qp.H
        K[:nvar, nvar:] = qp.A_eq.T
        K[nvar:, :nvar] = qp.A_eq
        rhs = np.concatenate([-qp.F, qp.b_eq])
        direct = np.linalg.solve(K, rhs)[:nvar]
        assert np.allclose(sol.x, direct, atol=1e-6)

    def test_goal_behind_wall_clamps_to_wall(self):
        req = base_request(goal=np.array([5.0, 0.0]), regions=wall_region())
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        end = traj.position(4.0)
        assert abs(end[0] - 2.0) < 1e-4
        assert abs(end[1]) < 1e-3

    def test_region_compliance_at_slice_times(self):
        req = base_request(goal=np.array([5.0, 0.0]), regions=wall_region())
        traj, _ = plan_with_fallback(req)
        for sl in req.regions.slices:
            p = traj.position(req.t_now + sl.t_rel)
            assert np.max(sl.polytope.normals @ p - sl.polytope.offsets) <= 1e-6

    def test_waypoint_interpolated(self):
        wp = (1.5, np.array([1.0, 0.5]))
        req = base_request(waypoints=[wp])
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        assert np.linalg.norm(traj.position(1.5) - wp[1]) < 1e-6

    def test_out_of_horizon_waypoint_deferred(self):
        wp = (9.5, np.array([50.0, 50.0]))
        req = base_request(waypoints=[wp])
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        # The far waypoint must not bend this cycle's spline to reach it.
        assert np.linalg.norm(traj.position(4.0) - req.spec.goal) < 1e-3

    def test_continuity_with_moving_start(self):
        req = base_request(
            initial_state=np.array([[0.5, -0.2], [0.8, 0.3]]))
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        assert report.continuity_error <= 1e-6
        assert np.allclose(traj.position(0.0), [0.5, -0.2], atol=1e-6)
        assert np.allclose(traj.derivative_value(0.0, 1), [0.8, 0.3], atol=1e-6)

    def test_minimum_derivative_degeneracy(self, monkeypatch):
        # Only the order-n energy active: the optimum coasts on the initial
        # straight line, the analytic minimum-acceleration trajectory.
        monkeypatch.setattr(planner, "Q_N", 1.0)
        for name in ("Q_NM1", "Q_FINAL", "Q_FINAL_VEL", "Q_OBS"):
            monkeypatch.setattr(planner, name, 0.0)
        req = base_request(
            initial_state=np.array([[1.0, 2.0], [0.5, -0.3]]),
            goal=np.array([3.0, 0.8]), goal_time=2 * HORIZON, limits={})
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        lo, hi = traj.domain
        for t in np.linspace(lo, hi, 9):
            want = np.array([1.0, 2.0]) + np.array([0.5, -0.3]) * (t - lo)
            assert np.allclose(traj.position(t), want, atol=1e-6)

    def test_mismatched_layout_degree_rejected(self):
        req = base_request()
        layout = plan_knot_layout(0.0, 4.0, 1.0, 5)
        with pytest.raises(ValueError):
            assemble_qp(req, layout)

    def test_admitted_shapes_call_no_geometry_kernel(self, monkeypatch):
        # The obstacle cost reads what the moving volume measured: the
        # ladder groups no shapes and runs no distance pass of its own.
        shapes = [Circle([1.0, 0.5], 0.3),
                  Square([[1.2, -1.0], [1.8, -1.0], [1.8, -0.4], [1.2, -0.4]])]
        free = base_request(regions=wall_region())
        volume = moving_volume(shapes, free.previous)
        near = admit_obstacles(volume.shapes, build_safe_regions(
            volume, [], Circle([0.0, 0.0], 0.15), 0.0))
        assert near == [0, 1]
        req = base_request(regions=wall_region(), volume=volume,
                           near_obstacles=near)

        def kernel(*args):
            raise AssertionError("a geometry kernel ran")

        for group in (geometry.CircleGroup, geometry.PolygonGroup):
            monkeypatch.setattr(group, "distance_gradient", kernel)
        monkeypatch.setattr(geometry, "shape_groups", kernel)
        monkeypatch.setattr(planner, "shape_groups", kernel, raising=False)
        _, report = plan_with_fallback(req)
        assert report.status == "optimal"
        layout = cycle_layout(req)
        assert not np.array_equal(assemble_qp(req, layout).H,
                                  assemble_qp(free, layout).H)

    def test_qp_independent_of_earlier_requests(self):
        # The Gram depends only on the knot topology, so a request at
        # t = 0.16 on the same topology cannot change the QP at t = 0.
        def qp_at(t_now):
            req = base_request(t_now=t_now, goal_time=t_now + HORIZON,
                               regions=wall_region())
            layout = plan_knot_layout(t_now, HORIZON, KNOT_SEGMENT, 3,
                                      goal_time=req.spec.goal_time)
            return layout.m, assemble_qp(req, layout)

        derivative_gram.cache_clear()
        m, alone = qp_at(0.0)
        derivative_gram.cache_clear()
        assert qp_at(0.16)[0] == m
        after = qp_at(0.0)[1]
        for name in ("H", "F", "A_in"):
            a, b = getattr(alone, name), getattr(after, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_second_assembly_reads_both_grams_from_the_memo(self):
        # The smoothing block is built on every call from the order-n and
        # order-(n-1) Grams, which the second call on a topology finds in
        # derivative_gram's memo.
        req = base_request(regions=wall_region())
        layout = plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT, 3,
                                  goal_time=req.spec.goal_time)
        assemble_qp(req, layout)
        before = derivative_gram.cache_info()
        assemble_qp(req, layout)
        after = derivative_gram.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (
            2, 0)


class TestFallbackLadder:
    def test_dense_infeasible_relaxed_succeeds(self):
        # A waypoint needing 0.72 m in 1 s from rest under a 1 m/s cap: the
        # speed profile must spike toward the cap mid-segment, which the
        # conservative control-point rows forbid but the sampled rows allow.
        req = base_request(
            waypoints=[(1.0, np.array([0.72, 0.0]))],
            limits={1: (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))})
        traj, report = plan_with_fallback(req)
        assert report.status == "relaxed"
        assert np.linalg.norm(traj.position(1.0) - [0.72, 0.0]) < 1e-6
        # Sampled speeds respect the cap on the enforcement grid.
        for t in np.arange(0.0, 4.01, 0.1):
            v = traj.derivative_value(t, 1)
            assert np.all(np.abs(v) <= 1.0 + 1e-6)
        # Each derivative row d gives d x <= hi, -d x <= -lo, d y <= hi,
        # -d y <= -lo, in that order: the dense rows at the control points,
        # the relaxed rows at the sampling grid.
        layout = cycle_layout(req)
        m = layout.m
        for sampled, D in (
                (False, difference_matrix(m, layout.dt, 1)),
                (True, derivative_map(
                    layout, TAU * np.arange(round(layout.t_end / TAU) + 1),
                    1))):
            A, b = _limit_rows(req, layout, sampled)
            assert A.shape == (4 * len(D), 2 * m)
            for k, (sign, axis) in enumerate(
                    [(1, 0), (-1, 0), (1, 1), (-1, 1)]):
                block = np.zeros((len(D), 2 * m))
                block[:, axis * m:(axis + 1) * m] = sign * D
                assert np.array_equal(A[k::4], block)
            assert np.array_equal(b, np.ones(4 * len(D)))

    def test_no_limits_give_no_limit_rows(self):
        # Without limits each pass gets no limit rows.
        req = base_request(limits={})
        layout = plan_knot_layout(0.0, HORIZON, KNOT_SEGMENT,
                                  req.spec.order + 1)
        for sampled in (False, True):
            A, b = _limit_rows(req, layout, sampled)
            assert A.shape == (0, 2 * layout.m) and b.shape == (0,)

    def test_relaxed_samples_are_the_logged_grid(self, monkeypatch):
        # Whatever tick a cycle starts on, and with the knot grid extended
        # at the goal stamp or not, the relaxed rows sample every order at
        # the integer multiples of TAU in [t_start, t_end] and nowhere else,
        # as the same doubles as the logged table's times (np.arange(n) *
        # TAU in the harness): every logged instant inside a plan's horizon
        # is a constrained one.
        seen = []

        def recording(layout, times, order):
            seen.append(times)
            return derivative_map(layout, times, order)

        monkeypatch.setattr(planner, "derivative_map", recording)
        logged = np.arange(300) * TAU
        for tick in range(0, 500, 3):
            t_now = tick / 25.0
            for goal_time in (4.0, t_now + HORIZON):
                req = base_request(t_now=t_now, goal_time=goal_time)
                layout = cycle_layout(req)
                seen.clear()
                _limit_rows(req, layout, sampled=True)
                assert len(seen) == len(req.limit_b) == 2
                # The logged times in the plan's domain: the integer
                # multiples of TAU there.
                held = logged[(logged >= layout.t_start - 1e-9)
                              & (logged <= layout.t_end + 1e-9)]
                assert len(held) >= 40
                for times in seen:
                    assert np.array_equal(times, held)

    @pytest.mark.parametrize("dt, order", [(1.0, 1), (1.0, 2), (0.5, 4)])
    def test_control_point_rows_cached_read_only(self, dt, order):
        layout = plan_knot_layout(0.0, HORIZON, dt, order + 1)
        m = layout.m
        req = base_request(initial_state=np.zeros((order, 2)),
                           limits={order: (-np.ones(2), 2 * np.ones(2))})
        A, b = _limit_rows(req, layout, sampled=False)
        assert _limit_rows(req, layout, sampled=False)[0] is A
        assert not A.flags.writeable and not b.flags.writeable
        # Byte-equal to a fresh build from an uncached difference matrix.
        D = difference_matrix.__wrapped__(m, dt, order)
        rows = np.zeros((len(D), 2, 2 * m))
        rows[:, 0, :m] = D
        rows[:, 1, m:] = D
        fresh = np.stack([rows, -rows], axis=2).reshape(-1, 2 * m)
        assert A.shape == (4 * (m - order), 2 * m)
        assert A.tobytes() == fresh.tobytes()
        assert b.tobytes() == np.tile([2.0, 1.0, 2.0, 1.0], len(D)).tobytes()
        # A pass appends a copy: writing its rows leaves the cache alone.
        problem = QPProblem(H=np.eye(2 * m), F=np.zeros(2 * m)).with_rows(A, b)
        problem.A_in[:] = 0.0
        problem.b_in[:] = 0.0
        assert A.tobytes() == fresh.tobytes()
        assert b.tobytes() == np.tile([2.0, 1.0, 2.0, 1.0], len(D)).tobytes()

    def test_cached_block_is_checked_once(self, monkeypatch):
        # Three dense-then-relaxed ladders on one topology: the block is
        # checked when _limit_block builds it and never on a dense pass,
        # while each relaxed pass checks its sampled rows.
        checked = []
        real = qp._checked_rows

        def spy(A, b, n, side):
            checked.append(A)
            return real(A, b, n, side)

        monkeypatch.setattr(qp, "_checked_rows", spy)
        monkeypatch.setattr(planner, "_checked_rows", spy)
        planner._limit_block.cache_clear()
        req = base_request(
            waypoints=[(1.0, np.array([0.72, 0.0]))],
            limits={1: (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))})
        for _ in range(3):
            assert plan_with_fallback(req)[1].status == "relaxed"
        layout = cycle_layout(req)
        A, _ = _limit_rows(req, layout, sampled=False)
        assert sum(a is A for a in checked) == 1
        n_sampled = len(_limit_rows(req, layout, sampled=True)[0])
        assert sum(len(a) == n_sampled and a is not A
                   for a in checked) == 3

    def test_relaxed_pass_swaps_only_limit_rows(self, monkeypatch):
        # The setting above, inside a region: the QP is assembled once and
        # the relaxed pass differs from the dense one only in the limit
        # rows that close A_in.
        problems, assembled = [], []
        real_solve, real_assemble = planner.solve_qp, planner.assemble_qp

        def solve(problem):
            problems.append(problem)
            return real_solve(problem)

        def assemble(*args):
            assembled.append(args)
            return real_assemble(*args)

        monkeypatch.setattr(planner, "solve_qp", solve)
        monkeypatch.setattr(planner, "assemble_qp", assemble)
        region = wall_region(x_wall=5.0)
        req = base_request(
            regions=region,
            waypoints=[(1.0, np.array([0.72, 0.0]))],
            limits={1: (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))})
        _, report = plan_with_fallback(req)
        assert report.status == "relaxed"
        assert len(assembled) == 1
        dense, relaxed = problems
        for name in ("H", "F", "A_eq", "b_eq"):
            a, b = getattr(dense, name), getattr(relaxed, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        k = int(region.planes.live().sum())
        for name in ("A_in", "b_in"):
            a, b = getattr(dense, name)[:k], getattr(relaxed, name)[:k]
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for problem, sampled in ((dense, False), (relaxed, True)):
            A, b = _limit_rows(req, cycle_layout(req), sampled)
            assert problem.A_in[k:].tobytes() == A.tobytes()
            assert problem.b_in[k:].tobytes() == b.tobytes()

    def test_feasible_problem_identical_to_plain_solve(self):
        req = base_request()
        traj, report = plan_with_fallback(req)
        assert report.status == "optimal"
        sol = solve_qp(dense_problem(req, cycle_layout(req)))
        assert np.array_equal(
            np.concatenate([traj.control[:, 0], traj.control[:, 1]]), sol.x)

    @pytest.mark.parametrize("status, task", [
        ("optimal", {}),
        ("relaxed", dict(
            waypoints=[(1.0, np.array([0.72, 0.0]))],
            limits={1: (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))}))])
    def test_a_repeated_region_row_plans_as_without_it(self, status, task):
        # Region rows are distinct by construction; a repeat of the live
        # wall row would still change nothing: the dual loop adds the
        # lower-index twin, and the copy then stays within tolerance.
        wall = [([1.0, 0.0], 2.0), ([-1.0, 0.0], 20.0),
                ([0.0, 1.0], 20.0), ([0.0, -1.0], 20.0)]
        (a, report_a), (b, report_b) = (
            plan_with_fallback(base_request(
                regions=stacked_region([polytope(rows)] * 40), **task))
            for rows in (wall, wall + wall[:1]))
        assert report_a.status == report_b.status == status
        assert report_a.iterations == report_b.iterations > 0
        assert abs(a.position(4.0)[0] - 2.0) < 1e-4
        assert np.abs(b.control - a.control).max() <= 1e-12

    def test_walled_in_keeps_previous(self):
        region = wall_region()
        region.feasible[:] = False
        req = base_request(regions=region)
        traj, report = plan_with_fallback(req)
        assert report.status == "fallback"
        assert traj is req.previous

    def test_impossible_both_passes_keeps_previous(self):
        # A waypoint pinned outside the region wall conflicts with the
        # region rows, which both passes keep.
        req = base_request(regions=wall_region(),
                           waypoints=[(1.0, np.array([10.0, 0.0]))])
        traj, report = plan_with_fallback(req)
        assert report.status == "fallback"
        assert traj is req.previous

    def test_probe_certifies_region_rows_alone(self, monkeypatch):
        # The waypoint beyond the wall conflicts with the region rows alone:
        # after a fallback, one solve of the QP without limit rows proves
        # it; without the flag both passes run and keep the same plan.
        req = base_request(regions=wall_region(),
                           waypoints=[(1.0, np.array([10.0, 0.0]))])
        probe = assemble_qp(req, cycle_layout(req))
        (traj, report), passes = traced_plan(
            replace(req, after_fallback=True), monkeypatch)
        (problem, sol), = passes
        assert problem_key(problem) == problem_key(probe)
        assert sol.status == "infeasible"
        assert report.status == "fallback" and traj is req.previous
        assert report.iterations == sol.iterations
        (traj, report), passes = traced_plan(req, monkeypatch)
        assert len(passes) == 2
        assert report.status == "fallback" and traj is req.previous

    @pytest.mark.parametrize("waypoint, status", [
        ([0.72, 0.0], "relaxed"), ([10.0, 0.0], "fallback")])
    def test_a_maxiter_probe_certifies_nothing(self, waypoint, status,
                                               monkeypatch):
        # A probe that hits the iteration cap proves nothing, whatever the
        # region rows are: the ladder runs after it and reports as without
        # the flag.
        solved = []

        def capped(problem):
            solved.append(solve_qp(problem))
            if len(solved) == 1:
                return replace(solved[0], status="maxiter")
            return solved[-1]

        req = base_request(
            regions=wall_region(), waypoints=[(1.0, np.array(waypoint))],
            limits={1: (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))})
        want_passes = []
        want = old_plan_with_fallback(req, want_passes)
        monkeypatch.setattr(planner, "solve_qp", capped)
        got = plan_with_fallback(replace(req, after_fallback=True))
        assert len(solved) == 3
        assert got[1].status == status == want[1].status
        assert plan_key(*got) == plan_key(*want) and len(want_passes) == 2

    @pytest.mark.parametrize("waypoint", [[1.0, 0.5], [10.0, 0.0]])
    def test_no_limits_no_probe(self, waypoint, monkeypatch):
        # Without limits the dense pass is the probe's QP: it solves once.
        req = base_request(limits={}, regions=wall_region(),
                           waypoints=[(1.0, np.array(waypoint))])
        got, passes = traced_plan(replace(req, after_fallback=True),
                                  monkeypatch)
        assert len(passes) == 1
        assert plan_key(*got) == plan_key(*plan_with_fallback(req))


class TestHelpers:
    def test_admit_obstacles_filters_far_shapes(self):
        # The plan rests at the origin.  A disk ahead bounds every slice;
        # one behind it is kept out by its row and one 30 m off lies in no
        # slice's window, so neither reaches the obstacle cost.
        prev = base_request().previous
        near, behind = Circle([1.0, 0.0], 0.5), Circle([3.0, 0.0], 0.5)
        local_map = LocalMap()
        for s in (behind, Circle([30.0, 0.0], 0.5), near):
            local_map.insert(s)
        volume = build_moving_volume(local_map, prev, 0.0, HORIZON, TAU)
        region = build_safe_regions(volume, [], Circle([0.0, 0.0], 0.15), 0.0)
        assert len(volume.shapes) == 2
        assert admit_obstacles(volume.shapes, region) == [
            volume.shapes.index(near)]
        assert region.bounding.sum(axis=0).tolist() == [
            40 * (s is near) for s in volume.shapes]

    def test_quadratization_contracts_on_repeats(self, monkeypatch):
        # Re-expanding around the latest solution in a frozen world shrinks
        # the step between successive solutions.
        monkeypatch.setattr(planner, "Q_FINAL", 50.0)
        obs = Circle([1.5, 0.05], 0.4)
        prev = base_request().previous
        controls = []
        for _ in range(3):
            req = base_request(goal=np.array([3.0, 0.0]), previous=prev,
                               volume=moving_volume([obs], prev),
                               near_obstacles=[0])
            traj, report = plan_with_fallback(req)
            assert report.status == "optimal"
            controls.append(traj.control.copy())
            prev = traj
        step1 = np.linalg.norm(controls[1] - controls[0])
        step2 = np.linalg.norm(controls[2] - controls[1])
        assert step2 <= step1 + 1e-9


# --- the parent's ladder, kept as the oracle of the cached limit block, the
# append path and the in-place dual loop ------------------------------------
#
# assemble_qp, _box_rows, _limit_rows, plan_with_fallback, _factor and
# solve_qp as they were before the limit block was cached, the passes'
# rows appended through QPProblem.with_rows and the dual loop rewritten in
# place; verbatim but for the names, the task and order read from req.spec
# (the request held copies of them), the control-point rows built uncached
# (the cache held exactly these), limit_b from old_limit_b, the obstacle
# cost read from the moving volume as assemble_qp now reads it, no layout
# in the report, and the passes' problems recorded.


def old_limit_b(req):
    """PlanRequest.limit_b as it was: order -> hi_x, -lo_x, hi_y, -lo_y."""
    limit_b = {}
    for order, (lo, hi) in sorted(req.spec.limits.items()):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        limit_b[order] = np.stack([hi[:2], -lo[:2]], axis=1).ravel()
    return limit_b


def old_assemble_qp(req, layout):
    """Build the cycle QP in the stacked control points [Px; Py].

    A_in holds only the safe-region rows; plan_with_fallback closes it with
    each pass's limit rows.  The obstacle cost is quadratized at the
    volume's slice seeds.  Raises AllSlicesInfeasible when regions exist
    but no slice is usable.
    """
    m = layout.m
    n = req.spec.order
    if layout.degree != n + 1:
        raise ValueError(f"layout degree {layout.degree} does not match order {n}")

    # Goal pull at the horizon end, and again at a pin instant: the goal
    # stamp while it is still ahead, then a point two knot segments out once
    # it has passed, so the spline keeps station at the goal instead of
    # gliding through.  The pin also pulls the velocity toward the requested
    # end velocity (rest by default, and rest after the stamp), damping
    # arrival speed.  Everything stays soft so a blocked goal cannot
    # deadlock the solve.
    pulls = [(req.spec.goal, position_map(layout, layout.t_end), Q_FINAL)]
    if req.spec.goal_time is not None:
        ahead = req.spec.goal_time > layout.t_start + 1e-9
        t_pin = (req.spec.goal_time if ahead
                 else layout.t_start + PIN_LEAD_SEGMENTS * layout.dt)
        if t_pin <= layout.t_end - 1e-9:
            v_des = np.zeros(2)
            if req.spec.end_velocity is not None and ahead:
                v_des = req.spec.end_velocity
            pulls += [(req.spec.goal, position_map(layout, t_pin), Q_FINAL),
                      (v_des, derivative_map(layout, t_pin, 1), Q_FINAL_VEL)]
    topology = (layout.degree, m, layout.dt)
    block = 2.0 * (Q_N * derivative_gram(*topology, n)
                   + Q_NM1 * derivative_gram(*topology, n - 1))
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
    for t_wp, p_wp in req.spec.waypoints:
        if layout.t_start + 1e-9 < t_wp <= layout.t_end + 1e-9:
            rows.append(position_map(layout, t_wp))
            values.append(np.asarray(p_wp, dtype=float))
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
        R = position_map(layout, times[usable])[:, None, :]
        normals = regions.planes.normals[usable]
        live = regions.planes.live()[usable]
        region_rows = np.concatenate([normals[..., :1] * R,
                                      normals[..., 1:] * R], axis=2)[live]
        region_b = regions.planes.offsets[usable][live]

    return QPProblem(H=H, F=F, A_eq=A_eq, b_eq=np.ravel(values),
                     A_in=region_rows, b_in=region_b)


def old_box_rows(D):
    """Four rows per row d of D over the stacked [Px; Py]: d x, -d x, d y,
    -d y, in that order."""
    m = D.shape[1]
    rows = np.zeros((len(D), 2, 2 * m))
    rows[:, 0, :m] = D
    rows[:, 1, m:] = D
    return np.stack([rows, -rows], axis=2).reshape(-1, 2 * m)


def old_limit_rows(req, layout, sampled):
    """Derivative box-limit rows (A, b) of req.spec.limits, A x <= b; none
    without limits.

    Each row d of an order's derivative map gives four rows: d x <= hi,
    -d x <= -lo, d y <= hi, -d y <= -lo.  The control-point rows
    (sampled=False) guarantee the bound at every instant (convex hull).  The
    sampled rows check it at the multiples of TAU, the grid the regions
    use, trading the guarantee between samples for feasibility when the
    convex-hull rows are too conservative.  The samples sit on absolute
    multiples of the step so every logged state lands on a constrained
    instant no matter when the cycle started.
    """
    m = layout.m
    if not old_limit_b(req):
        return np.zeros((0, 2 * m)), np.zeros(0)
    A, b = [], []
    for order, pattern in old_limit_b(req).items():
        if sampled:
            first = math.ceil(layout.t_start / TAU - 1e-9)
            last = math.floor(layout.t_end / TAU + 1e-9)
            rows = old_box_rows(derivative_map(
                layout, TAU * np.arange(first, last + 1), order))
        else:
            rows = old_box_rows(difference_matrix(m, layout.dt, order))
        A.append(rows)
        b.append(np.tile(pattern, len(rows) // 4))
    return np.concatenate(A), np.concatenate(b)


def old_plan_with_fallback(req, passes):
    """One replanning cycle: dense solve, relaxed retry, or keep the old plan.

    Returns (trajectory, report).  The QP is assembled once, and each pass
    closes its A_in with its own limit rows.  The dense pass enforces the
    box limits on the derivative control points; if it is infeasible, the
    relaxed pass samples them at the multiples of TAU instead; if that
    also fails the previous trajectory is returned unchanged with status
    'fallback'.
    """
    t_begin = time.perf_counter()
    layout = plan_knot_layout(req.t_now, HORIZON, KNOT_SEGMENT,
                              req.spec.order + 1,
                              goal_time=req.spec.goal_time)

    def finish(traj, status, sol=None):
        elapsed = (time.perf_counter() - t_begin) * 1e6
        err = 0.0
        for k in range(req.spec.order):
            have = traj.derivative_value(traj.clamp_time(req.t_now), k)
            err = max(err, float(np.max(np.abs(have - req.initial_state[k]))))
        return traj, PlanReport(
            status=status,
            iterations=sol.iterations if sol else 0,
            kkt_residual=sol.stationarity if sol else np.nan,
            solve_time_us=elapsed,
            continuity_error=err,
        )

    try:
        problem = old_assemble_qp(req, layout)
    except AllSlicesInfeasible:
        return finish(req.previous, "fallback")
    for status, sampled in (("optimal", False), ("relaxed", True)):
        A, b = old_limit_rows(req, layout, sampled)
        passes.append(replace(problem,
                              A_in=np.concatenate([problem.A_in, A]),
                              b_in=np.concatenate([problem.b_in, b])))
        sol = old_solve_qp(passes[-1])
        if sol.status == "optimal":
            return finish(TrajectorySpline.from_layout(layout, _unstacked(sol.x)),
                          status, sol)
    return finish(req.previous, "fallback", sol)


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def old_factor(H, A_eq, shape):
    """(U, S, Vt, rank, Z, M) of the H and A_eq bytes of shape (n, k): the
    SVD A_eq = U S Vt, its rank, the null-space basis Z and M with
    M'HM = I on it.  Every array is read-only."""
    n, k = shape
    H = np.frombuffer(H).reshape(n, n)
    U, S, Vt = np.linalg.svd(np.frombuffer(A_eq).reshape(k, n))
    rank = int(np.sum(S > _RANK_TOL * S.max(initial=0.0)))
    Z = Vt[rank:].T
    L = np.linalg.cholesky(Z.T @ H @ Z)
    M = np.linalg.solve(L, Z.T).T            # x = x0 + M w, M'HM = I
    for a in (U, S, Vt, Z, M):
        a.setflags(write=False)
    return U, S, Vt, rank, Z, M


def old_solve_qp(problem):
    """Solve a convex QP; see QPProblem for the form and the contract.

    Status is 'optimal', 'infeasible' (inconsistent equalities, or a
    certificate from the dual iteration), or 'maxiter' if the internal
    guard of 50 + 10 (n + rows) steps runs out.
    """
    n = problem.n
    G, h = problem.A_in, problem.b_in
    duals = np.zeros(len(G))

    U, S, Vt, rank, Z, M = old_factor(problem.H.tobytes(),
                                      problem.A_eq.tobytes(),
                                      (n, len(problem.A_eq)))
    x0 = Vt[:rank].T @ ((U[:, :rank].T @ problem.b_eq) / S[:rank])
    if (np.abs(problem.A_eq @ x0 - problem.b_eq) > _EQ_TOL).any():
        return QPSolution(x=x0, status="infeasible", iterations=0,
                          stationarity=np.inf, duals_in=duals)
    w = -M.T @ (problem.H @ x0 + problem.F)
    B = G @ M
    d = h - G @ x0
    tol = _VIOL_TOL * (1.0 + np.abs(h).max(initial=0.0))
    norms = np.sqrt(np.square(B).sum(axis=1))
    norms[norms == 0.0] = 1.0

    # J (orthonormal) and Rinv = R^-1 stacked, so that one rotation of
    # their shared columns moves both; u holds the active multipliers as
    # Python floats.
    p = B.shape[1]
    JR = np.zeros((2 * p, p))
    J, Rinv = JR[:p], JR[p:]
    J[:] = np.eye(p)
    R = np.zeros((p, p))
    u = []
    active, j = [], None
    status, it, max_iter = "maxiter", 0, 50 + 10 * (n + len(G))
    while True:
        if j is None:
            viol = B @ w - d
            viol[active] = -np.inf
            if (viol <= tol).all():
                status = "optimal"
                break
            j = int(np.where(viol > tol, viol / norms, -np.inf).argmax())
            b_j, d_j, norm_j = B[j], float(d[j]), float(norms[j])
            t_plus = 0.0
        if it == max_iter:
            break
        it += 1
        # Path that raises row j's multiplier t_plus while the active rows
        # stay tight: w moves along z and the active multipliers along r.
        q = len(active)
        v = b_j @ J
        v_free = v[q:]
        z = J[:, q:] @ -v_free
        r = Rinv[:q, :q] @ -v[:q]
        r_list = r.tolist()
        # Ratio test, as argmin over u / -r where r < 0 (else inf): the
        # first minimum wins, and a NaN ratio wins outright.
        drop, t_dual = 0, math.inf
        for i, r_i in enumerate(r_list):
            if r_i < 0.0:
                ratio = u[i] / -r_i
                if ratio < t_dual:
                    drop, t_dual = i, ratio
                elif ratio != ratio:
                    drop, t_dual = i, ratio
                    break
        z_norm = math.sqrt(v_free @ v_free)
        full = z_norm > _ZERO_STEP * norm_j
        if not full and t_dual == math.inf:
            status = "infeasible"
            break
        t_primal = (float(b_j @ w) - d_j) / z_norm**2 if full else math.inf
        t = min(t_primal, t_dual)
        if full:
            w = w + t * z
        # Clamp as np.maximum(., 0.0) does: -0.0 becomes 0.0, NaN stays.
        for i, r_i in enumerate(r_list):
            u_i = u[i] + t * r_i
            u[i] = u_i if u_i > 0.0 or u_i != u_i else 0.0
        t_plus += t
        if t_primal <= t_dual:
            # Reflect v[q:] onto alpha e_1: J[:, q] joins the active span.
            alpha = -math.copysign(z_norm, v[q])
            house = v_free.copy()
            house[0] -= alpha
            J[:, q:] -= ((J[:, q:] @ house)[:, None]
                         * (house / (z_norm**2 - alpha * v[q]))[None, :])
            R[:q, q] = v[:q]
            R[q, q] = alpha
            Rinv[:q, q] = r / alpha
            Rinv[q, q] = 1.0 / alpha
            u.append(t_plus)
            active.append(j)
            j = None
        else:
            # Delete the row's column of R and row of R^-1, then rotate the
            # Hessenberg remainder of R back to upper-triangular form.
            del active[drop], u[drop]
            R[:, drop:q - 1] = R[:, drop + 1:q]
            Rinv[drop:q - 1] = Rinv[drop + 1:q]
            for i in range(drop, q - 1):
                c, s = R[i, i], R[i + 1, i]
                rot = np.array([[c, s], [-s, c]]) / math.hypot(c, s)
                R[i:i + 2, i:q - 1] = rot @ R[i:i + 2, i:q - 1]
                JR[:, i:i + 2] = JR[:, i:i + 2] @ rot.T
            R[q - 1] = R[:, q - 1] = Rinv[q - 1] = Rinv[:, q - 1] = 0.0

    x = x0 + M @ w
    duals[active] = u
    stationarity = np.inf
    if status == "optimal":
        g = problem.H @ x + problem.F + G[active].T @ np.array(u)
        stationarity = float(np.abs(Z @ (Z.T @ g)).max())
    return QPSolution(x=x, status=status, iterations=it,
                      stationarity=stationarity, duals_in=duals,
                      working_set=active)


# --- the ladder against its oracle ------------------------------------------

# Short closed-loop windows whose cycles reach every status: antipodal has
# optimal, relaxed and fallback cycles, intersection relaxed retries of
# fourth-order agents, unstructured obstacles and certified infeasibility.
PARITY_WINDOWS = {"antipodal": 1.2, "intersection": 0.8, "unstructured": 0.8}

# The memos a plan reads, emptied for a cold start.
PLAN_MEMOS = (bspline._memo_basis, bspline.difference_matrix,
              bspline.derivative_gram, qp._factor, planner._limit_block,
              old_factor)


@pytest.fixture(scope="module")
def window_requests():
    """Every cycle's PlanRequest of each parity window, copied as the
    closed loop made it."""
    recorded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, duration in PARITY_WINDOWS.items():
            requests = recorded[name] = []

            def record(req, requests=requests):
                requests.append(copy.deepcopy(req))
                return plan_with_fallback(req)

            mp.setattr(runtime, "plan_with_fallback", record)
            run_scenario(builtin_scenario(name, duration=duration))
    return recorded


def problem_key(p):
    return tuple((name, getattr(p, name).shape, getattr(p, name).tobytes())
                 for name in ("H", "F", "A_eq", "b_eq", "A_in", "b_in"))


def solution_key(sol):
    return (sol.x.tobytes(), sol.duals_in.tobytes(), list(sol.working_set),
            sol.iterations, sol.status, repr(sol.stationarity))


def plan_key(traj, report):
    return (traj.control.tobytes(), report.status, report.iterations,
            repr(report.kkt_residual), repr(report.continuity_error))


def traced_plan(req, monkeypatch):
    """plan_with_fallback(req) with the problem and solution of each pass."""
    passes = []

    def solve(problem):
        passes.append((problem, solve_qp(problem)))
        return passes[-1][1]

    monkeypatch.setattr(planner, "solve_qp", solve)
    try:
        return plan_with_fallback(req), passes
    finally:
        monkeypatch.setattr(planner, "solve_qp", solve_qp)


class TestLadderParity:
    """The cached limit block, the append path and the in-place dual loop
    give every pass the parent's problem, bytes and all, and every cycle
    the parent's solutions and report, from cold memos and warm ones.  A
    cycle after a fallback may end at its probe only where the parent's
    ladder falls back."""

    @pytest.mark.parametrize("name", sorted(PARITY_WINDOWS))
    def test_recorded_cycles_match_the_parent(self, name, window_requests,
                                              monkeypatch):
        requests = window_requests[name]
        statuses = set()
        for memo in PLAN_MEMOS:
            memo.cache_clear()
        for start in ("cold", "warm"):
            for req in requests:
                req = replace(req, after_fallback=False)
                want_passes = []
                want = old_plan_with_fallback(req, want_passes)
                got, got_passes = traced_plan(req, monkeypatch)
                assert plan_key(*got) == plan_key(*want), start
                assert len(got_passes) == len(want_passes)
                for (problem, sol), old in zip(got_passes, want_passes):
                    assert problem_key(problem) == problem_key(old), start
                    assert solution_key(sol) == solution_key(
                        old_solve_qp(old)), start
                statuses.add(got[1].status)
        assert planner._limit_block.cache_info().hits > 0
        if name == "antipodal":
            assert statuses == {"optimal", "relaxed", "fallback"}

    def test_probe_certifies_only_parent_fallbacks(self, window_requests,
                                                   monkeypatch):
        # Every recorded cycle after a fallback: a certified one takes one
        # solve of a QP that HiGHS finds infeasible, and the parent's ladder
        # falls back with the same report but the iterations; any other
        # runs the parent's passes after its probe, byte for byte.
        kinds = set()
        for name in sorted(PARITY_WINDOWS):
            for req in window_requests[name]:
                if not req.after_fallback:
                    continue
                want_passes = []
                want = old_plan_with_fallback(req, want_passes)
                got, got_passes = traced_plan(req, monkeypatch)
                (probe, sol), *passes = got_passes
                certified = sol.status == "infeasible"
                kinds.add(certified)
                if certified:
                    assert not passes and not lp_feasible(probe)
                    assert want[1].status == "fallback"
                    key, want_key = plan_key(*got), plan_key(*want)
                    assert key[:2] + key[3:] == want_key[:2] + want_key[3:]
                    assert key[2] == sol.iterations
                    continue
                assert plan_key(*got) == plan_key(*want)
                assert len(passes) == len(want_passes)
                for (problem, sol), old in zip(passes, want_passes):
                    assert problem_key(problem) == problem_key(old)
                    assert solution_key(sol) == solution_key(old_solve_qp(old))
        assert kinds == {True, False}

    def test_no_limits_solve_once(self, monkeypatch):
        # Without limits both passes would solve the same QP, so the relaxed
        # one is skipped; the report is the one two solves gave.
        statuses = []
        for waypoint in ([1.0, 0.5], [10.0, 0.0]):
            req = base_request(limits={}, regions=wall_region(),
                               waypoints=[(1.0, np.array(waypoint))])
            (traj, report), passes = traced_plan(req, monkeypatch)
            assert len(passes) == 1
            want_passes = []
            want = old_plan_with_fallback(req, want_passes)
            assert plan_key(traj, report) == plan_key(*want)
            assert problem_key(passes[0][0]) == problem_key(want_passes[0])
            assert problem_key(want_passes[0]) == problem_key(want_passes[-1])
            statuses.append((report.status, len(want_passes)))
        assert statuses == [("optimal", 1), ("fallback", 2)]
