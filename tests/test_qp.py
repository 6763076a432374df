"""Active-set QP solver on randomized problems with KKT oracles.

Feasible problems are built around a known interior point so feasibility is
guaranteed by construction; optimality is checked through the KKT conditions
and by sampling feasible competitors, never by trusting the solver's own
bookkeeping.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from swarmplan import planner, qp
from swarmplan.bspline import plan_knot_layout
from swarmplan.qp import (_EQ_TOL, _RANK_TOL, _VIOL_TOL, _ZERO_STEP,
                        QPProblem, QPSolution, solve_qp)


def one_sided(A, lower, upper):
    """Rows lower <= A x <= upper as G x <= h: each row's upper side, then
    its lower side, where finite (the order the planner emits its limit
    rows in)."""
    keep = np.stack([np.isfinite(upper), np.isfinite(lower)], axis=1)
    return (np.stack([A, -A], axis=1)[keep],
            np.stack([upper, -lower], axis=1)[keep])


def random_feasible_qp(rng, n=None, with_eq=True, with_ineq=True):
    """QP with a known strictly feasible point.

    The inequalities are drawn two-sided, some sides open, and passed as
    their one-sided rows.
    """
    n = n or int(rng.integers(4, 20))
    A = rng.normal(size=(n, n))
    H = A.T @ A + 0.1 * np.eye(n)
    F = rng.normal(size=n) * 2
    x_feas = rng.normal(size=n)
    A_eq = b_eq = None
    if with_eq and n > 3:
        k = int(rng.integers(1, max(2, n // 4) + 1))
        A_eq = rng.normal(size=(k, n))
        b_eq = A_eq @ x_feas
    A_in = b_in = None
    if with_ineq:
        m = int(rng.integers(1, 3 * n))
        A_in = rng.normal(size=(m, n))
        mid = A_in @ x_feas
        lower = mid - rng.uniform(0.05, 3.0, size=m)
        upper = mid + rng.uniform(0.05, 3.0, size=m)
        # Leave some sides open.
        lower[rng.random(m) < 0.3] = -np.inf
        upper[(rng.random(m) < 0.3) & np.isfinite(lower)] = np.inf
        A_in, b_in = one_sided(A_in, lower, upper)
    return QPProblem(H=H, F=F, A_eq=A_eq, b_eq=b_eq,
                     A_in=A_in, b_in=b_in), x_feas


def nearly_dependent_qp(rng):
    """Many rows within 1e-5 of a subspace of lower dimension: adding one
    often zeroes the multiplier of a nearly parallel active row, so most
    solves drop rows and re-triangularize."""
    n = int(rng.integers(4, 12))
    m = int(rng.integers(3 * n, 8 * n))
    k = int(rng.integers(2, n))
    A = rng.normal(size=(n, n))
    A_in = (rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
            + 1e-5 * rng.normal(size=(m, n)))
    return QPProblem(H=A.T @ A + 1e-3 * np.eye(n),
                     F=30.0 * rng.normal(size=n), A_in=A_in,
                     b_in=rng.uniform(0.0, 1.0, size=m))


def shifted_planes_qp(rng):
    """Two parallel planes pulled past each other: a x >= gap and
    a x <= -gap."""
    n = int(rng.integers(2, 8))
    a = rng.normal(size=n)
    a /= np.linalg.norm(a)
    gap = rng.uniform(0.1, 2.0)
    return QPProblem(H=np.eye(n), F=rng.normal(size=n),
                     A_in=np.vstack([-a, a]), b_in=np.array([-gap, -gap]))


def check_kkt(p, sol, tol=1e-6):
    assert sol.status == "optimal"
    x = sol.x
    if len(p.A_eq):
        assert np.linalg.norm(p.A_eq @ x - p.b_eq, np.inf) < tol
    slack = p.b_in - p.A_in @ x
    assert np.all(slack >= -tol)
    assert sol.stationarity < tol * max(1.0, np.abs(p.H).max())
    # One multiplier per row of A_in; the working set are rows of A_in,
    # and only tight rows carry a multiplier (complementary slackness).
    assert sol.duals_in.shape == p.b_in.shape
    assert np.all(sol.duals_in >= 0.0)
    assert np.all(np.abs(slack[sol.working_set]) < tol)
    assert (np.abs(sol.duals_in * slack).max(initial=0.0)
            < tol * max(1.0, np.abs(p.H).max()))


def sample_feasible_points(p, x_feas, rng, count=40):
    """Hit-and-run style samples inside the constraints."""
    n = p.n
    null = np.eye(n)
    if len(p.A_eq):
        _, _, vt = np.linalg.svd(p.A_eq)
        null = vt[len(p.A_eq):].T
    pts = []
    x = x_feas.copy()
    for _ in range(count):
        d = null @ rng.normal(size=null.shape[1])
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        d /= nd
        lo, hi = -1e3, 1e3
        for a, room in zip(p.A_in @ d, p.b_in - p.A_in @ x):
            if a > 1e-12:
                hi = min(hi, room / a)
            elif a < -1e-12:
                lo = max(lo, room / a)
        if hi <= lo:
            continue
        step = rng.uniform(0.1 * lo, 0.1 * hi)
        pts.append(x + step * d)
    return pts


class TestProblemForm:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QPProblem(H=np.eye(2), F=np.zeros(2), A_in=np.eye(2),
                      b_in=np.array([1.0, bad]))

    @pytest.mark.parametrize("b_in", [None, np.ones(3), np.ones((2, 1))])
    def test_mis_shaped_bound_rejected(self, b_in):
        with pytest.raises(ValueError):
            QPProblem(H=np.eye(2), F=np.zeros(2), A_in=np.eye(2), b_in=b_in)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_equality_rejected(self, bad):
        with pytest.raises(ValueError, match="b_eq must be finite"):
            QPProblem(H=np.eye(2), F=np.zeros(2), A_eq=np.eye(2),
                      b_eq=np.array([1.0, bad]))

    @pytest.mark.parametrize("b_eq", [None, np.ones(3), np.ones((2, 1))])
    def test_mis_shaped_equality_rejected(self, b_eq):
        with pytest.raises(ValueError, match="b_eq"):
            QPProblem(H=np.eye(2), F=np.zeros(2), A_eq=np.eye(2), b_eq=b_eq)

    @pytest.mark.parametrize("side", ["eq", "in"])
    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones((2, 1)),
                                   np.ones(3), np.ones((1, 2, 2))])
    def test_wrong_column_count_rejected(self, side, A):
        with pytest.raises(ValueError, match=f"A_{side} must have 2 columns"):
            QPProblem(H=np.eye(2), F=np.zeros(2),
                      **{f"A_{side}": A, f"b_{side}": np.ones(len(A))})

    # Before these checks a NaN or inf in F raised IndexError from the
    # first dual step when A_in had rows, and solved to status "optimal"
    # with x = [nan, nan] when it had none; so did a NaN in H.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("rows", [False, True])
    def test_non_finite_objective_rejected(self, bad, rows):
        block = {"A_in": np.eye(2), "b_in": np.ones(2)} if rows else {}
        with pytest.raises(ValueError, match="F must be finite"):
            QPProblem(H=np.eye(2), F=np.array([bad, 0.0]), **block)
        H = np.eye(2)
        H[0, 1] = H[1, 0] = bad
        with pytest.raises(ValueError, match="H must be finite"):
            QPProblem(H=H, F=np.zeros(2), **block)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", ["eq", "in"])
    def test_non_finite_rows_rejected(self, bad, side):
        A = np.eye(2)
        A[1, 0] = bad
        with pytest.raises(ValueError, match=f"A_{side} must be finite"):
            QPProblem(H=np.eye(2), F=np.zeros(2),
                      **{f"A_{side}": A, f"b_{side}": np.ones(2)})

    def test_no_equality_rows_is_an_empty_block(self):
        p = QPProblem(H=np.eye(2), F=np.zeros(2))
        assert p.A_eq.shape == (0, 2) and p.b_eq.shape == (0,)
        assert p.A_in.shape == (0, 2) and p.b_in.shape == (0,)


class TestUnconstrained:
    def test_matches_linear_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            A = rng.normal(size=(n, n))
            H = A.T @ A + 0.5 * np.eye(n)
            F = rng.normal(size=n)
            sol = solve_qp(QPProblem(H=H, F=F))
            assert sol.status == "optimal"
            assert np.allclose(sol.x, np.linalg.solve(H, -F), atol=1e-8)


class TestEqualityOnly:
    def test_matches_dense_kkt(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, _ = random_feasible_qp(rng, with_ineq=False)
            if not len(p.A_eq):
                continue
            sol = solve_qp(p)
            n, k = p.n, len(p.A_eq)
            K = np.zeros((n + k, n + k))
            K[:n, :n] = p.H
            K[:n, n:] = p.A_eq.T
            K[n:, :n] = p.A_eq
            rhs = np.concatenate([-p.F, p.b_eq])
            ref = np.linalg.solve(K, rhs)[:n]
            assert sol.status == "optimal"
            assert np.linalg.norm(sol.x - ref, np.inf) < 1e-8

    def test_redundant_consistent_rows_accepted(self):
        H = np.eye(2)
        F = np.zeros(2)
        A_eq = np.array([[1.0, 0.0], [2.0, 0.0]])
        b_eq = np.array([1.0, 2.0])
        sol = solve_qp(QPProblem(H=H, F=F, A_eq=A_eq, b_eq=b_eq))
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_contradictory_rows_infeasible(self):
        H = np.eye(2)
        F = np.zeros(2)
        A_eq = np.array([[1.0, 0.0], [1.0, 0.0]])
        b_eq = np.array([1.0, 2.0])
        sol = solve_qp(QPProblem(H=H, F=F, A_eq=A_eq, b_eq=b_eq))
        assert sol.status == "infeasible"


class TestBoxQP:
    def test_clipped_unconstrained(self):
        # Separable H: solution is the unconstrained one clipped to the box.
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = rng.uniform(0.5, 3.0, size=n)
            H = np.diag(d)
            F = rng.normal(size=n) * 3
            sol = solve_qp(QPProblem(H=H, F=F,
                                     A_in=np.vstack([np.eye(n), -np.eye(n)]),
                                     b_in=np.ones(2 * n)))
            ref = np.clip(-F / d, -1.0, 1.0)
            assert sol.status == "optimal"
            assert np.allclose(sol.x, ref, atol=1e-8)

    def test_active_bound(self):
        # min (x-3)^2 with x <= 1 -> x = 1, dual 4 on that row.
        sol = solve_qp(QPProblem(H=np.array([[2.0]]), F=np.array([-6.0]),
                                 A_in=np.array([[1.0]]), b_in=np.array([1.0])))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-10)
        assert sol.duals_in.max() == pytest.approx(4.0, abs=1e-8)


class TestRandomProblems:
    def test_kkt_and_competitors(self):
        rng = np.random.default_rng(4)
        solved = 0
        for _ in range(60):
            p, x_feas = random_feasible_qp(rng)
            sol = solve_qp(p)
            check_kkt(p, sol, tol=1e-6)
            solved += 1
            f_star = 0.5 * sol.x @ p.H @ sol.x + p.F @ sol.x
            for z in sample_feasible_points(p, x_feas, rng, count=15):
                f = 0.5 * z @ p.H @ z + p.F @ z
                assert f_star <= f + 1e-7 * max(1.0, abs(f_star))
        assert solved == 60

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p, _ = random_feasible_qp(rng)
            a = solve_qp(p)
            b = solve_qp(p)
            assert a.status == b.status
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.duals_in, b.duals_in)
            assert a.iterations == b.iterations
            assert a.working_set == b.working_set


class TestPivot:
    def test_row_scaling_keeps_path(self):
        # The added row is the one with the largest violation per unit
        # norm, so scaling rows of A_in with their bounds changes nothing.
        rng = np.random.default_rng(8)
        for _ in range(100):
            p, _ = random_feasible_qp(rng)
            scale = 10.0 ** rng.integers(-3, 4, size=len(p.A_in))
            scale[rng.random(len(scale)) < 0.5] = 1.0
            q = QPProblem(H=p.H, F=p.F, A_eq=p.A_eq, b_eq=p.b_eq,
                          A_in=p.A_in * scale[:, None], b_in=p.b_in * scale)
            a, b = solve_qp(p), solve_qp(q)
            assert (a.status, a.iterations) == (b.status, b.iterations)
            assert a.working_set == b.working_set
            assert np.abs(a.x - b.x).max() <= 1e-12 * max(1.0, np.abs(a.x).max())

    def test_ties_and_zero_rows(self):
        # From x = 3, x <= 1 and 2x <= 2 both violate by 2 per unit norm:
        # the lower index is added, which satisfies the other.
        p = QPProblem(H=np.eye(1), F=np.array([-3.0]),
                      A_in=np.array([[1.0], [2.0]]), b_in=np.array([1.0, 2.0]))
        sol = solve_qp(p)
        assert (sol.status, sol.iterations, sol.working_set) == ("optimal", 1, [0])
        # The zero row 0 <= -1 keeps its raw violation 1, so x <= 1 (2 per
        # unit norm) is added first; the zero row then certifies infeasibility.
        p = QPProblem(H=np.eye(1), F=np.array([-3.0]),
                      A_in=np.array([[0.0], [1.0]]), b_in=np.array([-1.0, 1.0]))
        sol = solve_qp(p)
        assert (sol.status, sol.iterations, sol.working_set) == ("infeasible", 2, [1])

    @pytest.mark.parametrize("seed", range(6))
    def test_a_row_within_tol_is_never_added(self, seed):
        # A row violated by half the tolerance, with a norm of 1e-13 in the
        # reduced space, has the largest violation per unit norm, while a
        # unit row is violated by 1.  Only the over-tol row is added; the
        # solution is optimal, passes KKT and is the solution without the
        # tiny row, up to the rounding of products over more rows.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(n, n))
        H = A.T @ A + 0.5 * np.eye(n)
        F = rng.normal(size=n)
        x_u = np.linalg.solve(H, -F)
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        base = QPProblem(H=H, F=F, A_in=a[None], b_in=[a @ x_u - 1.0])
        # With no equalities the reduced-space norm of a row g is |L^-1 g|.
        L = np.linalg.cholesky(H)
        e = rng.normal(size=n)
        e *= 1e-13 / np.linalg.norm(np.linalg.solve(L, e))
        tol = _VIOL_TOL * (1.0 + max(abs(a @ x_u - 1.0), abs(e @ x_u)))
        p = base.with_rows(e[None], [e @ x_u - 0.5 * tol])
        scores = (p.A_in @ x_u - p.b_in) / np.linalg.norm(
            np.linalg.solve(L, p.A_in.T), axis=0)
        assert scores[1] > scores[0] > 0.0
        sol, alone = solve_qp(p), solve_qp(base)
        assert (sol.status, sol.working_set) == ("optimal", [0])
        check_kkt(p, sol, tol=1e-8)
        assert sol.iterations == alone.iterations == 1
        assert np.abs(sol.x - alone.x).max() <= 1e-12 * max(
            1.0, np.abs(alone.x).max())

    def test_nearly_dependent_rows_drop_often(self):
        rng = np.random.default_rng(13)
        drops = 0
        for _ in range(40):
            p = nearly_dependent_qp(rng)
            sol = solve_qp(p)
            check_kkt(p, sol, tol=1e-8)
            drops += (sol.iterations - len(sol.working_set)) // 2
        assert drops >= 100


class TestInfeasible:
    def test_box_conflict(self):
        # -x <= -1 and x <= -1 cannot hold.
        p = QPProblem(H=np.eye(1), F=np.zeros(1),
                      A_in=np.array([[-1.0], [1.0]]),
                      b_in=np.array([-1.0, -1.0]))
        sol = solve_qp(p)
        assert sol.status == "infeasible"

    def test_equality_vs_inequality(self):
        # x + y = 4 with x <= 1, y <= 1.
        p = QPProblem(H=np.eye(2), F=np.zeros(2),
                      A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0]),
                      A_in=np.eye(2), b_in=np.array([1.0, 1.0]))
        sol = solve_qp(p)
        assert sol.status == "infeasible"

    def test_random_shifted_infeasible(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sol = solve_qp(shifted_planes_qp(rng))
            assert sol.status == "infeasible"

    def test_feasible_after_relaxation(self):
        # The same conflicting rows widened become solvable.
        p = QPProblem(H=np.eye(1), F=np.array([1.0]),
                      A_in=np.array([[-1.0], [1.0]]),
                      b_in=np.array([2.0, 2.0]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-8)


class TestDegenerate:
    def test_duplicate_inequality_rows(self):
        # The same row twice must not confuse the working set.
        p = QPProblem(H=np.eye(2) * 2, F=np.array([-6.0, 0.0]),
                      A_in=np.array([[1.0, 0.0], [1.0, 0.0]]),
                      b_in=np.array([1.0, 1.0]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_vertex(self):
        # Three planes through one vertex in 2D.
        p = QPProblem(H=np.eye(2), F=np.array([-4.0, -4.0]),
                      A_in=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                      b_in=np.array([1.0, 1.0, 2.0]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)

    def test_fixed_by_bounds(self):
        # x <= 0.7 and -x <= -0.7 pin the variable.
        p = QPProblem(H=np.eye(2), F=np.array([1.0, 1.0]),
                      A_in=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      b_in=np.array([0.7, -0.7]))
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.7, abs=1e-9)
        assert sol.x[1] == pytest.approx(-1.0, abs=1e-9)


def recorded(path, index):
    """Planner QP `index` of a recorded archive, in one-sided form.

    The archives hold each call's arrays in the two-sided form
    lower <= A_in x <= upper that the planner used when they were recorded.
    """
    with np.load(path) as data:
        arrays = {k: data[f"s{index}_{k}"] for k in
                  ("H", "F", "A_eq", "b_eq", "A_in", "lower", "upper")}
    A_in, b_in = one_sided(arrays.pop("A_in"), arrays.pop("lower"),
                           arrays.pop("upper"))
    return QPProblem(**arrays, A_in=A_in, b_in=b_in)


class TestRecordedCorridorCross:
    """Planner QPs on which the primal active-set solver went wrong.

    Recorded from the corridor_cross bench window at commit b7caeac, seed 0
    (`perfbench/run.py` `window("corridor_cross", 30)` through `execute`),
    with `swarmplan.planner.solve_qp` monkeypatched to append the arrays of
    each call to a list; keys are `s<call index>_<field>` with zero-based
    call indices.  Started from the previous plan refit onto the new knots,
    that solver stopped at its iteration cap on solves 43, 48, 88, 127, 175
    and 213, and ended solve 133 `optimal` at a point 9.6e-4 off the
    initial-state equalities; from a cold start it still stopped at the cap
    on 43 and 88.  (The archive keeps that start as `s<i>_warm`; the dual
    solver needs none, and no test reads it.)  All seven are feasible; Z'HZ
    has smallest eigenvalue 0.051, while that of H is 2e-11 to 1.2e-7.
    """

    DATA = Path(__file__).parent / "data" / "qp_corridor_cross.npz"

    @pytest.mark.parametrize("index", [43, 48, 88, 127, 133, 175, 213])
    def test_optimal_with_kkt(self, index):
        p = recorded(self.DATA, index)
        sol = solve_qp(p)
        check_kkt(p, sol, tol=1e-8)


def lp_feasible(p):
    """HiGHS verdict on the constraints of `p` alone."""
    res = linprog(np.zeros(p.n), A_ub=p.A_in, b_ub=p.b_in,
                  A_eq=p.A_eq, b_eq=p.b_eq, bounds=(None, None),
                  method="highs")
    assert res.status in (0, 2)
    return res.status == 0


class TestRecordedClutterWaypoints:
    """Planner QPs of the clutter_waypoints bench window.

    Recorded at commit ab01655, seed 0 (`perfbench/run.py`
    `window("clutter_waypoints", 30)` through `execute`), with
    `swarmplan.planner.solve_qp` monkeypatched to append the arrays of each
    call to a list; keys are `s<call index>_<field>` with zero-based call
    indices.  Of the window's 299 solves, 198 end infeasible, and HiGHS
    agrees with every verdict.  Kept here: the first infeasible solve (1),
    the optimal and infeasible solves on which this solver drops rows most
    often (5, 10, 49 with 8, 6 and 7 drops; 272 and 279 with 8 and 6), the
    optimal solve with the most rows (169) and the last optimal one (298).
    """

    DATA = Path(__file__).parent / "data" / "qp_clutter_waypoints.npz"

    @pytest.mark.parametrize("index,status", [
        (1, "infeasible"), (5, "optimal"), (10, "optimal"), (49, "optimal"),
        (169, "optimal"), (272, "infeasible"), (279, "infeasible"),
        (298, "optimal")])
    def test_status_certified(self, index, status):
        p = recorded(self.DATA, index)
        sol = solve_qp(p)
        assert sol.status == status
        if status == "optimal":
            check_kkt(p, sol, tol=1e-8)
        else:
            assert not lp_feasible(p)


def old_solve_qp(problem):
    """solve_qp before its factors were memoized and its dual loop kept
    the ratio test and the multipliers on Python floats, verbatim."""
    n = problem.n
    G, h = problem.A_in, problem.b_in
    duals = np.zeros(len(G))

    U, S, Vt = np.linalg.svd(problem.A_eq)
    rank = int(np.sum(S > _RANK_TOL * S.max(initial=0.0)))
    x0 = Vt[:rank].T @ ((U[:, :rank].T @ problem.b_eq) / S[:rank])
    if np.any(np.abs(problem.A_eq @ x0 - problem.b_eq) > _EQ_TOL):
        return QPSolution(x=x0, status="infeasible", iterations=0,
                          stationarity=np.inf, duals_in=duals)
    Z = Vt[rank:].T
    L = np.linalg.cholesky(Z.T @ problem.H @ Z)
    M = np.linalg.solve(L, Z.T).T            # x = x0 + M w, M'HM = I
    w = -M.T @ (problem.H @ x0 + problem.F)
    B = G @ M
    d = h - G @ x0
    tol = _VIOL_TOL * (1.0 + np.abs(h).max(initial=0.0))
    norms = np.sqrt(np.square(B).sum(axis=1))
    norms[norms == 0.0] = 1.0

    # J (orthonormal) and Rinv = R^-1 stacked, so that one rotation of
    # their shared columns moves both; u[:q] are the active multipliers.
    p = B.shape[1]
    JR = np.zeros((2 * p, p))
    J, Rinv = JR[:p], JR[p:]
    J[:] = np.eye(p)
    R = np.zeros((p, p))
    u = np.zeros(p)
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
            t_plus = 0.0
        if it == max_iter:
            break
        it += 1
        # Path that raises row j's multiplier t_plus while the active rows
        # stay tight: w moves along z and the active multipliers along r.
        q = len(active)
        v = B[j] @ J
        z = J[:, q:] @ -v[q:]
        r = Rinv[:q, :q] @ -v[:q]
        ratios = np.full(q + 1, np.inf)
        np.divide(u[:q], -r, out=ratios[:q], where=r < 0.0)
        drop = int(ratios.argmin())
        t_dual = ratios[drop]
        z_norm = math.sqrt(v[q:] @ v[q:])
        full = z_norm > _ZERO_STEP * norms[j]
        if not full and t_dual == np.inf:
            status = "infeasible"
            break
        t_primal = (B[j] @ w - d[j]) / z_norm**2 if full else np.inf
        t = min(t_primal, t_dual)
        if full:
            w = w + t * z
        u[:q] = np.maximum(u[:q] + t * r, 0.0)
        t_plus += t
        if t_primal <= t_dual:
            # Reflect v[q:] onto alpha e_1: J[:, q] joins the active span.
            alpha = -math.copysign(z_norm, v[q])
            house = v[q:].copy()
            house[0] -= alpha
            J[:, q:] -= np.outer(J[:, q:] @ house,
                                 house / (z_norm**2 - alpha * v[q]))
            R[:q, q] = v[:q]
            R[q, q] = alpha
            Rinv[:q, q] = r / alpha
            Rinv[q, q] = 1.0 / alpha
            u[q] = t_plus
            active.append(j)
            j = None
        else:
            # Delete the row's column of R and row of R^-1, then rotate the
            # Hessenberg remainder of R back to upper-triangular form.
            del active[drop]
            u[drop:q - 1] = u[drop + 1:q]
            R[:, drop:q - 1] = R[:, drop + 1:q]
            Rinv[drop:q - 1] = Rinv[drop + 1:q]
            for i in range(drop, q - 1):
                c, s = R[i, i], R[i + 1, i]
                rot = np.array([[c, s], [-s, c]]) / math.hypot(c, s)
                R[i:i + 2, i:q - 1] = rot @ R[i:i + 2, i:q - 1]
                JR[:, i:i + 2] = JR[:, i:i + 2] @ rot.T
            R[q - 1] = R[:, q - 1] = Rinv[q - 1] = Rinv[:, q - 1] = 0.0

    x = x0 + M @ w
    duals[active] = u[:len(active)]
    stationarity = np.inf
    if status == "optimal":
        g = problem.H @ x + problem.F + G[active].T @ u[:len(active)]
        stationarity = float(np.abs(Z @ (Z.T @ g)).max())
    return QPSolution(x=x, status=status, iterations=it,
                      stationarity=stationarity, duals_in=duals,
                      working_set=active)


def outcome(sol):
    return (sol.x.tobytes(), sol.duals_in.tobytes(), sol.working_set,
            sol.iterations, sol.status, repr(sol.stationarity))


def memo_cases():
    """Every recorded planner QP, then the random, pivot and infeasible
    generators above: drop-heavy, tied and infeasible solves."""
    for path in sorted((Path(__file__).parent / "data").glob("qp_*.npz")):
        with np.load(path) as data:
            indices = sorted({int(k[1:].partition("_")[0]) for k in data.files})
        for index in indices:
            yield recorded(path, index)
    for seed, count in ((4, 60), (6, 10), (8, 100)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_feasible_qp(rng)[0]
    rng = np.random.default_rng(13)
    for _ in range(40):
        yield nearly_dependent_qp(rng)
    rng = np.random.default_rng(7)
    for _ in range(20):
        yield shifted_planes_qp(rng)
    # Small integer data: exact ties between rows, degenerate vertices.
    rng = np.random.default_rng(9)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        yield QPProblem(H=np.eye(n) * rng.integers(1, 3),
                        F=rng.integers(-4, 5, size=n).astype(float),
                        A_in=rng.integers(-2, 3, size=(m, n)).astype(float),
                        b_in=rng.integers(-3, 3, size=m).astype(float))
    yield QPProblem(H=np.eye(1), F=np.array([-3.0]),
                    A_in=np.array([[1.0], [2.0]]), b_in=np.array([1.0, 2.0]))
    yield QPProblem(H=np.eye(1), F=np.array([-3.0]),
                    A_in=np.array([[0.0], [1.0]]), b_in=np.array([-1.0, 1.0]))
    yield QPProblem(H=np.eye(2), F=np.zeros(2),
                    A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0]),
                    A_in=np.eye(2), b_in=np.array([1.0, 1.0]))
    yield QPProblem(H=np.eye(2), F=np.zeros(2),
                    A_eq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                    b_eq=np.array([1.0, 2.0]))


class TestFactorMemo:
    """The memoized factors and the float bookkeeping of the dual loop
    change no bit of any solve, from a cold memo or a warm one."""

    def test_cold_and_warm_match_the_unmemoized_solver(self):
        cases = list(memo_cases())
        assert len(cases) == 449
        statuses, drops = set(), 0
        for p in cases:
            want = outcome(old_solve_qp(p))
            qp._factor.cache_clear()
            assert outcome(solve_qp(p)) == want
            assert outcome(solve_qp(p)) == want
            assert qp._factor.cache_info().hits == 1
            statuses.add(want[4])
            drops += (want[3] - len(want[2])) // 2
        assert statuses == {"optimal", "infeasible"}
        assert drops >= 100

    def test_a_hit_with_other_data_matches(self):
        # Each case's (H, A_eq) pair again, with a new linear term, new
        # equality values and new rows: the factors come from the memo.
        rng = np.random.default_rng(21)
        for p in memo_cases():
            solve_qp(p)
            m = int(rng.integers(1, 4 * p.n))
            A_in = rng.normal(size=(m, p.n))
            other = QPProblem(
                H=p.H, F=rng.normal(size=p.n) * 3, A_eq=p.A_eq,
                b_eq=p.b_eq + rng.normal(size=len(p.b_eq)) * 0.1,
                A_in=A_in, b_in=A_in @ rng.normal(size=p.n)
                + rng.uniform(-0.5, 1.0, size=m))
            hits = qp._factor.cache_info().hits
            assert outcome(solve_qp(other)) == outcome(old_solve_qp(other))
            assert qp._factor.cache_info().hits == hits + 1

    def test_entries_are_read_only_and_bounded(self):
        for p in memo_cases():
            solve_qp(p)
        info = qp._factor.cache_info()
        assert 0 < info.currsize <= info.maxsize == qp._FACTOR_MEMO
        p = next(memo_cases())
        entries = qp._factor(p.H.tobytes(), p.A_eq.tobytes(),
                             (p.n, len(p.A_eq)))
        Z, M, V, Ut, S_r, Mt, JR = entries
        rank = len(S_r)
        assert 0 < rank <= len(p.A_eq)
        assert V.shape == (p.n, rank) and Ut.shape == (rank, len(p.A_eq))
        assert Z.shape == M.shape == Mt.T.shape == (p.n, p.n - rank)
        assert JR.shape == (2 * (p.n - rank), p.n - rank)
        for a in entries:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_a_new_hessian_reuses_the_elimination(self):
        # Every third case's A_eq again under a new H, as each obstacle
        # cycle brings its own cost to its layout's equality block: the
        # elimination comes from its memo, the factor is computed afresh.
        rng = np.random.default_rng(23)
        for p in list(memo_cases())[::3]:
            qp._factor.cache_clear()
            solve_qp(p)
            A = rng.normal(size=(p.n, p.n))
            other = QPProblem(H=A.T @ A + 0.1 * np.eye(p.n), F=p.F,
                              A_eq=p.A_eq, b_eq=p.b_eq, A_in=p.A_in,
                              b_in=p.b_in)
            eliminated = qp._eliminate.cache_info()
            factored = qp._factor.cache_info()
            assert outcome(solve_qp(other)) == outcome(old_solve_qp(other))
            after = qp._eliminate.cache_info()
            assert (after.hits, after.misses) == (eliminated.hits + 1,
                                                  eliminated.misses)
            after = qp._factor.cache_info()
            assert (after.hits, after.misses) == (factored.hits,
                                                  factored.misses + 1)

    def test_elimination_entries_are_read_only_shared_and_bounded(self):
        for p in memo_cases():
            solve_qp(p)
        info = qp._eliminate.cache_info()
        assert 0 < info.currsize <= info.maxsize == qp._FACTOR_MEMO
        p = next(memo_cases())
        k = len(p.A_eq)
        entries = qp._eliminate(p.A_eq.tobytes(), (k, p.n))
        Z, V, Ut, S_r = entries
        rank = len(S_r)
        assert 0 < rank <= k
        assert Z.shape == (p.n, p.n - rank)
        assert V.shape == (p.n, rank) and Ut.shape == (rank, k)
        for a in entries:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        # The factor entry of any H on this block holds the same arrays.
        factor = qp._factor(p.H.tobytes(), p.A_eq.tobytes(), (p.n, k))
        for a, b in zip((Z, V, Ut, S_r), (factor[0], *factor[2:5])):
            assert a is b


def problem_arrays(p):
    return [(name, getattr(p, name).dtype, getattr(p, name).shape,
             getattr(p, name).tobytes())
            for name in ("H", "F", "A_eq", "b_eq", "A_in", "b_in")]


class TestAppendRows:
    """QPProblem.with_rows checks the rows it appends, and only those, and
    builds the problem that QPProblem(...) builds from the stacked rows."""

    base = QPProblem(H=np.eye(2), F=np.zeros(2), A_eq=np.ones((1, 2)),
                     b_eq=np.ones(1), A_in=np.eye(2), b_in=np.ones(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", ["A", "b"])
    def test_non_finite_rows_rejected(self, bad, side):
        A, b = np.eye(2), np.ones(2)
        (A[1] if side == "A" else b)[0] = bad
        with pytest.raises(ValueError, match=f"{side}_in must be finite"):
            self.base.with_rows(A, b)

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones((2, 1)),
                                   np.ones(3), np.ones((1, 2, 2))])
    def test_wrong_column_count_rejected(self, A):
        with pytest.raises(ValueError, match="A_in must have 2 columns"):
            self.base.with_rows(A, np.ones(len(A)))

    @pytest.mark.parametrize("b", [None, np.ones(3), np.ones((2, 1))])
    def test_mis_shaped_bound_rejected(self, b):
        with pytest.raises(ValueError, match="b_in"):
            self.base.with_rows(np.eye(2), b)

    def test_only_the_new_rows_are_checked(self, monkeypatch):
        checked = []
        real = qp._checked_rows

        def spy(A, b, n, side):
            checked.append((A, b, n, side))
            return real(A, b, n, side)

        monkeypatch.setattr(qp, "_checked_rows", spy)
        A, b = np.array([[1.0, -1.0]]), np.array([0.5])
        grown = self.base.with_rows(A, b)
        assert len(checked) == 1
        assert checked[0][0] is A and checked[0][1] is b
        assert checked[0][2:] == (2, "in")
        assert grown.H is self.base.H and grown.A_eq is self.base.A_eq
        assert len(self.base.A_in) == 2 and len(grown.A_in) == 3

    def test_append_equals_construction(self):
        # Every seventh memo case, split at its start, middle and end: the
        # rows before the split built, the rest appended.
        cases = list(memo_cases())[::7]
        assert len(cases) > 50
        for p in cases:
            for k in sorted({0, len(p.A_in) // 2, len(p.A_in)}):
                head = QPProblem(H=p.H, F=p.F, A_eq=p.A_eq, b_eq=p.b_eq,
                                 A_in=p.A_in[:k], b_in=p.b_in[:k])
                before = problem_arrays(head)
                grown = head.with_rows(p.A_in[k:], p.b_in[k:])
                whole = QPProblem(H=p.H, F=p.F, A_eq=p.A_eq, b_eq=p.b_eq,
                                  A_in=p.A_in, b_in=p.b_in)
                assert problem_arrays(grown) == problem_arrays(whole)
                assert problem_arrays(head) == before
                assert outcome(solve_qp(grown)) == outcome(solve_qp(whole))

    def test_cached_limit_block_read_only_and_bounded(self):
        # More distinct (m, dt, limits) keys than the memo holds.
        blocks = []
        for dt in (0.5, 1.0, 2.0):
            for order in (1, 2, 3):
                layout = plan_knot_layout(0.0, 4.0, dt, order + 1)
                for bound in (1.0, 2.0, 3.0):
                    limits = ((order, np.array([bound, 1.0, bound, 1.0])
                               .tobytes()),)
                    blocks.append(planner._limit_block(layout.m, dt, limits))
        info = planner._limit_block.cache_info()
        assert info.maxsize == 16 and 0 < info.currsize <= 16
        assert len(blocks) > info.maxsize
        for A, b in blocks:
            assert len(A) == len(b) > 0
            for a in (A, b):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        A, b = blocks[-1]
        grown = QPProblem(H=np.eye(A.shape[1]),
                          F=np.zeros(A.shape[1])).with_rows(A, b)
        assert grown.A_in.flags.writeable and grown.A_in is not A
