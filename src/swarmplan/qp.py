"""Dense convex quadratic programming by a primal active-set method.

Problems carry a symmetric positive (semi)definite Hessian, optional
equality rows, and two-sided linear inequalities.  The solver walks faces of
the feasible set: each iteration solves an equality-constrained subproblem
through its KKT system, steps until a new constraint blocks, and drops
working constraints whose multipliers turn negative.  A feasible start is
produced by the same machinery on a single-slack relaxation, which also
yields an infeasibility certificate when the slack cannot reach zero.

Everything is plain numpy with fixed tie-breaking, so identical inputs give
bitwise-identical solutions.
"""

from dataclasses import dataclass, field

import numpy as np

_DUAL_TOL = 1e-9
_STEP_TOL = 1e-11
_FEAS_TOL = 1e-7


@dataclass
class QPProblem:
    """min 1/2 x'Hx + F'x  s.t.  A_eq x = b_eq,  lower <= A_in x <= upper."""

    H: np.ndarray
    F: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_in: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        n = len(self.F)
        if self.H.shape != (n, n):
            raise ValueError(f"H must be ({n}, {n}), got {self.H.shape}")
        if self.A_eq is None:
            self.A_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.A_in is None:
            self.A_in = np.zeros((0, n))
            self.lower = np.zeros(0)
            self.upper = np.zeros(0)
        else:
            self.A_in = np.atleast_2d(np.asarray(self.A_in, dtype=float))
            m = len(self.A_in)
            self.lower = (np.full(m, -np.inf) if self.lower is None
                          else np.atleast_1d(np.asarray(self.lower, dtype=float)))
            self.upper = (np.full(m, np.inf) if self.upper is None
                          else np.atleast_1d(np.asarray(self.upper, dtype=float)))

    @property
    def n(self):
        return len(self.F)

    def objective(self, x):
        return float(0.5 * x @ self.H @ x + self.F @ x)


@dataclass
class QPSolution:
    x: np.ndarray
    status: str                      # optimal | infeasible | maxiter
    iterations: int
    eq_residual: float
    ineq_violation: float
    stationarity: float
    duals_eq: np.ndarray = None
    duals_in: np.ndarray = None
    working_set: list = field(default_factory=list)


def _one_sided(A_in, lower, upper):
    """Expand two-sided rows into G x <= h, remembering row provenance.

    Row i gives its upper row, then its lower row, each when finite; tags
    hold (i, +1) or (i, -1) in the same order.
    """
    keep = np.stack([np.isfinite(upper), np.isfinite(lower)], axis=1)
    G = np.stack([A_in, -A_in], axis=1)[keep]
    h = np.stack([upper, -lower], axis=1)[keep]
    rows, side = np.nonzero(keep)
    tags = list(zip(rows.tolist(), (1 - 2 * side).tolist()))
    return G, h, tags


def _independent_rows(A, b, tol=1e-10):
    """Greedy maximal independent subset of consistent equality rows."""
    if len(A) == 0:
        return A, b
    keep = []
    basis = np.zeros((0, A.shape[1]))
    for i in range(len(A)):
        row = A[i]
        if len(basis):
            coef, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
            resid = row - basis.T @ coef
        else:
            resid = row
        if np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(row)):
            keep.append(i)
            basis = np.vstack([basis, row])
    return A[keep], b[keep]


class _Core:
    """Active-set iteration on min 1/2 x'Hx + f'x, E x = b, G x <= h."""

    def __init__(self, H, f, E, b, G, h):
        self.H = H
        self.f = f
        self.E = E
        self.b = b
        self.G = G
        self.h = h
        self.n = len(f)
        self.scale = max(1.0, float(np.abs(H).max()) if H.size else 1.0)

    def _kkt(self, C, g, ridge=0.0):
        n, k = self.n, len(C)
        K = np.zeros((n + k, n + k))
        K[:n, :n] = self.H
        if ridge:
            K[:n, :n] += ridge * np.eye(n)
        if k:
            K[:n, n:] = C.T
            K[n:, :n] = C
        rhs = np.concatenate([-g, np.zeros(k)])
        sol = np.linalg.solve(K, rhs)
        return sol[:n], sol[n:]

    def _independent_working(self, working):
        """Drop working rows dependent on the equalities or earlier rows."""
        basis = self.E.copy() if len(self.E) else np.zeros((0, self.n))
        kept = []
        for w in working:
            row = self.G[w]
            if len(basis):
                coef, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
                if np.linalg.norm(row - basis.T @ coef) <= 1e-10 * max(1.0, np.linalg.norm(row)):
                    continue
            basis = np.vstack([basis, row])
            kept.append(w)
        return kept

    def run(self, x, working, max_iter):
        """Iterate from feasible x with working-set row indices into G."""
        working = self._independent_working(list(working))
        n_eq = len(self.E)
        ridge = 0.0
        for it in range(1, max_iter + 1):
            C = np.vstack([self.E, self.G[working]]) if (n_eq or working) else np.zeros((0, self.n))
            g = self.H @ x + self.f
            try:
                p, mu = self._kkt(C, g, ridge)
            except np.linalg.LinAlgError:
                if ridge == 0.0:
                    # Hessian singular on this face; retry with a whisper of
                    # curvature, which leaves the optimum within tolerance.
                    ridge = 1e-10 * self.scale
                    continue
                return x, working, it, "maxiter"
            if not np.all(np.isfinite(p)):
                if ridge == 0.0:
                    ridge = 1e-10 * self.scale
                    continue
                return x, working, it, "maxiter"
            # Predicted objective decrease on this face; noise-level decreases
            # mean the face is solved and only the duals matter.
            dec = float(g @ p) + 0.5 * float(p @ self.H @ p)
            obj_scale = 1.0 + abs(0.5 * float(x @ g) + 0.5 * float(x @ self.f))
            if (np.linalg.norm(p, np.inf) <= _STEP_TOL * (1.0 + np.linalg.norm(x, np.inf))
                    or dec >= -1e-10 * obj_scale):
                mu_in = mu[n_eq:]
                if len(mu_in) == 0 or mu_in.min() >= -_DUAL_TOL * self.scale:
                    return x, working, it, "optimal"
                # Drop the most negative multiplier; ties to the lowest row.
                worst = int(np.argmin(mu_in))
                del working[worst]
                continue
            # Longest feasible step along p.
            alpha = 1.0
            blocking = -1
            if len(self.G):
                mask = np.ones(len(self.G), dtype=bool)
                mask[working] = False
                Gp = self.G[mask] @ p
                rows = np.flatnonzero(mask)
                pos = Gp > 1e-13 * self.scale
                if np.any(pos):
                    slack = self.h[rows[pos]] - self.G[rows[pos]] @ x
                    ratios = np.maximum(slack, 0.0) / Gp[pos]
                    j = int(np.argmin(ratios))
                    if ratios[j] < alpha:
                        alpha = float(ratios[j])
                        blocking = int(rows[pos][j])
            x = x + alpha * p
            if blocking >= 0:
                working.append(blocking)
        return x, working, max_iter, "maxiter"


def _feasible_start(core, x0, max_iter):
    """Phase 1: drive one shared slack on the inequalities to zero.

    Minimizes 1/2 s^2 + eps/2 |x - x0|^2 subject to G x - s <= h, s >= 0 and
    the equalities; the regularization keeps the subproblem strictly convex
    but biases s away from zero, so the pass repeats with shrinking eps until
    the slack collapses or stops improving.  A stalled positive slack is the
    infeasibility certificate.  Returns (x, working, feasible) with working
    indexing rows of core.G active at x.
    """
    G, h = core.G, core.h
    hscale = 1.0 + (float(np.abs(h).max()) if len(h) else 0.0)

    def active_rows(x):
        v = G @ x - h
        return [int(i) for i in np.flatnonzero(np.abs(v) <= 1e-9 * hscale)]

    if len(G) == 0:
        return x0, [], True
    worst = float((G @ x0 - h).max())
    if worst <= 1e-9 * hscale:
        return x0, active_rows(x0), True

    n = core.n
    E1 = np.hstack([core.E, np.zeros((len(core.E), 1))]) if len(core.E) else np.zeros((0, n + 1))
    G1 = np.hstack([G, -np.ones((len(G), 1))])
    s_row = np.zeros(n + 1)
    s_row[n] = -1.0
    G1 = np.vstack([G1, s_row])          # s >= 0
    h1 = np.concatenate([h, [0.0]])
    eps = 1e-8
    H1 = np.zeros((n + 1, n + 1))
    H1[:n, :n] = eps * np.eye(n)
    H1[n, n] = 1.0

    # The slack cost is dominated by a linear term: with a big enough weight
    # the s >= 0 plane pins s at exactly zero whenever the constraints admit
    # a point (exact penalty), so no tolerance juggling is needed.  The
    # weight escalates until the slack either collapses or stops shrinking,
    # which certifies infeasibility.
    x = x0
    s_star = worst
    for big_m in (1.0, 1e3, 1e6):
        f1 = np.concatenate([-eps * x, [big_m]])
        z0 = np.concatenate([x, [max(float((G @ x - h).max()), 0.0) + 1.0]])
        core1 = _Core(H1, f1, E1, core.b, G1, h1)
        z, _, _, status = core1.run(z0, [], max_iter)
        if status != "optimal":
            return x, [], False
        prev_s = s_star
        x = z[:n]
        s_star = float(z[n])
        if s_star <= 1e-9 * hscale:
            return x, active_rows(x), True
        if s_star > 0.99 * prev_s:
            break
    return x, [], False


def solve_qp(problem, warm_start=None, max_iter=None):
    """Solve a convex QP; see QPProblem for the form.

    warm_start may carry (x, working_set) from a previous related solve.
    The returned working_set can seed the next call.  Status is 'infeasible'
    when the constraints admit no point (certified by the phase-1 optimum),
    and 'maxiter' if the iteration budget runs out.
    """
    n = problem.n
    G, h, tags = _one_sided(problem.A_in, problem.lower, problem.upper)
    E, b = _independent_rows(problem.A_eq, problem.b_eq)
    if len(E) < len(problem.A_eq):
        # Dropped rows must still be consistent with the kept ones.
        x_test, *_ = np.linalg.lstsq(problem.A_eq, problem.b_eq, rcond=None)
        if np.linalg.norm(problem.A_eq @ x_test - problem.b_eq, np.inf) > 1e-7:
            return QPSolution(x=np.zeros(n), status="infeasible", iterations=0,
                              eq_residual=np.inf, ineq_violation=np.inf,
                              stationarity=np.inf)
    if max_iter is None:
        max_iter = 50 + 10 * (n + len(G))

    core = _Core(problem.H, problem.F, E, b, G, h)

    # Start on the equality manifold, as close to the warm point as possible.
    x0 = np.zeros(n)
    warm_ws = []
    if warm_start is not None:
        wx, wws = warm_start
        if wx is not None and len(wx) == n:
            x0 = np.asarray(wx, dtype=float).copy()
        warm_ws = [w for w in (wws or []) if 0 <= w < len(G)]
    if len(E):
        resid = E @ x0 - b
        if np.linalg.norm(resid, np.inf) > 1e-12:
            corr, *_ = np.linalg.lstsq(E, resid, rcond=None)
            x0 = x0 - corr

    x0, working, feasible = _feasible_start(core, x0, max_iter)
    if not feasible:
        return QPSolution(x=x0, status="infeasible", iterations=0,
                          eq_residual=float(np.linalg.norm(E @ x0 - b, np.inf)) if len(E) else 0.0,
                          ineq_violation=float((G @ x0 - h).max()) if len(G) else 0.0,
                          stationarity=np.inf)
    if warm_ws and not working:
        # Adopt warm working rows that are genuinely active at the start and
        # independent of the equalities and each other.
        viol = G @ x0 - h
        basis = E.copy()
        adopted = []
        for w in warm_ws:
            if abs(viol[w]) > 1e-9 * core.scale:
                continue
            row = G[w]
            if len(basis):
                coef, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
                if np.linalg.norm(row - basis.T @ coef) <= 1e-10 * max(1.0, np.linalg.norm(row)):
                    continue
            basis = np.vstack([basis, row]) if len(basis) else row[None, :]
            adopted.append(w)
        working = adopted

    x, working, iters, status = core.run(x0, working, max_iter)

    duals_eq = np.zeros(len(problem.A_eq))
    duals_in = np.zeros(len(G))
    stationarity = np.inf
    if status == "optimal":
        C = np.vstack([E, G[working]]) if (len(E) or working) else np.zeros((0, n))
        g = problem.H @ x + problem.F
        if len(C):
            lam, *_ = np.linalg.lstsq(C.T, -g, rcond=None)
            stationarity = float(np.linalg.norm(g + C.T @ lam, np.inf))
            mu_eq = lam[:len(E)]
            # Report duals against the original (unfiltered) equality rows.
            if len(E) == len(problem.A_eq):
                duals_eq = mu_eq
            for w, val in zip(working, lam[len(E):]):
                duals_in[w] = max(val, 0.0)
        else:
            stationarity = float(np.linalg.norm(g, np.inf))
    eq_residual = float(np.linalg.norm(problem.A_eq @ x - problem.b_eq, np.inf)) if len(problem.A_eq) else 0.0
    ineq_violation = float(max(0.0, (G @ x - h).max())) if len(G) else 0.0
    return QPSolution(x=x, status=status, iterations=iters,
                      eq_residual=eq_residual, ineq_violation=ineq_violation,
                      stationarity=stationarity, duals_eq=duals_eq,
                      duals_in=duals_in, working_set=list(working))
