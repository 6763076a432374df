"""Dense convex quadratic programming by the dual method of Goldfarb & Idnani.

The equalities are eliminated first: one SVD of A_eq gives its rank, a
consistency check (inconsistent rows make the problem infeasible), a
particular solution x0 and an orthonormal null-space basis Z, so that
x = x0 + Z y.  The reduced Hessian Z'HZ is factored once as L L', and the
substitution y = L^-T w turns the objective into 1/2 |w|^2 + c'w, so every
step below works in the identity metric.

The dual active-set method (Goldfarb & Idnani, Math. Programming 27, 1983)
then starts at the unconstrained minimizer w = -c, which is dual feasible
with no rows active, and keeps dual feasibility throughout: each step adds
the most violated one-sided row (ties to the lowest index) and moves the
primal point and the multipliers along the path that keeps the active rows
tight.  When a multiplier reaches zero first, that row is dropped (a partial
step) and the same row is tried again.  A violated row that gives a zero
primal step while no active multiplier can shrink is a Farkas certificate
of infeasibility.  No feasible start is needed, so there is no phase 1.  The
reduced dimension is small, so the active-set system is re-solved by QR at
each step rather than updated.

Everything is plain numpy with fixed tie-breaking, so identical inputs give
bitwise-identical solutions.
"""

from dataclasses import dataclass, field

import numpy as np

_EQ_TOL = 1e-7       # equality consistency, absolute
_RANK_TOL = 1e-10    # singular values of A_eq, relative to the largest
_VIOL_TOL = 1e-10    # row violation, relative to 1 + max |h|
_ZERO_STEP = 1e-10   # primal step norm, relative to the row norm


@dataclass
class QPProblem:
    """min 1/2 x'Hx + F'x  s.t.  A_eq x = b_eq,  lower <= A_in x <= upper.

    H must be symmetric and positive definite on the null space of A_eq; it
    may be singular on the whole space.  Otherwise the Cholesky factor of
    the reduced Hessian does not exist and solve_qp raises LinAlgError.
    """

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
    stationarity: float
    duals_in: np.ndarray = None      # per one-sided row, see _one_sided
    working_set: list = field(default_factory=list)   # final active rows


def _one_sided(A_in, lower, upper):
    """Expand two-sided rows into G x <= h: row i of A_in gives its upper
    row, then its lower row, each when finite."""
    keep = np.stack([np.isfinite(upper), np.isfinite(lower)], axis=1)
    return (np.stack([A_in, -A_in], axis=1)[keep],
            np.stack([upper, -lower], axis=1)[keep])


def solve_qp(problem):
    """Solve a convex QP; see QPProblem for the form and the contract.

    Status is 'optimal', 'infeasible' (inconsistent equalities, or a
    certificate from the dual iteration), or 'maxiter' if the internal
    guard of 50 + 10 (n + rows) steps runs out.
    """
    n = problem.n
    G, h = _one_sided(problem.A_in, problem.lower, problem.upper)
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

    active, u, j = [], np.zeros(0), None
    status, it, max_iter = "maxiter", 0, 50 + 10 * (n + len(G))
    while True:
        if j is None:
            viol = B @ w - d
            viol[active] = -np.inf
            if np.all(viol <= tol):
                status = "optimal"
                break
            j, t_plus = int(np.argmax(viol)), 0.0
        if it == max_iter:
            break
        it += 1
        # Path that raises row j's multiplier t_plus while the active rows
        # stay tight: w moves along z and the active multipliers along r.
        Qa, R = np.linalg.qr(B[active].T)
        v = Qa.T @ B[j]
        z = Qa @ v - B[j]
        r = -np.linalg.solve(R, v)
        shrink = r < 0.0
        ratios = np.full(len(u), np.inf)
        ratios[shrink] = u[shrink] / -r[shrink]
        t_dual = ratios.min(initial=np.inf)
        full = np.linalg.norm(z) > _ZERO_STEP * np.linalg.norm(B[j])
        if not full and t_dual == np.inf:
            status = "infeasible"
            break
        t_primal = (B[j] @ w - d[j]) / (z @ z) if full else np.inf
        t = min(t_primal, t_dual)
        if full:
            w = w + t * z
        u = np.maximum(u + t * r, 0.0)
        t_plus += t
        if t_primal <= t_dual:
            active.append(j)
            u = np.append(u, t_plus)
            j = None
        else:
            drop = int(np.argmin(ratios))
            del active[drop]
            u = np.delete(u, drop)

    x = x0 + M @ w
    duals[active] = u
    stationarity = np.inf
    if status == "optimal":
        g = problem.H @ x + problem.F + G[active].T @ u
        stationarity = float(np.abs(Z @ (Z.T @ g)).max())
    return QPSolution(x=x, status=status, iterations=it,
                      stationarity=stationarity, duals_in=duals,
                      working_set=active)
