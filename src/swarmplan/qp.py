"""Dense convex quadratic programming by the dual method of Goldfarb & Idnani.

The problem is min 1/2 x'Hx + F'x subject to A_eq x = b_eq and the
one-sided rows A_in x <= b_in, the form the method is stated in; a caller
with a two-sided limit passes it as two rows.  The equalities are
eliminated first: one SVD of A_eq gives its rank, a consistency check
(inconsistent rows make the problem infeasible), a particular solution x0
and an orthonormal null-space basis Z, so that x = x0 + Z y.  The reduced
Hessian Z'HZ is factored once as L L', and the substitution y = L^-T w
turns the objective into 1/2 |w|^2 + c'w, so every step below works in the
identity metric.

The dual active-set method (Goldfarb & Idnani, Math. Programming 27, 1983)
then starts at the unconstrained minimizer w = -c, which is dual feasible
with no rows active, and keeps dual feasibility throughout: each step adds
a violated row of A_in and moves the primal point and the multipliers
along the path that keeps the active rows tight.  When a multiplier reaches
zero first, that row is dropped (a partial step) and the same row is tried
again.  A violated row that gives a zero primal step while no active
multiplier can shrink is a Farkas certificate of infeasibility.  No
feasible start is needed, so there is no phase 1.

The row added is the one with the largest violation per unit norm in the
reduced space (ties to the lowest index; a zero row keeps its raw
violation), so the path does not depend on how a row is scaled.  The
factors of the active set are updated, not rebuilt: an orthonormal J whose
first q columns span the active rows, and an upper-triangular R with
B_active' = J[:, :q] R, kept together with its inverse.  Adding a row is one
Householder reflection of J[:, q:] and a new column of R; dropping one is a
sweep of Givens rotations that re-triangularizes R, applied to the columns
of J and of R^-1 alike.

Everything is plain numpy with fixed tie-breaking, so identical inputs give
bitwise-identical solutions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_EQ_TOL = 1e-7       # equality consistency, absolute
_RANK_TOL = 1e-10    # singular values of A_eq, relative to the largest
_VIOL_TOL = 1e-10    # row violation, relative to 1 + max |h|
_ZERO_STEP = 1e-10   # primal step norm, relative to the row norm


@dataclass
class QPProblem:
    """min 1/2 x'Hx + F'x  s.t.  A_eq x = b_eq,  A_in x <= b_in.

    Every row of A_in is one-sided with a finite bound: a two-sided limit
    is two rows, and a side with no bound is no row.  H must be symmetric
    and positive definite on the null space of A_eq; it may be singular on
    the whole space.  Otherwise the Cholesky factor of the reduced Hessian
    does not exist and solve_qp raises LinAlgError.
    """

    H: np.ndarray
    F: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_in: np.ndarray = None
    b_in: np.ndarray = None

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
            self.b_in = np.zeros(0)
        else:
            self.A_in = np.atleast_2d(np.asarray(self.A_in, dtype=float))
            self.b_in = np.atleast_1d(np.asarray(self.b_in, dtype=float))
        if self.b_in.shape != (len(self.A_in),):
            raise ValueError(f"b_in must be ({len(self.A_in)},), "
                             f"got {self.b_in.shape}")
        if not np.isfinite(self.b_in).all():
            raise ValueError("b_in must be finite; leave an unbounded row out")

    @property
    def n(self):
        return len(self.F)


@dataclass
class QPSolution:
    x: np.ndarray
    status: str                      # optimal | infeasible | maxiter
    iterations: int
    stationarity: float
    duals_in: np.ndarray = None      # one multiplier per row of A_in
    working_set: list = field(default_factory=list)   # active rows of A_in


def solve_qp(problem):
    """Solve a convex QP; see QPProblem for the form and the contract.

    Status is 'optimal', 'infeasible' (inconsistent equalities, or a
    certificate from the dual iteration), or 'maxiter' if the internal
    guard of 50 + 10 (n + rows) steps runs out.
    """
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
