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

The elimination and the factor depend on H and A_eq alone, and a planner
re-solves the same pair often: agents with one layout share it, and a
relaxed retry keeps its dense pass's pair.  So `_factor` keeps the SVD,
rank, Z and M of the last 16 distinct pairs, keyed on their exact bytes
and shape, and returns them read-only; each solve computes only x0, w, the
rows B = A_in M and their slack from them.

The vectors and products are numpy, and every reduction is the same numpy
call on the same operands on every path.  The dual loop keeps its scalar
bookkeeping (the ratio test and the multiplier update, both elementwise)
on Python floats, which round as numpy's elementwise operations do.  With
fixed tie-breaking, identical inputs give bitwise-identical solutions,
from a cold memo or a warm one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_EQ_TOL = 1e-7       # equality consistency, absolute
_RANK_TOL = 1e-10    # singular values of A_eq, relative to the largest
_VIOL_TOL = 1e-10    # row violation, relative to 1 + max |h|
_ZERO_STEP = 1e-10   # primal step norm, relative to the row norm
_FACTOR_MEMO = 16    # distinct (H, A_eq) pairs whose factors are kept


@dataclass
class QPProblem:
    """min 1/2 x'Hx + F'x  s.t.  A_eq x = b_eq,  A_in x <= b_in.

    Every row of A_in is one-sided with a finite bound: a two-sided limit
    is two rows, and a side with no bound is no row.  H is (n, n), both
    blocks have n columns and a right-hand side of one value per row, and
    every entry is finite; anything else raises ValueError here.  H must
    be symmetric and positive definite on the null space of A_eq; it may
    be singular on the whole space.  Otherwise the Cholesky factor of the reduced Hessian does not
    exist and solve_qp raises LinAlgError, also when the equalities are
    inconsistent.
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
        for name in ("H", "F"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for side in ("eq", "in"):
            A, b = getattr(self, f"A_{side}"), getattr(self, f"b_{side}")
            if A is None:
                A, b = np.zeros((0, n)), np.zeros(0)
            elif b is None:
                raise ValueError(f"A_{side} needs b_{side}")
            else:
                A = np.atleast_2d(np.asarray(A, dtype=float))
                b = np.atleast_1d(np.asarray(b, dtype=float))
            if A.ndim != 2 or A.shape[1] != n:
                raise ValueError(f"A_{side} must have {n} columns, "
                                 f"got {A.shape}")
            if b.shape != (len(A),):
                raise ValueError(f"b_{side} must be ({len(A)},), "
                                 f"got {b.shape}")
            if not np.isfinite(A).all():
                raise ValueError(f"A_{side} must be finite")
            if not np.isfinite(b).all():
                raise ValueError(f"b_{side} must be finite"
                                 + ("; leave an unbounded row out"
                                    if side == "in" else ""))
            setattr(self, f"A_{side}", A)
            setattr(self, f"b_{side}", b)

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


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def _factor(H, A_eq, shape):
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


def solve_qp(problem):
    """Solve a convex QP; see QPProblem for the form and the contract.

    Status is 'optimal', 'infeasible' (inconsistent equalities, or a
    certificate from the dual iteration), or 'maxiter' if the internal
    guard of 50 + 10 (n + rows) steps runs out.
    """
    n = problem.n
    G, h = problem.A_in, problem.b_in
    duals = np.zeros(len(G))

    U, S, Vt, rank, Z, M = _factor(problem.H.tobytes(),
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
