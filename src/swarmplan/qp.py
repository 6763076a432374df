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
violation), so the path does not depend on how a row is scaled; an
active row's slack is +inf, so its violation is -inf.  The select step
takes the argmax of that score over all rows first: when its row is over
tol, it is the over-tol rows' argmax too, and only otherwise are the rows
within tol masked out (which also finds the end, and a NaN row).  The
factors of the active set are updated, not rebuilt: an orthonormal J whose
first q columns span the active rows, and an upper-triangular R with
B_active' = J[:, :q] R, kept together with its inverse.  Adding a row is
one Householder reflection of J[:, q:] and a new column of R; dropping one
is a sweep of Givens rotations that re-triangularizes R, applied to the
columns of J and of R^-1 alike.

The elimination depends on A_eq alone and the factor on H and A_eq, and a
planner re-solves the same blocks often: agents with one layout share
their equality block, cycles with obstacles bring a new H to it, and a
relaxed retry keeps its dense pass's pair.  So two memos keep them, each
for its last 16 distinct keys, keyed on exact bytes and shape and
read-only: `_eliminate` Z and the views of the SVD that a solve reads,
per equality block; `_factor` M, M' and the loop's first factors, per
(H, A_eq) pair.  Each solve computes only x0, w, the rows B = A_in M and
their slack from them.  Each array is checked once:
QPProblem checks what it is built from, `with_rows` appends rows to A_in
checking only those, and `with_checked_rows` appends rows that
`_checked_rows` has already returned.

The vectors and products are numpy, and every reduction is the same numpy
call on the same operands on every path.  The dual loop keeps its scalar
bookkeeping (the ratio test, the multiplier update and each rotation's
cosine and sine, all elementwise) on Python floats, which round as
numpy's elementwise operations do.  With fixed tie-breaking, identical
inputs give bitwise-identical solutions, from cold memos or warm ones.
"""

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

_EQ_TOL = 1e-7       # equality consistency, absolute
_RANK_TOL = 1e-10    # singular values of A_eq, relative to the largest
_VIOL_TOL = 1e-10    # row violation, relative to 1 + max |h|
_ZERO_STEP = 1e-10   # primal step norm, relative to the row norm
_FACTOR_MEMO = 16    # distinct A_eq blocks, and (H, A_eq) pairs, kept


def _checked_rows(A, b, n, side):
    """Float rows A and right-hand sides b with n columns, one value per
    row and every entry finite; anything else raises ValueError."""
    A = np.array(A, dtype=float, copy=None, ndmin=2)
    b = np.array(b, dtype=float, copy=None, ndmin=1)
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"A_{side} must have {n} columns, got {A.shape}")
    if b.shape != (len(A),):
        raise ValueError(f"b_{side} must be ({len(A)},), got {b.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"A_{side} must be finite")
    if not np.isfinite(b).all():
        raise ValueError(f"b_{side} must be finite"
                         + ("; leave an unbounded row out"
                            if side == "in" else ""))
    return A, b


@dataclass
class QPProblem:
    """min 1/2 x'Hx + F'x  s.t.  A_eq x = b_eq,  A_in x <= b_in.

    Every row of A_in is one-sided with a finite bound: a two-sided limit
    is two rows, and a side with no bound is no row.  H is (n, n), both
    blocks have n columns and a right-hand side of one value per row, and
    every entry is finite; anything else raises ValueError here.  H must
    be symmetric and positive definite on the null space of A_eq; it may
    be singular on the whole space.  Otherwise the Cholesky factor of the
    reduced Hessian does not exist and solve_qp raises LinAlgError, also
    when the equalities are inconsistent.
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
                A, b = _checked_rows(A, b, n, side)
            setattr(self, f"A_{side}", A)
            setattr(self, f"b_{side}", b)

    def with_rows(self, A, b):
        """This problem with the rows A x <= b appended to A_in, checking
        only them; every other array was checked when self was built."""
        return self.with_checked_rows(*_checked_rows(A, b, self.n, "in"))

    def with_checked_rows(self, A, b):
        """`with_rows` of rows that `_checked_rows` returned for this n,
        appended as they are, without a second check."""
        grown = copy.copy(self)
        grown.A_in = np.concatenate([self.A_in, A])
        grown.b_in = np.concatenate([self.b_in, b])
        return grown

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
def _eliminate(A_eq, shape):
    """(Z, V, Ut, S_r) of the A_eq bytes of shape (k, n): from the SVD
    A_eq = U S Vt of rank r the null-space basis Z = Vt[r:]' and the views
    Vt[:r]', U[:, :r]' and S[:r].  Every array is read-only."""
    U, S, Vt = np.linalg.svd(np.frombuffer(A_eq).reshape(shape))
    rank = int(np.add.reduce(S > _RANK_TOL * S.max(initial=0.0)))
    entries = (Vt[rank:].T, Vt[:rank].T, U[:, :rank].T, S[:rank])
    for a in entries:
        a.setflags(write=False)
    return entries


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def _factor(H, A_eq, shape):
    """(Z, M, V, Ut, S_r, Mt, JR) of the H and A_eq bytes of shape (n, k):
    `_eliminate`'s Z, V, Ut and S_r of A_eq, M with M'HM = I on the null
    space, M' and the first J over R^-1 (I over 0).  Every array is
    read-only."""
    n, k = shape
    H = np.frombuffer(H).reshape(n, n)
    Z, V, Ut, S_r = _eliminate(A_eq, (k, n))
    L = np.linalg.cholesky(Z.T @ H @ Z)
    M = np.linalg.solve(L, Z.T).T            # x = x0 + M w, M'HM = I
    Mt, JR = M.T, np.eye(2 * M.shape[1], M.shape[1])
    for a in (M, Mt, JR):
        a.setflags(write=False)
    return Z, M, V, Ut, S_r, Mt, JR


def solve_qp(problem):
    """Solve a convex QP; see QPProblem for the form and the contract.

    Status is 'optimal', 'infeasible' (inconsistent equalities, or a
    certificate from the dual iteration), or 'maxiter' if the internal
    guard of 50 + 10 (n + rows) steps runs out.
    """
    n = problem.n
    G, h = problem.A_in, problem.b_in
    duals = np.zeros(len(G))

    Z, M, V, Ut, S_r, Mt, JR0 = _factor(problem.H.tobytes(),
                                        problem.A_eq.tobytes(),
                                        (n, len(problem.A_eq)))
    x0 = V @ ((Ut @ problem.b_eq) / S_r)
    if (np.abs(problem.A_eq @ x0 - problem.b_eq) > _EQ_TOL).any():
        return QPSolution(x=x0, status="infeasible", iterations=0,
                          stationarity=np.inf, duals_in=duals)
    # -M'g as M'(-g): the same products, without negating M'.
    w = Mt @ np.negative(problem.H @ x0 + problem.F)
    B = G @ M
    d = h - G @ x0
    tol = _VIOL_TOL * (1.0 + np.maximum.reduce(np.abs(h), initial=0.0))
    norms = np.sqrt(np.add.reduce(np.square(B), axis=1))
    norms[norms == 0.0] = 1.0

    # J (orthonormal) and Rinv = R^-1 stacked, so that one rotation of
    # their shared columns moves both; u holds the active multipliers as
    # Python floats; each step rewrites viol, score and neg_v in place.
    # slack is d with +inf on the active rows, so their violation is -inf.
    p = B.shape[1]
    slack = d.copy()
    JR = JR0.copy()
    J, Rinv = JR[:p], JR[p:]
    R = np.zeros((p, p))
    (viol, score), neg_v = np.empty((2, len(G))), np.empty(p)
    u = []
    active, j = [], None
    status, it, max_iter = "optimal", 0, 50 + 10 * (n + len(G))
    while len(G):     # with no rows, w = -c is the optimum
        if j is None:
            np.matmul(B, w, out=viol)
            viol -= slack
            j = int(np.divide(viol, norms, out=score).argmax())
            if not viol[j] > tol:
                over = viol > tol
                j = int(np.where(over, score, -np.inf).argmax())
                # Row j is over tol unless none is (or a NaN row is neither).
                if not over[j] and (viol <= tol).all():
                    break
            b_j, d_j, norm_j = B[j], float(d[j]), float(norms[j])
            t_plus = 0.0
        if it == max_iter:
            status = "maxiter"
            break
        it += 1
        # Path that raises row j's multiplier t_plus while the active rows
        # stay tight: w moves along z and the active multipliers along r.
        q = len(active)
        v = b_j @ J
        v_free, J_free = v[q:], J[:, q:]
        np.negative(v, out=neg_v)
        z = J_free @ neg_v[q:]
        r = Rinv[:q, :q] @ neg_v[:q] if q else neg_v[:0]
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
            w += t * z
        # Clamp as np.maximum(., 0.0) does: -0.0 becomes 0.0, NaN stays.
        for i, r_i in enumerate(r_list):
            u_i = u[i] + t * r_i
            u[i] = u_i if u_i > 0.0 or u_i != u_i else 0.0
        t_plus += t
        if t_primal <= t_dual:
            # Reflect v[q:] onto alpha e_1: J[:, q] joins the active span.
            v_q = float(v[q])
            alpha = -math.copysign(z_norm, v_q)
            house = v_free.copy()
            house[0] = v_q - alpha
            J_free -= np.multiply.outer(J_free @ house,
                                        house / (z_norm**2 - alpha * v_q))
            R[:q, q] = v[:q]
            R[q, q] = alpha
            Rinv[:q, q] = r / alpha
            Rinv[q, q] = 1.0 / alpha
            u.append(t_plus)
            active.append(j)
            slack[j] = math.inf
            j = None
        else:
            # Delete the row's column of R and row of R^-1, then rotate the
            # Hessenberg remainder of R back to upper-triangular form.
            slack[active[drop]] = d[active[drop]]
            del active[drop], u[drop]
            R[:, drop:q - 1] = R[:, drop + 1:q]
            Rinv[drop:q - 1] = Rinv[drop + 1:q]
            for i in range(drop, q - 1):
                c, s = float(R[i, i]), float(R[i + 1, i])
                norm = math.hypot(c, s)
                c, s = c / norm, s / norm
                rot = np.array([[c, s], [-s, c]])
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
