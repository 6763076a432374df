"""Uniform B-splines on an equally spaced knot grid.

A spline of degree l with m control points uses knots t0 + k*dt for
k = 0..m+l and is well defined on [t0 + l*dt, t0 + m*dt].  Its order-th
derivative is again a uniform B-spline, of degree l-order with m-order
control points `difference_matrix(m, dt, order) @ control` and its origin
knot order*dt later, so linear maps from control points to sampled positions
or derivatives are banded with at most l+1 nonzeros per row.

`basis_weights` is the only evaluator of the basis: one Cox-de Boor
recursion, run column by column in Python arithmetic for one time (a
float) and level by level in whole-array numpy arithmetic for many (an
array), with the same operations on every element.  Trajectories, the
linear maps and the Gram matrices all take their rows from it.  Its
arithmetic forms are those of the per-time loops it replaced, so that
batched and per-time results agree bit for bit:

- every column is accumulated from 0.0 in the order of the per-time loop:
  the array path writes the loop's `0.0 + x` and `(0.0 + x) + y` as such;
- values are `np.matmul(w[..., None, :], c[idx])`, which rounds each row
  like one time's `w @ c[idx]` (einsum and elementwise sums do not);
- a derivative's origin knot is reached by repeated `t0 + dt`, and times
  are clamped to that derivative's own domain;
- `derivative_gram` keeps its `t0 + order*dt` origin and adds node by node.

The float path stays for speed: float times sent through the array path
cost 7.8% / 1.2% of the benchmark's clutter_waypoints / swarm_swap real-time
factor, and 4.2-8.2% on all three workloads with `ExecutedPath.state` routed
through `states` too (2-core x86-64 VM, 6 and 10 alternating run pairs).

`derivative_gram` integrates with Gauss-Legendre nodes on every knot
interval.  A Gram depends only on the knot topology (degree, m, dt), so it
is built on the layout that starts at t = 0, and a run's Grams never
depend on what ran before it.  `difference_matrix` is cached per (m, dt,
order) and `derivative_gram` per (degree, m, dt, order); both return
read-only arrays, which every caller shares.

`_active_basis` is memoized on its exact arguments: the grid (degree, t0,
dt, m), the derivative order and the times, a float time by its value and
an array of times by its shape and bytes; `_many` tells the two apart by
isinstance, not by the Python-level np.ndim.  A miss runs the evaluator on
the same values, so a hit returns the very (idx, w) a fresh call would
compute; both arrays are read-only, since every caller that asks for the
same key shares them.  A time outside the domain raises on every call, as
exceptions are never cached.  Agents that plan at the same tick build the
same layout and ask for the same rows, so most hits come from peers.  A
`TrajectorySpline` keeps each derivative's control points after their
first use.  The memo's body, `_grid_basis`, also takes one grid per time
(arrays of origins and control counts): `ExecutedPath.states`, the
trajectory table's read, evaluates every commit of a degree and knot
spacing in one call, without the memo, whose keys would never repeat.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

_DOMAIN_TOL = 1e-9

# Knot segments added to a layout whose goal time falls on its domain end.
EXTENSION_SEGMENTS = 2


def _many(t):
    """Whether t is many times (an array or a list), not one (a float, an
    int or a 0-d array)."""
    if isinstance(t, np.ndarray):
        return t.ndim > 0
    return not isinstance(t, float) and np.ndim(t) > 0


def basis_weights(degree, u):
    """Weights of the degree+1 basis functions active at local coordinate u.

    u = (t - t0 - j*dt)/dt lies in [0, 1] on knot interval j, and the value
    there is sum_i w[..., i] * c[j - degree + i].  u is a float, giving w of
    shape (degree+1,), or an array, giving u.shape + (degree+1,).
    """
    if not _many(u):
        cols = [1.0]
        for k in range(1, degree + 1):
            nxt = [0.0] * (k + 1)
            for i, w in enumerate(cols):
                a = (u + (k - 1 - i)) / k
                nxt[i] = nxt[i] + (1.0 - a) * w
                nxt[i + 1] = nxt[i + 1] + a * w
            cols = nxt
        return np.array(cols)
    # The same recursion one level at a time, basis index first: column i
    # of level k is (0.0 + a[i-1]*w[i-1]) + (1-a[i])*w[i], the loop's sums
    # in its order.
    u = np.asarray(u)
    # shifted[i] = u + (degree - 1 - i); level k takes the last k rows.
    shifted = u + np.arange(degree - 1, -1, -1.0).reshape(
        (-1,) + (1,) * u.ndim)
    w = np.ones((1,) + u.shape)
    for k in range(1, degree + 1):
        a = shifted[degree - k:] / k
        up = 0.0 + a * w
        down = (1.0 - a) * w
        w = np.concatenate([0.0 + down[:1], up[:-1] + down[1:], up[-1:]])
    return w.transpose(*range(1, w.ndim), 0).copy()


def _active_basis(degree, t0, dt, m, t, order=0):
    """(idx, w): the basis of the order-th derivative spline active at t.

    Values there are w @ c[idx] for that spline's control points c, row by
    row for an array t; idx and w have shape t.shape + (degree-order+1,).
    Times within _DOMAIN_TOL of the derivative's own domain are clamped into
    it; farther ones raise ValueError.  One time (a float, an int or a 0-d
    array) takes Python arithmetic, many (an array or a list) numpy's, with
    the same operations in the same order; `_many` decides.  Both arrays
    come from a memo and are read-only.
    """
    if _many(t):
        t = np.asarray(t, dtype=float)
        return _memo_basis(degree, t0, dt, m, order, (t.shape, t.tobytes()))
    return _memo_basis(degree, t0, dt, m, order, float(t))


@functools.lru_cache(maxsize=64)
def _memo_basis(degree, t0, dt, m, order, t):
    """_active_basis on a hashable time: a float, or an array's (shape,
    bytes)."""
    if not isinstance(t, float):
        shape, data = t
        t = np.frombuffer(data).reshape(shape)
    return _grid_basis(degree, t0, dt, m, order, t)


def _grid_basis(degree, t0, dt, m, order, t):
    """The memo's body: (idx, w) at a float t on one grid, or at an array t
    whose grid origins t0 and control counts m are scalars or arrays of
    t's shape, one grid per time.  Every operation is elementwise, so a
    time's row is the same on its own grid or among others'.  The caller
    passes t as a float or an ndarray."""
    for _ in range(order):
        t0 = t0 + dt
    degree, m = degree - order, m - order
    lo, hi = t0 + degree * dt, t0 + m * dt
    if isinstance(t, float):
        if t < lo - _DOMAIN_TOL or t > hi + _DOMAIN_TOL:
            raise ValueError(f"t={t} outside spline domain [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        j = min(max(math.floor((t - t0) / dt + _DOMAIN_TOL), degree), m - 1)
    else:
        t = np.asarray(t, dtype=float)
        outside = (t < lo - _DOMAIN_TOL) | (t > hi + _DOMAIN_TOL)
        if outside.any():
            at = outside.argmax()
            lo, hi = (np.broadcast_to(v, t.shape).flat[at] for v in (lo, hi))
            raise ValueError(f"t={t.flat[at]} outside spline domain [{lo}, {hi}]")
        t = np.minimum(np.maximum(t, lo), hi)
        j = np.floor((t - t0) / dt + _DOMAIN_TOL).astype(int)
        j = np.minimum(np.maximum(j, degree), m - 1)
    w = basis_weights(degree, (t - (t0 + j * dt)) / dt)
    idx = np.add.outer(j - degree, np.arange(degree + 1))
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


@functools.lru_cache(maxsize=256)
def difference_matrix(m, dt, order):
    """(m-order, m) matrix mapping control points to order-th derivative
    controls; cached, so it is read-only."""
    D = np.eye(m)
    for _ in range(order):
        n = D.shape[0]
        S = np.zeros((n - 1, n))
        idx = np.arange(n - 1)
        S[idx, idx] = -1.0 / dt
        S[idx, idx + 1] = 1.0 / dt
        D = S @ D
    D.setflags(write=False)
    return D


@dataclass(frozen=True)
class KnotLayout:
    """Knot grid for one replanning cycle.

    t_start is the current time; the spline origin sits degree knots earlier
    so the domain begins exactly at t_start.  horizon is the domain length.
    """

    degree: int
    t0: float
    dt: float
    m: int
    t_start: float
    horizon: float

    @property
    def t_end(self):
        return self.t_start + self.horizon


def plan_knot_layout(t_now, horizon, dt, degree, goal_time=None):
    """Choose the knot grid for a replanning cycle starting at t_now.

    The horizon is rounded up to a whole number of knot segments.  When the
    goal time falls exactly on the domain end the grid is extended by
    EXTENSION_SEGMENTS so that end conditions there do not pin the spline
    against the last controls.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("horizon and knot spacing must be positive")
    segs = max(1, int(np.ceil(horizon / dt - 1e-9)))
    if goal_time is not None:
        rel = goal_time - t_now
        if rel > 0 and abs(rel - segs * dt) <= 1e-9:
            segs += EXTENSION_SEGMENTS
    m = degree + segs
    t0 = t_now - degree * dt
    return KnotLayout(degree=degree, t0=t0, dt=dt, m=m, t_start=t_now, horizon=segs * dt)


class TrajectorySpline:
    """Planar trajectory: one uniform B-spline per axis on a shared knot grid.

    control is (m, 2) holding x and y control points columnwise; it must
    not change after construction, since each derivative's control points
    are kept after their first use.
    """

    __slots__ = ("degree", "t0", "dt", "control", "_controls")

    def __init__(self, degree, t0, dt, control):
        control = np.asarray(control, dtype=float)
        if control.ndim != 2 or control.shape[1] != 2:
            raise ValueError("trajectory control points must be (m, 2)")
        if len(control) < degree + 1:
            raise ValueError(f"need at least degree+1={degree + 1} control points, got {len(control)}")
        if dt <= 0:
            raise ValueError("knot spacing must be positive")
        self.degree = int(degree)
        self.t0 = float(t0)
        self.dt = float(dt)
        self.control = control
        self._controls = {0: control}

    @classmethod
    def from_layout(cls, layout, control):
        return cls(layout.degree, layout.t0, layout.dt, control)

    @property
    def m(self):
        return len(self.control)

    @property
    def domain(self):
        return (self.t0 + self.degree * self.dt, self.t0 + self.m * self.dt)

    def clamp_time(self, t):
        lo, hi = self.domain
        return min(max(t, lo), hi)

    def _evaluate(self, t, order):
        """order-th derivative: (2,) at a float t, (n, 2) at an array of n."""
        if order > self.degree:
            return np.zeros(np.shape(t) + (2,))
        c = self.derivative_control(order)
        idx, w = _active_basis(self.degree, self.t0, self.dt, self.m, t, order)
        return np.matmul(w[..., None, :], c[idx])[..., 0, :]

    def derivative_control(self, order):
        """(m-order, 2) control points of the order-th derivative spline,
        `difference_matrix(m, dt, order) @ control`, computed once per order
        and read-only; order 0 is `control` itself."""
        c = self._controls.get(order)
        if c is None:
            c = difference_matrix(self.m, self.dt, order) @ self.control
            c.setflags(write=False)
            self._controls[order] = c
        return c

    def position(self, t):
        return self._evaluate(t, 0)

    def positions(self, times):
        return self._evaluate(times, 0)

    def derivative_value(self, t, order):
        return self._evaluate(t, order)

    def derivative_values(self, times, order):
        return self._evaluate(times, order)

    def state_stack(self, t, n_orders):
        """(n_orders, 2) stack of derivative orders 0..n_orders-1 at t."""
        return np.array([self._evaluate(t, k) for k in range(n_orders)])


def position_map(layout, times):
    """Rows T with T @ control = positions at `times` (see derivative_map)."""
    return derivative_map(layout, times, 0)


def derivative_map(layout, times, order):
    """Rows mapping control points to order-th derivatives at `times`.

    One (m,) row for a float time, (len(times), m) for a 1-D array of times.
    """
    if order > layout.degree:
        return np.zeros(np.shape(times) + (layout.m,))
    idx, w = _active_basis(layout.degree, layout.t0, layout.dt, layout.m,
                           times, order)
    rows = np.zeros(idx.shape[:-1] + (layout.m - order,))
    # A row's active basis is the consecutive run idx[..., 0] ... idx[..., -1].
    if idx.ndim == 1:
        rows[idx[0]:idx[-1] + 1] = w
    else:
        rows[np.arange(len(idx))[:, None], idx] = w
    if order == 0:
        # difference_matrix(m, dt, 0) is the identity, and rows @ I would
        # give rows back bit for bit: no weight is -0.0, since every column
        # of the basis is accumulated from 0.0.
        return rows
    return rows @ difference_matrix(layout.m, layout.dt, order)


@functools.lru_cache(maxsize=64)
def derivative_gram(degree, m, dt, order):
    """(m, m) Gram matrix G with c' G c = the integral over the domain of
    (d^order s/dt^order)^2, for a spline of this degree, control count and
    knot spacing.

    The Gram depends only on that knot topology, so it is built once, on
    the layout whose domain starts at t = 0, with Gauss-Legendre quadrature
    exact for the piecewise-polynomial integrand.  G is symmetric positive
    semidefinite; cached, so it is read-only.
    """
    G = np.zeros((m, m))
    deg_d, m_d = degree - order, m - order
    if deg_d >= 0:
        nodes, weights = np.polynomial.legendre.leggauss(deg_d + 1)
        knots = np.arange(m - degree + 1) * dt
        a, b = knots[:-1], knots[1:]
        half = 0.5 * (b - a)[:, None]
        ts, ws = half * nodes + 0.5 * (b + a)[:, None], half * weights
        idx, rows = _active_basis(deg_d, -degree * dt + order * dt, dt, m_d,
                                  ts.ravel())
        G_d = np.zeros((m_d, m_d))
        for ix, row, w in zip(idx, rows, ws.ravel()):
            G_d[np.ix_(ix, ix)] += w * np.outer(row, row)
        D = difference_matrix(m, dt, order)
        G = D.T @ G_d @ D
    G.setflags(write=False)
    return G
