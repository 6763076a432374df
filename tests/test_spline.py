"""Uniform B-spline machinery against scipy and quadrature oracles.

scipy.interpolate.BSpline on the same knot vector provides an independent
evaluator; Gram matrices are compared with dense numerical integration of
the squared derivative.  `TestEvaluatorParity` keeps the per-time evaluator
the package used before it had one shared basis evaluator, and requires the
shared one to reproduce it bit for bit.  `TestBasisCache` requires the
memoized basis to equal its uncached body bit for bit.
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline as SciBSpline

from swarmplan import bspline
from swarmplan.bspline import (TrajectorySpline, KnotLayout, basis_weights,
                               derivative_gram, derivative_map,
                               difference_matrix, plan_knot_layout, position_map)


def knots_of(s):
    return s.t0 + s.dt * np.arange(s.m + s.degree + 1)


def scipy_twin(s, axis):
    return SciBSpline(knots_of(s), s.control[:, axis], s.degree, extrapolate=False)


def random_trajectory(rng, degree=None, m=None):
    degree = degree if degree is not None else int(rng.integers(1, 6))
    m = m if m is not None else int(rng.integers(degree + 1, degree + 8))
    t0 = float(rng.uniform(-5, 5))
    dt = float(rng.uniform(0.2, 2.0))
    return TrajectorySpline(degree, t0, dt, rng.normal(size=(m, 2)) * 3)


def layout_of(s):
    lo, hi = s.domain
    return KnotLayout(degree=s.degree, t0=s.t0, dt=s.dt, m=s.m,
                      t_start=lo, horizon=hi - lo)


class TestBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        for degree in range(6):
            for u in rng.uniform(0.0, 1.0, size=10):
                w = basis_weights(degree, float(u))
                assert w.shape == (degree + 1,)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(w >= -1e-12)

    def test_matches_recursive_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_trajectory(rng, degree=int(rng.integers(1, 5)))
            lo, hi = s.domain
            ts = rng.uniform(lo, hi, size=4)
            got = position_map(layout_of(s), ts)
            want = SciBSpline.design_matrix(ts, knots_of(s), s.degree).toarray()
            assert np.allclose(got, want, atol=1e-12)

    def test_cubic_midknot_weights(self):
        # Degree-3 uniform basis at a knot: the classic 1/6, 4/6, 1/6 stencil.
        w = basis_weights(3, 0.0)
        assert np.allclose(sorted(w), [0.0, 1 / 6, 1 / 6, 4 / 6], atol=1e-12)


class TestEvaluation:
    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            s = random_trajectory(rng)
            twins = [scipy_twin(s, ax) for ax in range(2)]
            lo, hi = s.domain
            for t in rng.uniform(lo, hi - 1e-9, size=8):
                want = [float(tw(t)) for tw in twins]
                assert np.allclose(s.position(t), want, atol=1e-10)

    def test_derivatives_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            s = random_trajectory(rng, degree=int(rng.integers(2, 6)))
            lo, hi = s.domain
            for order in range(1, s.degree + 1):
                twins = [scipy_twin(s, ax).derivative(order) for ax in range(2)]
                for t in rng.uniform(lo, hi - 1e-9, size=4):
                    want = [float(tw(t)) for tw in twins]
                    assert np.allclose(s.derivative_value(t, order), want, atol=1e-8)

    def test_domain_enforced(self):
        s = TrajectorySpline(3, 0.0, 1.0, np.arange(12.0).reshape(6, 2))
        lo, hi = s.domain
        assert (lo, hi) == (3.0, 6.0)
        for bad in (lo - 0.1, hi + 0.1):
            with pytest.raises(ValueError):
                s.position(bad)
            with pytest.raises(ValueError):
                s.positions([lo, bad])
            with pytest.raises(ValueError):
                s.derivative_value(bad, 1)
        s.position(lo)
        s.position(hi)

    def test_constant_control_is_constant(self):
        s = TrajectorySpline(3, 0.0, 0.5, np.full((8, 2), 2.5))
        lo, hi = s.domain
        ts = np.linspace(lo, hi, 17)
        assert np.allclose(s.positions(ts), 2.5, atol=1e-12)
        assert np.allclose(s.derivative_values(ts, 1), 0.0, atol=1e-12)


class TestDerivativeStructure:
    def test_difference_matrix_matches_derivative(self):
        # The first derivative is the degree-1 spline on knots shifted by dt
        # whose controls are D @ control, valid on the same domain.
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_trajectory(rng, degree=int(rng.integers(2, 5)))
            D = difference_matrix(s.m, s.dt, 1)
            d = TrajectorySpline(s.degree - 1, s.t0 + s.dt, s.dt, D @ s.control)
            assert d.domain[0] == pytest.approx(s.domain[0])
            assert d.domain[1] == pytest.approx(s.domain[1])
            ts = rng.uniform(*s.domain, size=6)
            assert np.allclose(d.positions(ts), s.derivative_values(ts, 1), atol=1e-12)

    def test_derivative_by_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_trajectory(rng, degree=int(rng.integers(2, 5)))
            lo, hi = s.domain
            h = 1e-6
            for t in rng.uniform(lo + 2 * h, hi - 2 * h, size=4):
                fd = (s.position(t + h) - s.position(t - h)) / (2 * h)
                assert np.allclose(s.derivative_value(t, 1), fd, atol=1e-5)


class TestMaps:
    def test_position_map_reproduces_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = random_trajectory(rng)
            lo, hi = s.domain
            ts = np.sort(rng.uniform(lo, hi, size=6))
            T = position_map(layout_of(s), ts)
            assert np.allclose(T @ s.control, s.positions(ts), atol=1e-12)
            # Band structure: at most degree+1 nonzeros per row.
            assert int(np.max(np.count_nonzero(np.abs(T) > 1e-14, axis=1))) <= s.degree + 1

    def test_derivative_map_reproduces_derivatives(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = random_trajectory(rng, degree=int(rng.integers(2, 5)))
            lo, hi = s.domain
            for order in range(1, s.degree + 1):
                ts = rng.uniform(lo, hi, size=4)
                Tm = derivative_map(layout_of(s), ts, order)
                assert np.allclose(Tm @ s.control, s.derivative_values(ts, order),
                                   atol=1e-9)


class TestGram:
    def quad_oracle(self, s, order, span):
        twin = scipy_twin(s, 0)
        twin = twin.derivative(order) if order else twin
        lo, hi = span
        ts = np.linspace(lo, hi, 20001)
        vals = np.nan_to_num(twin(ts))
        return float(np.trapezoid(vals ** 2, ts))

    def test_gram_equals_integral(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            s = random_trajectory(rng, degree=int(rng.integers(2, 5)))
            c = s.control[:, 0]
            for order in range(1, s.degree):
                G = derivative_gram(s.degree, s.m, s.dt, order)
                want = self.quad_oracle(s, order, s.domain)
                assert float(c @ G @ c) == pytest.approx(want, rel=1e-4, abs=1e-9)

    def test_gram_psd_and_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            s = random_trajectory(rng, degree=int(rng.integers(2, 6)))
            for order in range(1, s.degree + 1):
                G = derivative_gram(s.degree, s.m, s.dt, order)
                assert np.allclose(G, G.T, atol=1e-12)
                eig = np.linalg.eigvalsh(G)
                assert eig.min() >= -1e-9


class TestKnotLayout:
    def test_domain_starts_now(self):
        lay = plan_knot_layout(t_now=2.0, horizon=4.0, dt=1.0, degree=3)
        assert lay.t_start == pytest.approx(2.0)
        assert lay.horizon == pytest.approx(4.0)
        assert lay.m == 3 + 4
        assert lay.t0 == pytest.approx(2.0 - 3 * 1.0)
        assert lay.t_end == pytest.approx(6.0)

    def test_horizon_rounds_up_to_whole_segments(self):
        lay = plan_knot_layout(t_now=0.0, horizon=3.3, dt=1.0, degree=2)
        assert lay.horizon == pytest.approx(4.0)
        assert lay.m - lay.degree == 4

    def test_goal_at_domain_end_extends(self):
        lay = plan_knot_layout(t_now=1.0, horizon=4.0, dt=1.0, degree=3, goal_time=5.0)
        assert lay.m - lay.degree == 4 + 2
        assert lay.t_end == pytest.approx(7.0)

    def test_goal_elsewhere_does_not_extend(self):
        for goal_t in (3.0, 9.0, None):
            lay = plan_knot_layout(t_now=1.0, horizon=4.0, dt=1.0, degree=3, goal_time=goal_t)
            assert lay.m - lay.degree == 4

    def test_spline_from_layout_valid_on_horizon(self):
        lay = plan_knot_layout(t_now=0.0, horizon=4.0, dt=1.0, degree=3)
        traj = TrajectorySpline.from_layout(lay, np.zeros((lay.m, 2)))
        assert traj.domain[0] == pytest.approx(0.0)
        assert traj.domain[1] == pytest.approx(4.0)


class TestTrajectorySpline:
    def test_axes_are_independent(self):
        rng = np.random.default_rng(37)
        traj = TrajectorySpline(3, 0.0, 0.5, rng.normal(size=(9, 2)))
        twins = [scipy_twin(traj, ax) for ax in range(2)]
        lo, hi = traj.domain
        for t in np.linspace(lo, hi - 1e-9, 9):
            p = traj.position(t)
            assert p[0] == pytest.approx(float(twins[0](t)), abs=1e-12)
            assert p[1] == pytest.approx(float(twins[1](t)), abs=1e-12)

    def test_state_stack(self):
        rng = np.random.default_rng(41)
        traj = TrajectorySpline(3, 0.0, 1.0, rng.normal(size=(8, 2)))
        st = traj.state_stack(4.0, 3)
        assert st.shape == (3, 2)
        for k in range(3):
            assert np.array_equal(st[k], traj.derivative_value(4.0, k))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(43)
        traj = TrajectorySpline(4, -1.0, 0.7, rng.normal(size=(10, 2)))
        lo, hi = traj.domain
        ts = rng.uniform(lo, hi, size=12)
        P = traj.positions(ts)
        V = traj.derivative_values(ts, 1)
        for k, t in enumerate(ts):
            assert np.array_equal(P[k], traj.position(t))
            assert np.array_equal(V[k], traj.derivative_value(t, 1))


class TestBatchedBasisWeights:
    def test_matches_scalar_rows(self):
        rng = np.random.default_rng(47)
        for degree in range(6):
            u = rng.uniform(0.0, 1.0, size=17)
            W = basis_weights(degree, u)
            assert W.shape == (17, degree + 1)
            for k, uk in enumerate(u):
                assert np.array_equal(W[k], basis_weights(degree, float(uk)))

    def test_partition_of_unity(self):
        u = np.linspace(0.0, 1.0, 33)
        for degree in (0, 1, 3, 5):
            W = basis_weights(degree, u)
            assert np.allclose(W.sum(axis=1), 1.0, atol=1e-13)
            assert np.all(W >= -1e-14)

    def test_array_path_equals_float_path_bitwise(self):
        # Level-wise array arithmetic must round, and sign its zeros, as the
        # per-column float loop: compare the bits, not the values.
        rng = np.random.default_rng(61)
        u = np.concatenate([[-1e-9, -0.0, 0.0, 5e-324, 0.5, 1.0 - 1e-16, 1.0,
                             1.0 + 1e-9], rng.uniform(-1e-6, 1.0 + 1e-6, 24)])
        for degree in range(6):
            for shape in ((32,), (4, 8)):
                W = basis_weights(degree, u.reshape(shape))
                assert W.shape == shape + (degree + 1,)
                assert W.flags.c_contiguous
                for uk, row in zip(u, W.reshape(-1, degree + 1)):
                    want = basis_weights(degree, float(uk))
                    assert row.tobytes() == want.tobytes(), (degree, uk)

    def test_difference_matrix_cached_read_only(self):
        for m, dt, order in ((7, 1.0, 1), (9, 0.5, 3), (6, 0.1, 0)):
            D = difference_matrix(m, dt, order)
            assert D is difference_matrix(m, dt, order)
            assert not D.flags.writeable
            with pytest.raises(ValueError):
                D[0, 0] = 1.0
            fresh = difference_matrix.__wrapped__(m, dt, order)
            assert fresh is not D
            assert D.tobytes() == fresh.tobytes()

    def test_derivative_gram_cached_read_only(self):
        for degree, m, dt, order in ((3, 7, 1.0, 2), (5, 11, 0.5, 4),
                                     (2, 4, 0.1, 3)):
            G = derivative_gram(degree, m, dt, order)
            assert G is derivative_gram(degree, m, dt, order)
            assert not G.flags.writeable
            with pytest.raises(ValueError):
                G[0, 0] = 1.0
            fresh = derivative_gram.__wrapped__(degree, m, dt, order)
            assert fresh is not G
            assert G.tobytes() == fresh.tobytes()


# --- the per-time evaluator the shared one replaced, kept as oracle ---------

_TOL = 1e-9


def _old_basis_weights(degree, u):
    w = np.zeros(degree + 1)
    w[0] = 1.0
    for k in range(1, degree + 1):
        prev = w[:k].copy()
        w[:k + 1] = 0.0
        for j in range(k):
            a = (u + (k - 1 - j)) / k
            w[j] += (1.0 - a) * prev[j]
            w[j + 1] += a * prev[j]
    return w


class _OldUniformBSpline:
    def __init__(self, degree, t0, dt, m):
        self.degree, self.t0, self.dt, self.m = degree, t0, dt, m

    def basis_row(self, t):
        lo, hi = self.t0 + self.degree * self.dt, self.t0 + self.m * self.dt
        if t < lo - _TOL or t > hi + _TOL:
            raise ValueError(f"t={t} outside spline domain [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        j = int(np.floor((t - self.t0) / self.dt + _TOL))
        j = min(max(j, self.degree), self.m - 1)
        u = (t - (self.t0 + j * self.dt)) / self.dt
        return np.arange(j - self.degree, j + 1), _old_basis_weights(self.degree, u)

    def derivative(self):
        return _OldUniformBSpline(self.degree - 1, self.t0 + self.dt, self.dt, self.m - 1)


def _old_spline(grid, order):
    """The order-th derivative's basis on a trajectory's or layout's grid."""
    s = _OldUniformBSpline(grid.degree, grid.t0, grid.dt, grid.m)
    for _ in range(order):
        s = s.derivative()
    return s


def old_derivative_values(traj, times, order):
    if order > traj.degree:
        return np.zeros((len(times), 2))
    s = _old_spline(traj, order)
    c = traj.control
    if order:
        c = difference_matrix(traj.m, traj.dt, order) @ traj.control
    out = np.empty((len(times), 2))
    for k, t in enumerate(times):
        idx, w = s.basis_row(t)
        out[k] = w @ c[idx]
    return out


def old_derivative_value(traj, t, order):
    if order > traj.degree:
        return np.zeros(2)
    s = _old_spline(traj, order)
    idx, w = s.basis_row(t)
    if order == 0:
        return w @ traj.control[idx]
    c = difference_matrix(traj.m, traj.dt, order) @ traj.control
    return w @ c[idx]


def old_derivative_map(layout, times, order):
    s = _old_spline(layout, order)
    rows = np.zeros((len(times), layout.m - order))
    for k, t in enumerate(times):
        idx, w = s.basis_row(t)
        rows[k, idx] = w
    return rows @ difference_matrix(layout.m, layout.dt, order)


def old_derivative_gram(layout, order):
    deg_d = layout.degree - order
    lo, hi = layout.t_start, layout.t_end
    m_d = layout.m - order
    proto = _OldUniformBSpline(deg_d, layout.t0 + order * layout.dt, layout.dt, m_d)
    nodes, weights = np.polynomial.legendre.leggauss(deg_d + 1)
    G_d = np.zeros((m_d, m_d))
    k_lo = int(np.floor((lo - layout.t_start) / layout.dt + 1e-12))
    k_hi = int(np.ceil((hi - layout.t_start) / layout.dt - 1e-12))
    for k in range(k_lo, k_hi):
        a = max(lo, layout.t_start + k * layout.dt)
        b = min(hi, layout.t_start + (k + 1) * layout.dt)
        if b - a < 1e-12:
            continue
        ts = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        ws = 0.5 * (b - a) * weights
        for t, w in zip(ts, ws):
            idx, row = proto.basis_row(t)
            G_d[np.ix_(idx, idx)] += w * np.outer(row, row)
    D = difference_matrix(layout.m, layout.dt, order)
    return D.T @ G_d @ D


def _same(got, want):
    """Bit-identical arrays: equal shapes and bytes (signed zeros included)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _check(got_fn, want_fn, *args):
    want = _outcome(want_fn, *args)
    got = _outcome(got_fn, *args)
    if want is ValueError:
        assert got is ValueError, args
    else:
        assert got is not ValueError and _same(got, want), args


def _parity_times(rng, s, far):
    """Knots, both domain ends, times within 1e-9 outside them, interior
    times, and (when far) times beyond the tolerance."""
    lo, hi = s.domain
    ts = [lo, hi, lo - 1e-9, hi + 1e-9, lo - 0.5e-9, hi + 0.5e-9,
          *(s.t0 + s.dt * np.arange(s.degree, s.m + 1)),
          *rng.uniform(lo, hi, size=6)]
    if far:
        ts += [lo - 1e-8, hi + 1e-8]
    return ts


class TestEvaluatorParity:
    def test_trajectory_methods(self):
        rng = np.random.default_rng(53)
        for _ in range(120):
            s = random_trajectory(rng)
            ts = _parity_times(rng, s, far=True)
            inside = _parity_times(rng, s, far=False)
            for t in ts:
                _check(s.position, lambda t: old_derivative_value(s, t, 0), t)
                for order in range(s.degree + 2):
                    _check(lambda t: s.derivative_value(t, order),
                           lambda t: old_derivative_value(s, t, order), t)
                n = int(rng.integers(1, s.degree + 2))
                _check(lambda t: s.state_stack(t, n),
                       lambda t: np.stack([old_derivative_value(s, t, k)
                                           for k in range(n)]), t)
            for times in (inside, np.array(inside), ts[:3] + [ts[-1]]):
                _check(s.positions, lambda x: old_derivative_values(s, x, 0), times)
                for order in range(s.degree + 2):
                    _check(lambda x: s.derivative_values(x, order),
                           lambda x: old_derivative_values(s, x, order), times)

    def test_maps(self):
        rng = np.random.default_rng(59)
        for _ in range(120):
            s = random_trajectory(rng)
            layout = layout_of(s)
            ts = _parity_times(rng, s, far=True)
            for times in (_parity_times(rng, s, far=False), ts):
                _check(lambda x: position_map(layout, x),
                       lambda x: old_derivative_map(layout, x, 0), times)
                for order in range(s.degree + 1):
                    _check(lambda x: derivative_map(layout, x, order),
                           lambda x: old_derivative_map(layout, x, order), times)
            for t in ts:
                for order in range(s.degree + 1):
                    _check(lambda t: derivative_map(layout, t, order),
                           lambda t: old_derivative_map(layout, [t], order)[0], t)

    def test_gram(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            s = random_trajectory(rng)
            for order in range(s.degree + 1):
                # The Gram is built on the layout that starts at t = 0.
                at_zero = KnotLayout(degree=s.degree, t0=-s.degree * s.dt,
                                     dt=s.dt, m=s.m, t_start=0.0,
                                     horizon=(s.m - s.degree) * s.dt)
                assert _same(derivative_gram(s.degree, s.m, s.dt, order),
                             old_derivative_gram(at_zero, order))


# --- the basis memo ------------------------------------------------------------

def _uncached_basis(grid, t, order):
    """_active_basis through the memo's body, which no cache sits in front of."""
    if np.ndim(t):
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
    else:
        key = float(t)
    return bspline._memo_basis.__wrapped__(grid.degree, grid.t0, grid.dt,
                                           grid.m, order, key)


class TestBasisCache:
    def test_cached_equals_uncached(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            s = random_trajectory(rng, degree=int(rng.integers(2, 6)))
            inside = np.array(_parity_times(rng, s, far=False))
            inside = inside[:len(inside) // 2 * 2]
            times = [*_parity_times(rng, s, far=True), inside,
                     inside.reshape(2, -1), list(inside[:3])]
            for order in range(s.degree + 1):
                def cached(t):
                    return bspline._active_basis(s.degree, s.t0, s.dt, s.m,
                                                 t, order)
                for t in times:
                    want = _outcome(_uncached_basis, s, t, order)
                    # The first call may fill the memo, the second hits it.
                    for _ in range(2):
                        got = _outcome(cached, t)
                        if want is ValueError:
                            assert got is ValueError, t
                            continue
                        for a, b in zip(got, want):
                            assert _same(a, b) and a.dtype == b.dtype, t

    def test_entries_are_read_only_and_bounded(self):
        rng = np.random.default_rng(71)
        info = bspline._memo_basis.cache_info
        for _ in range(40):
            s = random_trajectory(rng, degree=int(rng.integers(2, 6)))
            lo, hi = s.domain
            for t in (float(rng.uniform(lo, hi)), rng.uniform(lo, hi, 5),
                      rng.uniform(lo, hi, (2, 3))):
                idx, w = bspline._active_basis(s.degree, s.t0, s.dt, s.m, t)
                for a in (idx, w):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[..., 0] = 0
                assert info().currsize <= info().maxsize
        assert info().currsize == info().maxsize

    def test_out_of_domain_raises_on_every_call(self):
        # lru_cache caches no exception: a raise before or after an
        # in-domain call on the same grid must still raise.
        s = TrajectorySpline(3, 0.25, 0.5, np.zeros((7, 2)))
        lo, hi = s.domain
        layout = layout_of(s)
        for bad in (lo - 1e-6, hi + 1e-6, np.array([lo, hi + 1e-6]),
                    np.array([[lo - 1e-6], [hi]])):
            good = np.clip(bad, lo, hi)
            for order in range(s.degree + 1):
                for _ in range(2):
                    with pytest.raises(ValueError):
                        s.derivative_values(bad, order)
                    s.derivative_values(good, order)
                    s.derivative_values(good, order)
                    if np.ndim(bad) < 2:
                        with pytest.raises(ValueError):
                            derivative_map(layout, bad, order)
                        derivative_map(layout, good, order)

    def test_derivative_controls(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            s = random_trajectory(rng)
            lo, hi = s.domain
            for order in range(s.degree + 1):
                s.derivative_value(float(rng.uniform(lo, hi)), order)
                c = s.derivative_control(order)
                assert c is s.derivative_control(order)
                assert c is s.control if order == 0 else not c.flags.writeable
                want = difference_matrix(s.m, s.dt, order) @ s.control
                assert _same(c, want)

    def test_order_zero_map_is_its_rows(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            s = random_trajectory(rng, degree=int(rng.integers(2, 6)))
            layout = layout_of(s)
            times = _parity_times(rng, s, far=False)
            rows = derivative_map(layout, np.array(times), 0)
            assert _same(rows, rows @ np.eye(s.m))
            assert _same(rows, old_derivative_map(layout, times, 0))
            for t in times:
                row = derivative_map(layout, t, 0)
                assert _same(row, row @ np.eye(s.m))
                assert _same(row, rows[times.index(t)])


# --- one time or many ------------------------------------------------------------

class TestTimeDispatch:
    """A Python float, an int, a numpy float or a 0-d array is one time and
    takes the float path; a 1-D array or a list is many and takes the array
    path.  The path shows in the memo key: a float, or (shape, bytes)."""

    S = TrajectorySpline(3, -1.5, 0.5, np.random.default_rng(83).normal(
        size=(10, 2)))
    ONE = (2, 2.0, np.float64(2.0), np.array(2.0), np.array([2.0])[0])
    MANY = (np.array([0.25, 1.3, 2.0]), [0.25, 1.3, 2.0])

    @staticmethod
    def keys(monkeypatch):
        seen = []
        memo = bspline._memo_basis

        def spy(*args):
            seen.append(args[-1])
            return memo(*args)

        monkeypatch.setattr(bspline, "_memo_basis", spy)
        return seen

    def evaluators(self):
        s, layout = self.S, layout_of(self.S)
        for order in range(s.degree + 1):
            yield lambda t, k=order: bspline._active_basis(
                s.degree, s.t0, s.dt, s.m, t, k)
            yield lambda t, k=order: derivative_map(layout, t, k)
            yield lambda t, k=order: s._evaluate(t, k)

    @pytest.mark.parametrize("kinds,key", [("ONE", float), ("MANY", tuple)])
    def test_each_kind_takes_its_path(self, monkeypatch, kinds, key):
        seen = self.keys(monkeypatch)
        times = getattr(self, kinds)
        for fn in self.evaluators():
            want = fn(2.0 if key is float else times[0])
            for t in times:
                del seen[:]
                got = fn(t)
                assert [type(k) for k in seen] == [key], type(t)
                for a, b in zip(got if isinstance(got, tuple) else [got],
                                want if isinstance(want, tuple) else [want]):
                    assert _same(a, b) and a.dtype == b.dtype, type(t)

    def test_basis_weights_dispatch(self):
        for u in (0, 0.375, np.float64(0.375), np.array(0.375)):
            assert _same(basis_weights(3, u), basis_weights(3, float(u)))
        u = [0.0, 0.375, 1.0]
        assert _same(basis_weights(3, u), basis_weights(3, np.array(u)))
        assert basis_weights(3, u).shape == (3, 4)
