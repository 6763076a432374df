"""Geometry primitives against brute-force oracles.

Distances are checked with dense boundary sampling, ray casts with fine
marching, and halfplane construction with explicit side predicates, so the
closed-form implementations never grade their own homework.
"""

import numpy as np
import pytest

from swarmplan.geometry import (Circle, Square, Rectangle, Triangle, Halfplane,
                                ConvexPolytope, axis_rectangle,
                                circle_from_three_points, footprint_from_size,
                                segment_shape_intersections, shape_groups,
                                supporting_halfplanes)


def boundary_samples(shape, n):
    """n points spaced evenly along the shape's boundary, from corner 0."""
    if isinstance(shape, Circle):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return shape.center + shape.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    a = shape.corners
    b = np.roll(a, -1, axis=0)
    lens = np.linalg.norm(b - a, axis=1)
    s = np.linspace(0.0, lens.sum(), n, endpoint=False)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
    frac = (s - cum[idx]) / lens[idx]
    return a[idx] + frac[:, None] * (b[idx] - a[idx])


def ray_cast(origin, angle, shape, max_range):
    """`shape.ray_distances` for one ray: the distance from origin at `angle`
    to the boundary, or None when it is beyond max_range or absent."""
    u = np.array([np.cos(angle), np.sin(angle)])
    t = float(shape.ray_distances(np.asarray(origin, float)[None], u[None])[0])
    return t if np.isfinite(t) and t <= max_range else None


def crossings(a, b, shape):
    """`segment_shape_intersections` with the shape as a group of one."""
    group, = shape_groups([shape])
    return segment_shape_intersections(a, b, group, np.zeros(len(a), dtype=int))


def tangents(shape, q, e):
    """`supporting_halfplanes` with the shape as a group of one."""
    group, = shape_groups([shape])
    return supporting_halfplanes(group, np.zeros(len(q), dtype=int), q, e)


def unit_square():
    return Square([[0, 0], [1, 0], [1, 1], [0, 1]])


def sample_shape(rng):
    kind = rng.integers(0, 4)
    c = rng.uniform(-5, 5, size=2)
    if kind == 0:
        return Circle(c, rng.uniform(0.2, 2.0))
    if kind == 1:
        th = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(th), np.sin(th)])
        v = np.array([-u[1], u[0]])
        s = rng.uniform(0.2, 1.5)
        return Square([c - s * u - s * v, c + s * u - s * v, c + s * u + s * v, c - s * u + s * v])
    if kind == 2:
        th = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(th), np.sin(th)])
        v = np.array([-u[1], u[0]])
        a, bb = rng.uniform(0.2, 2.0, size=2)
        return Rectangle([c - a * u - bb * v, c + a * u - bb * v, c + a * u + bb * v, c - a * u + bb * v])
    for _ in range(100):
        corners = c + rng.uniform(-2, 2, size=(3, 2))
        e1 = corners[1] - corners[0]
        e2 = corners[2] - corners[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 0.3:
            return Triangle(corners)
    raise AssertionError("could not sample a fat triangle")


def oracle_distance(p, shape, n=4000):
    """Min distance to dense boundary samples; 0 when inside."""
    if shape.contains(p):
        return 0.0
    samples = boundary_samples(shape, n)
    return float(np.min(np.linalg.norm(samples - p, axis=1)))


class TestCircleFromThreePoints:
    def test_known_circle(self):
        c = circle_from_three_points([0, 1], [1, 0], [2, 1])
        assert c is not None
        assert np.allclose(c.center, [1, 1], atol=1e-12)
        assert abs(c.radius - 1.0) < 1e-12

    def test_passes_through_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = rng.uniform(-10, 10, size=2)
            radius = rng.uniform(0.1, 20.0)
            th = np.sort(rng.uniform(0, 2 * np.pi, size=3))
            if np.min(np.diff(th)) < 0.1:
                continue
            pts = center + radius * np.stack([np.cos(th), np.sin(th)], axis=1)
            fit = circle_from_three_points(*pts)
            assert fit is not None
            for p in pts:
                assert abs(np.linalg.norm(p - fit.center) - fit.radius) < 1e-9 * max(1, radius)

    def test_collinear_returns_none(self):
        assert circle_from_three_points([0, 0], [1, 0], [2, 0]) is None
        assert circle_from_three_points([1, 1], [2, 2], [3, 3]) is None
        # Collinear but not axis aligned, large coordinates.
        assert circle_from_three_points([10, 5], [20, 10], [30, 15]) is None


class TestDistances:
    def test_circle_examples(self):
        c = Circle([0, 0], 1.0)
        assert c.distance([2, 0]) == pytest.approx(1.0, abs=1e-12)
        assert c.distance([0.5, 0]) == 0.0
        assert c.distance([0, 0]) == 0.0

    def test_square_examples(self):
        s = unit_square()
        assert s.distance([2, 0.5]) == pytest.approx(1.0, abs=1e-12)
        assert s.distance([2, 2]) == pytest.approx(np.sqrt(2), abs=1e-12)
        assert s.distance([0.5, 0.5]) == 0.0

    def test_against_boundary_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            shape = sample_shape(rng)
            for _ in range(5):
                p = rng.uniform(-8, 8, size=2)
                got = shape.distance(p)
                want = oracle_distance(p, shape)
                assert got == pytest.approx(want, abs=5e-3)
                assert got <= want + 1e-9  # sampling oracle overestimates

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            shape = sample_shape(rng)
            p = rng.uniform(-8, 8, size=2)
            assert shape.distance(p) >= 0.0


class TestRayCast:
    def test_circle_head_on(self):
        c = Circle([3, 0], 1.0)
        assert ray_cast([0, 0], 0.0, c, 10.0) == pytest.approx(2.0, abs=1e-12)

    def test_miss_returns_none(self):
        c = Circle([3, 0], 1.0)
        assert ray_cast([0, 0], np.pi / 2, c, 10.0) is None
        assert ray_cast([0, 0], 0.0, c, 1.5) is None  # beyond max range

    def test_from_inside(self):
        s = unit_square()
        d = ray_cast([0.5, 0.5], 0.0, s, 10.0)
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_against_marching_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            shape = sample_shape(rng)
            origin = rng.uniform(-8, 8, size=2)
            if shape.contains(origin):
                continue
            angle = rng.uniform(0, 2 * np.pi)
            got = ray_cast(origin, angle, shape, 30.0)
            # March in fine steps and find the first covered sample.
            ts = np.arange(1e-4, 30.0, 1e-3)
            pts = origin + ts[:, None] * np.array([np.cos(angle), np.sin(angle)])
            inside = shape.contains(pts)
            if got is None:
                assert not np.any(inside)
            else:
                k = int(np.argmax(inside))
                assert np.any(inside)
                assert got == pytest.approx(ts[k], abs=2e-3)


class TestSegmentIntersection:
    def test_crossing(self):
        c = Circle([0, 0], 1.0)
        p, crossed = crossings(
            np.array([[-3.0, 0.0]]), np.array([[0.0, 0.0]]), c)
        assert crossed[0]
        assert np.allclose(p[0], [-1, 0], atol=1e-12)

    def test_no_crossing(self):
        c = Circle([0, 0], 1.0)
        _, crossed = crossings(
            np.array([[-3.0, 5.0], [-3.0, 0.0]]),
            np.array([[3.0, 5.0], [-2.5, 0.0]]), c)
        assert not crossed.any()

    def test_nearest_crossing_chosen(self):
        s = unit_square()
        p, crossed = crossings(
            np.array([[-1.0, 0.5]]), np.array([[3.0, 0.5]]), s)
        assert crossed[0]
        assert np.allclose(p[0], [0, 0.5], atol=1e-10)


class TestSupportingHalfplane:
    def test_circle_tangent(self):
        c = Circle([0, 0], 1.0)
        normals, offsets = tangents(
            c, np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]]))
        hp = Halfplane(normals[0], offsets[0])
        # Tangent x = 1 keeping the exterior point.
        assert np.allclose(hp.normal, [-1, 0], atol=1e-12)
        assert hp.offset == pytest.approx(-1.0, abs=1e-12)
        assert hp.contains([3, 0])
        for p in boundary_samples(c, 256):
            assert float(hp.normal @ p) >= hp.offset - 1e-9

    def test_polygon_edge(self):
        s = unit_square()
        normals, offsets = tangents(
            s, np.array([[0.0, 0.5]]), np.array([[-2.0, 0.5]]))
        hp = Halfplane(normals[0], offsets[0])
        assert hp.contains([-2, 0.5])
        for p in boundary_samples(s, 256):
            assert float(hp.normal @ p) >= hp.offset - 1e-9

    def test_random_shapes_exclude_obstacle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            shape = sample_shape(rng)
            e = rng.uniform(-8, 8, size=2)
            if shape.distance(e) < 0.05:
                continue
            q, crossed = crossings(
                e[None], np.asarray(shape.center, float)[None], shape)
            assert crossed[0]
            normals, offsets = tangents(shape, q, e[None])
            hp = Halfplane(normals[0], offsets[0])
            assert hp.contains(e, tol=1e-7)
            for p in boundary_samples(shape, 512):
                assert float(hp.normal @ p) >= hp.offset - 1e-7

    def test_rejects_off_boundary_point(self):
        c = Circle([0, 0], 1.0)
        with pytest.raises(ValueError):
            tangents(c, np.array([[0.5, 0.0]]), np.array([[3.0, 0.0]]))
        with pytest.raises(ValueError, match="not on the shape boundary"):
            tangents(unit_square(), np.array([[0.5, 0.5]]),
                     np.array([[-2.0, 0.5]]))

    def test_rejects_covered_exterior_point(self):
        for shape, q, e in ((Circle([0, 0], 1.0), [1.0, 0.0], [0.5, 0.0]),
                            (unit_square(), [0.0, 0.5], [0.5, 0.5]),
                            (unit_square(), [0.0, 0.5], [1.0, 0.5])):
            with pytest.raises(ValueError, match="not strictly outside"):
                tangents(shape, np.array([q]), np.array([e]))

    def test_rejects_exterior_point_behind_the_tangent(self):
        for shape, q, e in ((Circle([0, 0], 1.0), [1.0, 0.0], [-3.0, 0.0]),
                            (unit_square(), [0.0, 0.5], [2.0, 0.5])):
            with pytest.raises(ValueError, match="outward side"):
                tangents(shape, np.array([q]), np.array([e]))

    def test_one_bad_row_fails_the_group(self):
        # The checks cover every row of a group at once.
        group, = shape_groups([Circle([0, 0], 1.0), Circle([5, 0], 1.0)])
        q = np.array([[1.0, 0.0], [5.5, 0.0]])
        e = np.array([[3.0, 0.0], [8.0, 0.0]])
        with pytest.raises(ValueError, match="not on the shape boundary"):
            supporting_halfplanes(group, np.array([0, 1]), q, e)
        normals, _ = supporting_halfplanes(group, np.array([0, 0]),
                                           q[[0, 0]], e[[0, 0]])
        assert np.array_equal(normals, [[-1.0, 0.0], [-1.0, 0.0]])


class TestPolytope:
    def test_containment(self):
        box = ConvexPolytope([
            Halfplane([1, 0], 1), Halfplane([-1, 0], 1),
            Halfplane([0, 1], 1), Halfplane([0, -1], 1),
        ])
        assert box.contains([0, 0])
        assert box.contains([1, 1])
        assert not box.contains([1.1, 0])
        assert np.max(box.normals @ [2, 0] - box.offsets) == pytest.approx(1.0, abs=1e-12)

    def test_exact_duplicates_dropped(self):
        hps = [Halfplane([1, 0], 1), Halfplane([1, 0], 1), Halfplane([0, 1], 1)]
        assert len(ConvexPolytope(hps)) == 2

    def test_normalization(self):
        hp = Halfplane([3, 0], 6)
        assert np.allclose(hp.normal, [1, 0])
        assert hp.offset == pytest.approx(2.0)


class TestSupport:
    def test_rows_against_boundary_sampling(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            shape = sample_shape(rng)
            th = rng.uniform(0, 2 * np.pi, size=7)
            dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
            got = shape.support(dirs)
            want = np.max(dirs @ boundary_samples(shape, 4000).T, axis=1)
            assert got.shape == (7,)
            assert np.allclose(got, want, atol=2e-3)
            assert np.all(got >= want - 1e-9)


class TestValidation:
    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            Circle([0, 0], 0.0)
        with pytest.raises(ValueError):
            Circle([0, 0], -1.0)
        with pytest.raises(ValueError):
            Square([[0, 0], [1, 0], [1, 1]])
        with pytest.raises(ValueError):
            Triangle([[0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError):
            Halfplane([0, 0], 1.0)

    def test_ccw_enforced(self):
        s = Square([[0, 1], [1, 1], [1, 0], [0, 0]])  # given clockwise
        normals = s.edge_normals()
        # Outward normals must point away from the centroid.
        c = s.center
        mids = (s.corners + np.roll(s.corners, -1, axis=0)) / 2
        for n, m in zip(normals, mids):
            assert float(n @ (m - c)) > 0

    def test_axis_rectangle(self):
        r = axis_rectangle(-1, -2, 3, 4)
        assert r.contains([0, 0])
        assert not r.contains([3.1, 0])
        assert r.center == pytest.approx([1.0, 1.0])


# --- footprints, containment and the nearest-point kernel ----------------------

def one_of_each(rng):
    """A shape of every kind, the two footprint kinds included."""
    th = rng.uniform(0, np.pi)
    return [Circle(rng.uniform(-5, 5, size=2), rng.uniform(0.2, 2.0)),
            unit_square(),
            axis_rectangle(-1.0, 0.5, 2.5, 0.7),
            Rectangle([[0, 0], [2 * np.cos(th), 2 * np.sin(th)],
                       [2 * np.cos(th) - np.sin(th), 2 * np.sin(th) + np.cos(th)],
                       [-np.sin(th), np.cos(th)]]),
            Triangle([[0.0, 0.0], [1.0, 0.2], [0.3, 0.8]]),
            footprint_from_size((0.3,)),
            footprint_from_size((0.1, 0.2, 0.3))]


def old_distance_models(shape, pts):
    """The planner's nearest-point kernel as it was before it moved into
    the shapes, kept as an oracle: einsum projection, and the polygon's
    many-point containment spelled out."""
    n = len(pts)
    d = np.zeros(n)
    u = np.zeros((n, 2))
    if isinstance(shape, Circle):
        v = pts - shape.center
        ell = np.linalg.norm(v, axis=1)
        mask = (ell > shape.radius) & (ell > 1e-12)
        d[mask] = ell[mask] - shape.radius
        u[mask] = v[mask] / ell[mask, None]
        return d, u
    a = shape.corners
    e = np.roll(a, -1, axis=0) - a
    ee = np.sum(e * e, axis=1)
    t = np.clip(np.einsum("nkd,kd->nk", pts[:, None, :] - a, e) / ee, 0.0, 1.0)
    proj = a + t[:, :, None] * e
    dist = np.linalg.norm(pts[:, None, :] - proj, axis=2)
    best = np.argmin(dist, axis=1)
    rows = np.arange(n)
    v = pts - proj[rows, best]
    dv = dist[rows, best]
    rel = pts[:, None, :] - a[None, :, :]
    cr = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
    mask = ~np.all(cr >= 0.0, axis=1) & (dv > 1e-12)
    d[mask] = dv[mask]
    u[mask] = v[mask] / dv[mask, None]
    return d, u


class TestFootprints:
    def test_disks_keep_the_old_closed_forms(self):
        # One or two lengths: support r along every direction, containment
        # sqrt(rel . rel) <= r + tol, scale r, all bit for bit.  The plane
        # stacks read the support only against offsets, NaN on padding.
        rng = np.random.default_rng(61)
        for size in ((0.3,), (0.2, 0.4), (0.1,), (0.7, 0.05)):
            r = max(size)
            fp = footprint_from_size(size)
            assert fp.size_scale == r
            th = rng.uniform(0, 2 * np.pi, size=(20, 9))
            normals = np.stack([np.cos(th), np.sin(th)], axis=-1)
            offsets = rng.uniform(-3.0, 3.0, size=th.shape)
            pad = np.arange(9) >= rng.integers(1, 10, size=20)[:, None]
            normals[pad] = np.nan
            offsets[pad] = np.nan
            closed = np.full(th.shape, r)
            for u in (normals, -normals):
                got = fp.support(u)
                assert np.array_equal(got[~pad], closed[~pad])
                assert np.array_equal(offsets - got, offsets - closed,
                                      equal_nan=True)
            ang = rng.uniform(0, 2 * np.pi, size=500)
            for rel in (rng.uniform(-2 * r, 2 * r, size=(500, 2)),
                        r * np.stack([np.cos(ang), np.sin(ang)], axis=1)):
                for tol in (0.0, 1e-9):
                    assert np.array_equal(
                        fp.contains(rel, tol),
                        np.sqrt(np.vecdot(rel, rel)) <= r + tol)

    def test_squares_round_as_polygons(self):
        # Three lengths: an axis-aligned square of half extent sqrt(2)
        # times the largest.  Support and scale round as any polygon's (max
        # over corners, corner norm), within 4 ulps of the closed forms
        # h (|u0| + |u1|) and h sqrt(2); containment is max|rel| <= h.
        rng = np.random.default_rng(62)
        for size in ((0.1, 0.2, 0.3), (0.5, 0.5, 0.5), (1.0, 0.2, 0.05)):
            h = np.sqrt(2.0) * max(size)
            fp = footprint_from_size(size)
            assert isinstance(fp, Square)
            assert np.array_equal(fp.corners,
                                  h * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]))
            assert fp.size_scale == float(np.linalg.norm([h, h]))
            assert abs(fp.size_scale - h * np.sqrt(2.0)) <= 4 * np.spacing(h)
            th = rng.uniform(0, 2 * np.pi, size=400)
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            got = fp.support(u)
            assert np.array_equal(
                got, [max(float(c @ v) for c in fp.corners) for v in u])
            assert np.array_equal(got[:1], fp.support(u[:1]))
            closed = h * (np.abs(u[:, 0]) + np.abs(u[:, 1]))
            assert np.all(np.abs(got - closed) <= 4 * np.spacing(closed))
            rel = np.concatenate([rng.uniform(-2 * h, 2 * h, size=(400, 2)),
                                  h * rng.choice([-1.0, 1.0], size=(40, 2))
                                  * rng.uniform(0, 1, size=(40, 1))])
            assert np.array_equal(fp.contains(rel),
                                  np.max(np.abs(rel), axis=1) <= h)


class TestContains:
    def test_arrays_match_each_point(self):
        rng = np.random.default_rng(67)
        shapes = one_of_each(rng) + [sample_shape(rng) for _ in range(20)]
        for shape in shapes:
            pts = np.concatenate([shape.center + rng.uniform(-3, 3, size=(59, 2)),
                                  boundary_samples(shape, 40), shape.center[None]])
            for tol in (0.0, 1e-9, -1e-9):
                flat = shape.contains(pts, tol)
                assert flat.shape == (len(pts),)
                assert np.array_equal(flat, [shape.contains(p, tol) for p in pts])
                assert np.array_equal(shape.contains(pts.reshape(4, -1, 2), tol),
                                      flat.reshape(4, -1))
            assert flat.any() and not flat.all()


def mixed_shape(rng):
    """A circle, triangle, rectangle, square or thin wall.  Half of them sit
    axis-aligned on the integer grid, so that grid points fall on their
    vertices and edges and line up with them exactly."""
    kind = rng.integers(0, 5)
    if rng.random() < 0.5:
        x, y = rng.integers(-3, 3, size=2).astype(float)
        if kind == 0:
            return Circle([x, y], rng.choice([0.5, 1.0]))
        if kind == 1:
            return Triangle([[x, y], [x + 2, y], [x, y + 1]])
        if kind == 2:
            return axis_rectangle(x, y, x + 2, y + 1)
        if kind == 3:
            return Square([[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1]])
        return axis_rectangle(x, y, x + 3, y + 0.125)
    if kind == 4:
        th = rng.uniform(0, 2 * np.pi)
        u = 1.5 * np.array([np.cos(th), np.sin(th)])
        v = 0.05 * np.array([-u[1], u[0]])
        c = rng.uniform(-3, 3, size=2)
        return Rectangle([c - u - v, c + u - v, c + u + v, c - u + v])
    return sample_shape(rng)


def probe_points(shapes, rng):
    """Points inside, on vertices and edges, just off the boundary, on the
    half-meter grid (with -0.0 coordinates) and far away."""
    axis = np.concatenate([np.arange(-4.0, 4.5, 0.5), [-0.0]])
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    parts = [grid, rng.uniform(-60, 60, size=(20, 2))]
    for shape in shapes:
        b = boundary_samples(shape, 16)
        parts += [shape.center[None], b, b + rng.normal(scale=1e-9, size=b.shape),
                  getattr(shape, "corners", b[:0])]
    return np.concatenate(parts)


class TestDistanceGradient:
    def test_groups_give_each_shape_its_own_bits(self):
        # Mixed lists of 1-11 shapes: every group slot's (d, u) is its
        # shape's own and the old planner kernel's, signed zeros included.
        # Points on a boundary or at a center divide by a zero length, which
        # the kernels must keep silent.
        rng = np.random.default_rng(89)
        signed_zeros = 0
        for _ in range(40):
            shapes = [mixed_shape(rng) for _ in range(rng.integers(1, 12))]
            pts = probe_points(shapes, rng)
            seen = []
            with np.errstate(divide="raise", invalid="raise"):
                for group in shape_groups(shapes):
                    d, u = group.distance_gradient(pts)
                    assert d.shape == (len(group), len(pts))
                    assert u.shape == (len(group), len(pts), 2)
                    for slot, i in enumerate(group.index):
                        own_d, own_u = shapes[i].distance_gradient(pts)
                        old_d, old_u = old_distance_models(shapes[i], pts)
                        for got, want in ((d[slot], own_d), (u[slot], own_u),
                                          (d[slot], old_d), (u[slot], old_u)):
                            assert got.tobytes() == want.tobytes()
                        seen.append(i)
                    signed_zeros += np.count_nonzero((u == 0.0) & np.signbit(u))
            assert sorted(seen) == list(range(len(shapes)))
        assert signed_zeros > 0

    def test_matches_the_old_planner_kernel(self):
        rng = np.random.default_rng(71)
        shapes = one_of_each(rng) + [sample_shape(rng) for _ in range(60)]
        pairs = 0
        for shape in shapes:
            b = boundary_samples(shape, 64)
            pts = np.concatenate([
                shape.center + rng.uniform(-4, 4, size=(300, 2)), b,
                b + rng.normal(scale=1e-9, size=b.shape), shape.center[None],
                getattr(shape, "corners", b[:0])])
            d, u = shape.distance_gradient(pts)
            want_d, want_u = old_distance_models(shape, pts)
            assert np.array_equal(d, want_d)
            assert np.array_equal(u, want_u)
            assert (d == 0.0).any() and (d > 0.0).any()
            pairs += len(pts) * len(getattr(shape, "corners", ()))
        assert pairs > 50_000
