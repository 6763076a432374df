"""Geometry primitives against brute-force oracles.

Distances are checked with dense boundary sampling, ray casts with fine
marching, and halfplane construction with explicit side predicates, so the
closed-form implementations never grade their own homework.
"""

import math

import numpy as np
import pytest

from swarmplan import geometry
from swarmplan.geometry import (BOUNDARY_TOL, Circle, Square, Rectangle,
                                Triangle, axis_rectangle,
                                circle_from_three_points, footprint_from_size,
                                shape_groups, unit_rows)
from swarmplan.regions import ConvexPolytope


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


def own_ray_distances(shape, origins, dirs):
    """The shape's kind's ray-cast kernel on the shape's own parameters:
    the first-hit distance of each ray origin + t*dir, t > 0; inf on a
    miss."""
    if isinstance(shape, Circle):
        return geometry._disk_ray_distances(shape.center, shape.radius ** 2,
                                            origins, dirs)
    return geometry._polygon_ray_distances(shape.corners, shape.edges,
                                           origins, dirs)


def ray_cast(origin, angle, shape, max_range):
    """`own_ray_distances` for one ray: the distance from origin at `angle`
    to the boundary, or None when it is beyond max_range or absent."""
    u = np.array([np.cos(angle), np.sin(angle)])
    t = float(own_ray_distances(shape, np.asarray(origin, float)[None],
                                u[None])[0])
    return t if np.isfinite(t) and t <= max_range else None


def own_distance_gradient(shape, pts):
    """The shape's kind's nearest-point kernel on the shape's own
    parameters: (d, u) at each point (n, 2)."""
    if isinstance(shape, Circle):
        return geometry._disk_distance_gradient(shape.center, shape.radius, pts)
    return geometry._polygon_distance_gradient(shape.corners, shape.edges, pts)


def nearest_point_halfplane(shape, e):
    """The row {p : n.p <= o} that the regions build for a shape seen from
    an exterior point e: n = -u and o = n.e + d from the shape's (d, u)."""
    d, u = own_distance_gradient(shape, np.asarray(e, float)[None])
    n = -u[0]
    return n, float(n @ e) + float(d[0])


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

    def test_arrays_match_each_point(self):
        rng = np.random.default_rng(17)
        shapes = [sample_shape(rng) for _ in range(30)]
        for shape in shapes:
            pts = np.concatenate([shape.center + rng.uniform(-3, 3, size=(59, 2)),
                                  boundary_samples(shape, 40), shape.center[None]])
            flat = shape.distance(pts)
            assert flat.shape == (len(pts),)
            assert flat.tobytes() == np.array([shape.distance(p) for p in pts]).tobytes()
            assert np.array_equal(shape.distance(pts.reshape(4, -1, 2)),
                                  flat.reshape(4, -1))
            if isinstance(shape, Circle):
                # One root per point, of x*x + y*y as the disk kernel sums
                # the squares.
                want = [max(0.0, math.sqrt(x * x + y * y) - shape.radius)
                        for x, y in (pts - shape.center).tolist()]
                assert flat.tobytes() == np.array(want).tobytes()
        assert any(isinstance(s, Circle) for s in shapes)


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


class TestSupportingHalfplane:
    """The halfplane through a shape's nearest point to an exterior point,
    normal to the direction between them, keeps the point and supports the
    shape: the whole shape lies beyond it and touches it."""

    def test_circle_tangent(self):
        c = Circle([0, 0], 1.0)
        n, o = nearest_point_halfplane(c, np.array([3.0, 0.0]))
        # Tangent x = 1 keeping the exterior point.
        assert np.allclose(n, [-1, 0], atol=1e-12)
        assert o == pytest.approx(-1.0, abs=1e-12)
        assert n @ [3, 0] <= o + BOUNDARY_TOL
        for p in boundary_samples(c, 256):
            assert float(n @ p) >= o - 1e-9

    def test_polygon_edge(self):
        # Nearest to an edge's interior: the edge's own line.  Nearest to a
        # corner: the line through the corner normal to the point's
        # direction, which no edge of the square lies on.
        s = unit_square()
        n, o = nearest_point_halfplane(s, np.array([-2.0, 0.5]))
        assert n.tolist() == [1.0, 0.0] and o == 0.0
        e = np.array([-1.0, -2.0])
        n, o = nearest_point_halfplane(s, e)
        assert np.allclose(n, [1.0, 2.0] / np.sqrt(5.0), atol=1e-15)
        assert o == pytest.approx(0.0, abs=1e-15)
        for e in ([-2.0, 0.5], [-1.0, -2.0]):
            n, o = nearest_point_halfplane(s, np.array(e))
            assert n @ e <= o + BOUNDARY_TOL
            for p in boundary_samples(s, 256):
                assert float(n @ p) >= o - 1e-12

    def test_random_shapes_exclude_obstacle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            shape = sample_shape(rng)
            e = rng.uniform(-8, 8, size=2)
            if shape.distance(e) < 0.05:
                continue
            n, o = nearest_point_halfplane(shape, e)
            assert n @ e <= o - 0.05 + 1e-9
            assert o + shape.support(-n) == pytest.approx(0.0, abs=1e-12)
            for p in boundary_samples(shape, 512):
                assert float(n @ p) >= o - 1e-9


class TestPolytope:
    """A region slice's rows: the view a plane stack hands out and the
    normalization every cut applies."""

    def test_containment(self):
        box = ConvexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0],
                                       [0.0, 1.0], [0.0, -1.0]]), np.ones(4))
        assert box.contains([0, 0])
        assert box.contains([1, 1])
        assert not box.contains([1.1, 0])
        assert np.max(box.normals @ [2, 0] - box.offsets) == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self):
        n, o = unit_rows(np.array([3.0, 0.0]), 6.0)
        assert np.allclose(n, [1, 0])
        assert o == pytest.approx(2.0)


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

    def test_one_row_rounds_as_many(self):
        # A row's support has the same bits alone as among 8 rows, also for
        # an off-centre circle, whose one-row matmul rounded differently.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            shape = Circle(rng.uniform(-20.0, 20.0, size=2),
                           float(rng.uniform(0.1, 3.0)))
            th = rng.uniform(0, 2 * np.pi, size=8)
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            many = shape.support(u)
            for i in range(8):
                one = many[i:i + 1].tobytes()
                assert shape.support(u[i:i + 1]).tobytes() == one
                assert shape.support(u[i]).tobytes() == one

    def test_groups_give_each_shape_its_own_support(self):
        # Every group slot's support along every direction is its shape's
        # own, up to rounding, in any mix of kinds and corner counts.
        rng = np.random.default_rng(37)
        for _ in range(40):
            shapes = [mixed_shape(rng) for _ in range(rng.integers(1, 12))]
            th = rng.uniform(0, 2 * np.pi, size=int(rng.integers(1, 30)))
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            seen = []
            for group in shape_groups(shapes):
                assert_own_supports(group, shapes, u)
                seen.extend(group.index)
            assert sorted(seen) == list(range(len(shapes)))

    def test_group_products_are_each_shapes_support(self):
        # A group's support is one matrix product, of any size: every slot
        # is its shape's own support up to rounding at the sizes the region
        # seeding multiplies and beyond: 1-60 polygons of 3 or 4 corners,
        # walls sharing an edge among them, and 1-6 circles, along 1 to
        # 2,560 directions (40 slices x 64 candidate rows).  The lists of
        # 1-3 directions are random; the longer ones lead with the box
        # rows' signed-zero directions.
        rng = np.random.default_rng(47)
        box = -np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

        def polygon(k, i):
            if k == 3:
                return Triangle(rng.uniform(-9.0, 9.0, size=2)
                                + rng.uniform(-1.0, 1.0, size=(3, 2)))
            if i % 2:
                # Walls end to end on one line, each sharing an edge with
                # the one before.
                x = (i - 31) / 2
                return axis_rectangle(x, -1.5, x + 1.0, -1.3)
            c = rng.uniform(-9.0, 9.0, size=2)
            th = rng.uniform(0.0, 2 * np.pi)
            u = rng.uniform(0.1, 2.0) * np.array([np.cos(th), np.sin(th)])
            v = rng.uniform(0.1, 2.0) * np.array([-u[1], u[0]])
            return Rectangle([c - u - v, c + u - v, c + u + v, c - u + v])

        checked = 0
        for n in (1, 2, 3, 160, 2560):
            th = rng.uniform(0, 2 * np.pi, size=n)
            u = np.stack([np.cos(th), np.sin(th)], axis=1)
            if n > 4:
                u[:4] = box
            kinds = [(k, s) for k in (3, 4) for s in range(1, 61)]
            kinds += [(0, s) for s in range(1, 7)]
            for k, s in kinds:
                shapes = ([polygon(k, i) for i in range(s)] if k else
                          [Circle(rng.uniform(-9.0, 9.0, size=2),
                                  float(rng.uniform(0.1, 2.0)))
                           for _ in range(s)])
                (group,) = shape_groups(shapes)
                assert_own_supports(group, shapes, u)
                checked += 1
        assert checked == 5 * 126


def reach(shape):
    """The largest norm of a point of the shape, which bounds |u.x| over
    it for a unit u."""
    if isinstance(shape, Circle):
        return float(np.linalg.norm(shape.center)) + shape.radius
    return float(np.linalg.norm(shape.corners, axis=1).max())


def assert_own_supports(group, shapes, u):
    """Every slot of the group's support along the unit directions u is
    its own shape's support (`shapes[group.index[slot]]`) to within 4 ulps
    of the shape's reach.  Each side rounds two products, their sum and a
    circle's radius, half an ulp each, in any order its BLAS kernel
    picks, so the bound holds on every core."""
    got = group.support(u)
    assert got.shape == (len(group), len(u))
    for slot, i in enumerate(group.index):
        err = np.abs(got[slot] - shapes[i].support(u)).max()
        assert err <= 4 * np.spacing(reach(shapes[i])), (slot, i, err)


def old_polygon_fields(corners):
    """corners, edges, center and size_scale as the polygon constructor
    computed them with a loop over numpy scalars and np.roll."""
    corners = np.asarray(corners, dtype=float)
    area2 = 0.0
    for i in range(len(corners)):
        a, b = corners[i], corners[(i + 1) % len(corners)]
        area2 += a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    if area2 < 0:
        corners = corners[::-1].copy()
    edges = np.roll(corners, -1, axis=0) - corners
    center = corners.mean(axis=0)
    return (corners, edges, center,
            float(np.max(np.linalg.norm(corners - center, axis=1))))


class TestValidation:
    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            Circle([0, 0], 0.0)
        with pytest.raises(ValueError):
            Circle([0, 0], -1.0)
        with pytest.raises(ValueError):
            Square([[0, 0], [1, 0], [1, 1]])
        with pytest.raises(ValueError, match="rectangle needs exactly 4"):
            Rectangle([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError):
            Triangle([[0, 0], [1, 0], [1, 1], [0, 1]])

    @pytest.mark.parametrize("build, match", [
        (lambda: Circle([5.0, 5.0], math.nan), "radius must be positive"),
        (lambda: Circle([0.0, 0.0], math.inf), "radius must be positive"),
        (lambda: Circle([math.inf, 5.0], 1.0), "finite point"),
        (lambda: Circle([5.0, math.nan], 1.0), "finite point"),
        (lambda: axis_rectangle(0.0, 0.0, math.nan, 1.0),
         "corners must be finite"),
        (lambda: Triangle([[0, 0], [1, 0], [0, math.inf]]),
         "corners must be finite"),
    ], ids=["circle_nan_radius", "circle_inf_radius", "circle_inf_center",
            "circle_nan_center", "rectangle_nan_corner",
            "triangle_inf_corner"])
    def test_non_finite_geometry_rejected(self, build, match):
        # Unchecked, each of these built, and a run never counted such an
        # obstacle.
        with pytest.raises(ValueError, match=match):
            build()

    def test_ccw_enforced(self):
        s = Square([[0, 1], [1, 1], [1, 0], [0, 0]])  # given clockwise
        normals = np.stack([s.edges[:, 1], -s.edges[:, 0]], axis=1)
        # Edge normals (dy, -dx) must point away from the centroid.
        c = s.center
        mids = (s.corners + np.roll(s.corners, -1, axis=0)) / 2
        for n, m in zip(normals, mids):
            assert float(n @ (m - c)) > 0

    def test_constructor_matches_the_numpy_scalar_loop(self):
        rng = np.random.default_rng(83)
        polygons = [np.zeros((3, 2)), [[0, 0], [1, 1], [2, 2]],
                    [[0, 0], [1e-300, 0], [0, 1e-300]]]
        for _ in range(200):
            for k in (3, 4, 8):
                ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
                if k == 4 and rng.random() < 0.5:
                    ang = rng.uniform(0.0, np.pi / 2) + np.arange(4) * np.pi / 2
                ring = (rng.uniform(-20.0, 20.0, 2)
                        + rng.uniform(0.01, 5.0)
                        * np.stack([np.cos(ang), np.sin(ang)], 1))
                polygons += [ring, ring[::-1]]
        for corners in polygons:
            shape = geometry.ConvexPolygonShape(corners)
            want = old_polygon_fields(corners)
            for name, value in zip(("corners", "edges", "center"), want):
                assert getattr(shape, name).tobytes() == value.tobytes(), name
            assert repr(shape.size_scale) == repr(want[3])

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
        # sqrt(rel . rel) <= r, distance within tol where sqrt(rel . rel) - r
        # is, scale r, all bit for bit.  The plane stacks read the support
        # only against offsets, NaN on padding.
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
                root = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])
                assert np.array_equal(fp.contains(rel), root <= r)
                for tol in (0.0, 1e-9):
                    assert np.array_equal(fp.distance(rel) <= tol,
                                          root - r <= tol)

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
            flat = shape.contains(pts)
            assert flat.shape == (len(pts),)
            assert np.array_equal(flat, [shape.contains(p) for p in pts])
            assert np.array_equal(shape.contains(pts.reshape(4, -1, 2)),
                                  flat.reshape(4, -1))
            assert flat.any() and not flat.all()
            # A tolerance is a distance: every contained point is within it.
            for tol in (0.0, 1e-9):
                near = shape.distance(pts) <= tol
                assert np.array_equal(near, [shape.distance(p) <= tol
                                             for p in pts])
                assert np.all(near[flat])


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
                        own_d, own_u = own_distance_gradient(shapes[i], pts)
                        old_d, old_u = old_distance_models(shapes[i], pts)
                        for got, want in ((d[slot], own_d), (u[slot], own_u),
                                          (d[slot], old_d), (u[slot], old_u)):
                            assert got.tobytes() == want.tobytes()
                        seen.append(i)
                    signed_zeros += np.count_nonzero((u == 0.0) & np.signbit(u))
            assert sorted(seen) == list(range(len(shapes)))
        assert signed_zeros > 0

    def test_list_order_pass_is_each_shapes_own(self):
        # `distance_gradients` lays every group's pass out in list order,
        # (points, shapes).  Where a point is outside a shape by more than
        # the kernels' 1e-12, its distance is the shape's own `distance`
        # bit for bit.
        rng = np.random.default_rng(83)
        outside = 0
        for _ in range(30):
            shapes = [mixed_shape(rng) for _ in range(rng.integers(1, 12))]
            pts = probe_points(shapes, rng)
            d, u = geometry.distance_gradients(shape_groups(shapes), pts)
            assert d.shape == (len(pts), len(shapes))
            assert u.shape == (len(pts), len(shapes), 2)
            for i, shape in enumerate(shapes):
                own_d, own_u = own_distance_gradient(shape, pts)
                assert d[:, i].tobytes() == own_d.tobytes()
                assert u[:, i].tobytes() == own_u.tobytes()
                out = own_d > 0.0
                got, want = d[out, i], shape.distance(pts[out])
                assert got.tobytes() == want.tobytes()
                outside += int(out.sum())
        assert outside > 10_000
        d, u = geometry.distance_gradients([], np.zeros((3, 2)))
        assert d.shape == (3, 0) and u.shape == (3, 0, 2)

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
            d, u = own_distance_gradient(shape, pts)
            want_d, want_u = old_distance_models(shape, pts)
            assert np.array_equal(d, want_d)
            assert np.array_equal(u, want_u)
            assert (d == 0.0).any() and (d > 0.0).any()
            pairs += len(pts) * len(getattr(shape, "corners", ()))
        assert pairs > 50_000
