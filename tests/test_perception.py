"""Scan segmentation, shape classification, and map merging behavior."""

import math

import numpy as np
import pytest

from swarmplan import perception
from swarmplan.geometry import (Circle, Square, Rectangle, Triangle, axis_rectangle,
                               corners_area, distance_gradients,
                               oriented_rectangle, _disk_distance_gradient,
                               _edge_projections, _polygon_distance_gradient,
                               shape_groups)
from swarmplan.perception import (Cluster, LocalMap, build_moving_volume,
                                  classify_cluster, compensate_motion,
                                  decompose_boundary, fit_rectangle,
                                  segment_scan)
from swarmplan.sensor import Scan, World, simulate_scan
from swarmplan.bspline import TrajectorySpline


def boundary_samples(polygon, n):
    """n points spaced evenly along a polygon's boundary, from corner 0."""
    a = polygon.corners
    b = np.roll(a, -1, axis=0)
    lens = np.linalg.norm(b - a, axis=1)
    s = np.linspace(0.0, lens.sum(), n, endpoint=False)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
    frac = (s - cum[idx]) / lens[idx]
    return a[idx] + frac[:, None] * (b[idx] - a[idx])


def make_scan(ranges, stamp=0.0, sweep=0.2, fov_closed=True):
    ranges = np.asarray(ranges, dtype=float)
    n = len(ranges)
    inc = 2 * np.pi / n if fov_closed else np.deg2rad(1.0)
    return Scan(stamp=stamp, angle_start=0.0, angle_increment=inc,
                ranges=ranges, sweep_duration=sweep,
                origins=np.zeros((n, 2)))


class TestSegmentation:
    """At 1.5 m, returns 10 degrees apart are 0.26 m apart, within
    JUMP_DISTANCE: unless a test says otherwise, only missing returns split
    its runs."""

    def test_basic_runs(self):
        r = np.full(36, np.nan)
        r[3:8] = 1.5
        r[20:22] = 1.5
        clusters = segment_scan(make_scan(r))
        assert len(clusters) == 2
        assert len(clusters[0].points) == 5
        assert len(clusters[1].points) == 2

    def test_single_returns_discarded(self):
        r = np.full(36, np.nan)
        r[5] = 1.5
        r[10:12] = 1.5
        clusters = segment_scan(make_scan(r))
        assert len(clusters) == 1
        assert len(clusters[0].points) == 2

    def test_wraparound_merges(self):
        r = np.full(36, np.nan)
        r[0:3] = 1.5
        r[-2:] = 1.5
        clusters = segment_scan(make_scan(r))
        assert len(clusters) == 1
        assert len(clusters[0].points) == 5

    def test_no_wrap_for_partial_fov(self):
        r = np.full(36, np.nan)
        r[0:3] = 2.0
        r[-2:] = 2.0
        clusters = segment_scan(make_scan(r, fov_closed=False))
        assert len(clusters) == 2

    def test_median_stamp(self):
        r = np.full(10, np.nan)
        r[2:5] = 0.4
        scan = make_scan(r, stamp=1.0, sweep=1.0)
        clusters = segment_scan(scan)
        # Beams 2, 3, 4 at stamps 1.2, 1.3, 1.4.
        assert clusters[0].median_stamp == pytest.approx(1.3)

    def test_depth_jump_splits_run(self):
        # Returns 0.26 m apart stay together; the 0.5 m step to the nearer
        # object splits the run.
        r = np.full(36, np.nan)
        r[3:6] = 1.5
        r[6:9] = 1.0
        clusters = segment_scan(make_scan(r))
        assert [len(c.points) for c in clusters] == [3, 3]

    def test_all_nan(self):
        assert segment_scan(make_scan(np.full(12, np.nan))) == []


class TestCompensation:
    def test_position_at_median_stamp(self):
        control = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
        traj = TrajectorySpline(3, 0.0, 1.0, control)  # moves +x at 1 m/s
        cluster = Cluster(points=np.zeros((3, 2)), median_stamp=4.0)
        p = compensate_motion(cluster, traj)
        assert np.allclose(p, traj.position(4.0), atol=1e-12)

    def test_stamp_clamped_into_domain(self):
        control = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
        traj = TrajectorySpline(3, 0.0, 1.0, control)
        lo, hi = traj.domain
        early = compensate_motion(Cluster(points=np.zeros((2, 2)), median_stamp=lo - 5.0), traj)
        late = compensate_motion(Cluster(points=np.zeros((2, 2)), median_stamp=hi + 5.0), traj)
        assert np.allclose(early, traj.position(lo), atol=1e-12)
        assert np.allclose(late, traj.position(hi), atol=1e-12)


class TestFitRectangle:
    def test_erects_away_from_robot(self):
        pts = np.stack([np.linspace(0, 1, 9), np.full(9, 2.0)], axis=1)
        sq = fit_rectangle(pts, robot_position=[0.5, 0.0])
        assert isinstance(sq, Square)
        want = {(0, 2), (1, 2), (1, 3), (0, 3)}
        got = {(round(x, 9), round(y, 9)) for x, y in sq.corners}
        assert got == want

    def test_robot_on_other_side(self):
        pts = np.stack([np.linspace(0, 1, 9), np.full(9, 2.0)], axis=1)
        sq = fit_rectangle(pts, robot_position=[0.5, 5.0])
        ys = sorted(set(round(y, 9) for _, y in sq.corners))
        assert ys == [1.0, 2.0]

    def test_rejects_bent_cluster(self):
        pts = np.array([[0, 0], [0.5, 0.4], [1, 0]])
        with pytest.raises(ValueError):
            fit_rectangle(pts, robot_position=[0.5, -3.0])


class TestDecomposeBoundary:
    def test_every_piece_is_the_fit_of_its_points(self):
        # Random polylines with bends, noise, repeated points and closed
        # rings: every piece is within LINE_TOL of its chord, so each
        # shape is fit_rectangle of the piece's points, bit for bit.
        rng = np.random.default_rng(43)
        pieces = 0
        for trial in range(300):
            n_legs = int(rng.integers(1, 6))
            heading = np.cumsum(rng.uniform(-2.5, 2.5, size=n_legs))
            lengths = rng.uniform(0.01, 3.0, size=n_legs)
            corners = np.vstack([[0.0, 0.0], np.cumsum(
                lengths[:, None] * np.stack([np.cos(heading),
                                             np.sin(heading)], axis=1),
                axis=0)])
            pts = np.vstack([np.linspace(a, b, int(rng.integers(2, 30)))[:-1]
                             for a, b in zip(corners[:-1], corners[1:])]
                            + [corners[-1:]])
            pts = pts + rng.normal(scale=rng.choice([0.0, 0.005, 0.03]),
                                   size=pts.shape)
            if trial % 7 == 0:
                pts = np.repeat(pts, 2, axis=0)
            robot = rng.uniform(-4.0, 4.0, size=2)
            for shape, piece in decompose_boundary(pts, robot,
                                                   closed=trial % 5 == 0):
                want = fit_rectangle(piece, robot)
                assert shape.corners.tobytes() == want.corners.tobytes()
                pieces += 1
        assert pieces > 1000


class TestClassification:
    def test_circle_from_arc(self):
        th = np.linspace(np.pi / 2, 3 * np.pi / 2, 20)
        pts = np.array([2.0, 0.0]) + 0.5 * np.stack([np.cos(th), np.sin(th)], axis=1)
        shape = classify_cluster(pts, robot_position=[0.0, 0.0])
        assert isinstance(shape, Circle)
        assert np.allclose(shape.center, [2.0, 0.0], atol=1e-3)
        assert shape.radius == pytest.approx(0.5, abs=1e-3)

    def test_collinear_three_points_become_square(self):
        pts = np.array([[0.0, 2.0], [0.5, 2.0], [1.0, 2.0]])
        shape = classify_cluster(pts, robot_position=[0.5, 0.0])
        assert isinstance(shape, Square)
        # Near side is the observed chord.
        assert shape.contains([0.5, 2.5])
        assert not shape.contains([0.5, 1.5])

    def test_two_point_cluster_minimum_square(self):
        pts = np.array([[1.0, 1.0], [1.02, 1.0]])
        shape = classify_cluster(pts, robot_position=[0.0, 0.0])
        assert isinstance(shape, Square)
        side = np.linalg.norm(shape.corners[1] - shape.corners[0])
        assert side == pytest.approx(0.1, abs=1e-9)

    def test_corner_view_becomes_triangle(self):
        # Two straight faces meeting at an observed corner.
        a = np.stack([np.linspace(0, 1, 12), np.zeros(12)], axis=1)
        b = np.stack([np.full(12, 1.0), np.linspace(0, 1, 12)], axis=1)
        pts = np.vstack([a, b[1:]])
        shape = classify_cluster(pts, robot_position=[3.0, -3.0])
        assert isinstance(shape, Triangle)
        corners = {tuple(np.round(c, 6)) for c in shape.corners}
        assert (1.0, 0.0) in corners      # the observed corner
        assert (0.0, 0.0) in corners      # first point
        assert (1.0, 1.0) in corners      # last point

    def test_long_straight_wall_square(self):
        pts = np.stack([np.linspace(-3, 3, 61), np.full(61, 4.0)], axis=1)
        shape = classify_cluster(pts, robot_position=[0.0, 0.0])
        assert isinstance(shape, Square)
        side = np.linalg.norm(shape.corners[1] - shape.corners[0])
        assert side == pytest.approx(6.0, abs=1e-9)

    def test_noisy_circle_still_circle(self):
        rng = np.random.default_rng(5)
        th = np.linspace(0.2, np.pi - 0.2, 24)
        pts = np.array([0.0, 3.0]) + 0.8 * np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = pts + rng.normal(scale=0.004, size=pts.shape)
        shape = classify_cluster(pts, robot_position=[0.0, 0.0])
        assert isinstance(shape, Circle)
        assert np.linalg.norm(shape.center - [0.0, 3.0]) < 0.1

    def test_end_to_end_scan_of_circle(self):
        world = World(obstacles=[Circle([3.0, 0.0], 0.6)], bounds=(-10, -10, 10, 10))
        scan = simulate_scan(world, [0.0, 0.0], 0.0, 0.0)
        clusters = segment_scan(scan)
        assert len(clusters) == 1
        shape = classify_cluster(clusters[0].points, robot_position=[0.0, 0.0])
        assert isinstance(shape, Circle)
        assert np.linalg.norm(shape.center - [3.0, 0.0]) < 0.05
        assert abs(shape.radius - 0.6) < 0.05


class TestLocalMap:
    def test_insert_and_count(self):
        m = LocalMap()
        m.insert(Circle([2.0, 0.0], 0.5))
        m.insert(Circle([-3.0, 4.0], 0.5))
        assert len(m) == 2

    def test_duplicate_insert_idempotent(self):
        m = LocalMap()
        c = Circle([2.0, 0.0], 0.5)
        m.insert(c)
        m.insert(Circle([2.0, 0.0], 0.5))
        assert len(m) == 1

    def test_overlapping_circles_merge_enclosing(self):
        m = LocalMap()
        m.insert(Circle([0.0, 0.0], 1.0))
        m.insert(Circle([0.5, 0.0], 1.0))
        assert len(m) == 1
        merged = m.shapes()[0]
        assert isinstance(merged, Circle)
        # Minimal enclosing circle of the pair.
        assert merged.radius == pytest.approx(1.25, abs=1e-9)
        assert np.allclose(merged.center, [0.25, 0.0], atol=1e-9)
        # Contains both inputs.
        for c, r in (([0, 0], 1.0), ([0.5, 0], 1.0)):
            assert np.linalg.norm(merged.center - c) + r <= merged.radius + 1e-9

    def test_distant_circles_stay_separate(self):
        m = LocalMap()
        m.insert(Circle([0.0, 0.0], 1.0))
        m.insert(Circle([5.0, 0.0], 1.0))
        assert len(m) == 2

    def test_rectangles_merge_into_bounding_rect(self):
        m = LocalMap()
        m.insert(axis_rectangle(0, 0, 2, 1))
        m.insert(axis_rectangle(1, 0, 3, 1))
        assert len(m) == 1
        merged = m.shapes()[0]
        assert isinstance(merged, (Square, Rectangle))
        for p in ([0, 0], [3, 1], [0, 1], [3, 0]):
            assert merged.distance(p) <= 1e-9

    def test_heterogeneous_resolved_by_residual(self):
        m = LocalMap()
        m.insert(Circle([1.0, 1.0], 0.5))
        # New evidence: points hugging a square around the same center.
        sq = Square([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
        pts = boundary_samples(sq, 40)
        m.insert(sq, points=pts)
        assert len(m) == 1
        assert isinstance(m.shapes()[0], Square)

    def test_recenter_drops_far_shapes(self, monkeypatch):
        monkeypatch.setattr(perception, "MAP_RADIUS", 5.0)
        m = LocalMap()
        m.insert(Circle([2.0, 0.0], 0.5))
        m.insert(Circle([-4.0, 0.0], 0.5))
        m.recenter([4.0, 0.0])
        centers = [s.center[0] for s in m.shapes()]
        assert centers == [2.0]

    def test_recenter_carves_the_shapes_over_the_robot(self):
        # Two circles beside the robot merge into an enclosing circle over
        # it, though neither holds it.  Recentering there drops that union
        # and nothing else: not a thin triangle whose size scale reaches
        # the robot but whose body does not, nor a far square.
        robot = np.array([2.25, 0.7])
        m = LocalMap(robot)
        m.insert(Circle([2.0, 0.0], 0.6))
        m.insert(Circle([2.5, 0.0], 0.6))
        [union] = m.shapes()
        assert union.contains(robot)
        sliver = Triangle([robot + [0.2, 0.05], robot + [0.2, -0.05],
                           robot + [2.0, 0.0]])
        assert np.linalg.norm(sliver.center - robot) < sliver.size_scale
        assert not sliver.contains(robot)
        far = axis_rectangle(-4.0, -4.0, -3.0, -3.0)
        m.insert(sliver)
        m.insert(far)
        assert len(m) == 3
        m.recenter(robot)
        assert sorted(map(id, m.shapes())) == sorted([id(sliver), id(far)])

    def test_insert_beyond_radius_ignored(self):
        m = LocalMap()
        m.insert(Circle([20.0, 0.0], 0.5))
        assert len(m) == 0


class GridMap:
    """Reference LocalMap: the 1 m hash grid the list replaced.

    Buckets keyed by cell relative to the origin, rebuilt on every
    recenter; an insert scans the cells within the reach of its shape plus
    the largest stored one.
    """

    def __init__(self, origin=(0.0, 0.0)):
        self.origin = np.asarray(origin, dtype=float)
        self.buckets = {}

    def shapes(self):
        return [s for key in sorted(self.buckets) for s in self.buckets[key]]

    def _key(self, shape):
        return (int(np.floor(shape.center[0] - self.origin[0] + 0.5)),
                int(np.floor(shape.center[1] - self.origin[1] + 0.5)))

    def recenter(self, new_origin):
        shapes = self.shapes()
        self.origin = np.asarray(new_origin, dtype=float)
        self.buckets = {}
        for s in shapes:
            if (np.linalg.norm(s.center - self.origin) <= perception.MAP_RADIUS
                    and not s.contains(self.origin)):
                self.buckets.setdefault(self._key(s), []).append(s)

    def insert(self, shape, points=None):
        center = shape.center
        if np.linalg.norm(center - self.origin) > perception.MAP_RADIUS:
            return None
        largest = max((s.size_scale for s in self.shapes()), default=0.0)
        r = int(np.ceil(shape.size_scale + largest)) + 1
        kx, ky = self._key(shape)
        window = [s for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                  for s in self.buckets.get((kx + dx, ky + dy), ())]
        for other in window:
            gap = float(np.linalg.norm(center - other.center))
            if gap >= max(shape.size_scale, other.size_scale):
                continue
            merged = perception._merge_shapes(other, shape, points)
            if merged is None:
                continue
            entries = self.buckets[self._key(other)]
            entries.remove(other)
            if not entries:
                del self.buckets[self._key(other)]
            return self.insert(merged, points=None)
        self.buckets.setdefault(self._key(shape), []).append(shape)
        return shape


def random_observation(rng, origin):
    """A circle, rectangle or triangle near the origin, sometimes with points.

    Centers reach up to 19 m out, past MAP_RADIUS; the points, when given,
    trace a circle or a square at the same spot, so they may come from
    another family than the shape.
    """
    center = origin + rng.uniform(-1.0, 1.0, 2) * (19.0 if rng.random() < 0.2 else 4.0)
    size = rng.uniform(0.2, 1.6)
    kind = rng.integers(3)
    if kind == 0:
        shape = Circle(center, size)
    elif kind == 1:
        shape = oriented_rectangle(
            center, rng.normal(size=2), size, rng.uniform(0.2, 1.0) * size)
    else:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
        shape = Triangle(center + size * np.stack([np.cos(angles), np.sin(angles)], 1))
    if rng.random() < 0.5:
        return shape, None
    if rng.random() < 0.5:
        angles = rng.uniform(0.0, 2.0 * np.pi, 20)
        points = center + size * np.stack([np.cos(angles), np.sin(angles)], 1)
    else:
        points = boundary_samples(axis_rectangle(*(center - size), *(center + size)), 20)
    return shape, points + rng.normal(scale=0.02, size=points.shape)


class TestLocalMapOracle:
    def test_list_matches_grid(self, monkeypatch):
        # Both maps share each merge result, so equal behaviour means the
        # very same objects in the same order.
        merges = {}
        merge = perception._merge_shapes

        def shared_merge(stored, incoming, points):
            key = (id(stored), id(incoming), id(points))
            if key not in merges:
                merges[key] = (stored, incoming, points,
                               merge(stored, incoming, points))
            return merges[key][3]

        monkeypatch.setattr(perception, "_merge_shapes", shared_merge)
        refused = dropped = carved = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            origin = rng.uniform(-3.0, 3.0, 2)
            listed, grid = LocalMap(origin), GridMap(origin)
            for _ in range(80):
                if rng.random() < 0.15:
                    origin = origin + rng.uniform(-8.0, 8.0, 2)
                    before = len(listed)
                    carved += sum(bool(s.contains(origin))
                                  for s in listed.shapes())
                    listed.recenter(origin)
                    grid.recenter(origin)
                    dropped += before - len(listed)
                else:
                    shape, points = random_observation(rng, origin)
                    kept = listed.insert(shape, points)
                    assert grid.insert(shape, points) is kept
                    refused += kept is None
                got, want = listed.shapes(), grid.shapes()
                assert [id(s) for s in got] == [id(s) for s in want]
        # The sequences exercise every path: merges, refusals, drops and
        # carves.
        assert len(merges) > 100 and refused > 10 and dropped > 10
        assert carved > 5
        assert any(m[3] is not None for m in merges.values())


class ShapeList:
    """Stands in for a LocalMap: shapes() in a fixed order."""

    def __init__(self, shapes):
        self._shapes = list(shapes)

    def shapes(self):
        return list(self._shapes)


def own_distance(shape, p):
    """The shape's kind's nearest-point kernel on the shape's own
    parameters: its distance from the point p (2,), 0 inside."""
    if isinstance(shape, Circle):
        d, _ = _disk_distance_gradient(shape.center, shape.radius, p)
    else:
        d, _ = _polygon_distance_gradient(shape.corners, shape.edges, p)
    return float(d)


def oracle_volume_lists(shapes, trajectory, t_now, horizon, tau, radius):
    """(seeds, lists): each slice's seed and shapes, one window and one
    shape at a time.  The walk starts at the robot, the path at t_now, and
    takes each window center in turn; a center inside a shape (distance 0)
    keeps the seed before it.  A slice holds the shapes at most `radius`
    from its seed."""
    times = np.arange(int(round(horizon / tau)) + 1) * tau
    path = trajectory.positions(np.clip(t_now + times, *trajectory.domain))
    seed, seeds = path[0], []
    for c in path[1:]:
        if all(own_distance(s, c) > 0.0 for s in shapes):
            seed = c
        seeds.append(seed)
    return seeds, [[s for s in shapes if own_distance(s, c) <= radius]
                   for c in seeds]


def volume_lists(vol):
    return [[vol.shapes[j] for j in np.flatnonzero(row)] for row in vol.member]


def group_arrays(groups):
    """Each group's arrays (dtype, shape, bytes), keyed by its kind: 0 for
    circles, the corner count for polygons."""
    by_kind = {(g.corners.shape[1] if hasattr(g, "corners") else 0):
               {name: (a.dtype, a.shape, a.tobytes())
                for name, a in vars(g).items()} for g in groups}
    assert len(by_kind) == len(groups)
    return by_kind


class TestMovingVolume:
    def test_slices_and_membership(self):
        m = LocalMap()
        m.insert(Circle([2.0, 0.0], 0.5))
        m.insert(Circle([12.0, 0.0], 0.5))
        control = np.stack([np.linspace(0, 7, 8), np.zeros(8)], axis=1)
        traj = TrajectorySpline(3, 0.0, 1.0, control)
        vol = build_moving_volume(m, traj, t_now=3.0, horizon=2.0, tau=0.5)
        assert vol.member.shape == (4, len(vol.shapes))
        assert vol.distances.shape == (4, len(vol.shapes))
        assert vol.gradients.shape == (4, len(vol.shapes), 2)
        assert vol.t_rel[0] == pytest.approx(0.5)
        assert vol.t_rel[-1] == pytest.approx(2.0)
        # Early slices near x=3 see only the near circle.
        assert volume_lists(vol)[0] == [m.shapes()[0]]

    def test_window_filters_by_shape_distance(self, monkeypatch):
        # A long wall and a circle whose centers lie beyond the window but
        # whose near sides lie within it are members; a shape wholly
        # beyond it stays in the volume with an all-False column.
        monkeypatch.setattr(perception, "WINDOW_RADIUS", 3.0)
        near = Circle([1.0, 0.0], 0.5)
        far = Circle([9.0, 0.0], 0.5)
        wall = axis_rectangle(2.5, -0.1, 12.5, 0.1)
        rim = Circle([3.4, 0.0], 0.5)
        control = np.zeros((8, 2))
        traj = TrajectorySpline(3, 0.0, 1.0, control)
        vol = build_moving_volume(ShapeList([near, far, wall, rim]), traj,
                                  0.0, 1.0, 0.5)
        assert vol.shapes == [near, far, wall, rim]
        assert vol.member.tolist() == [[True, False, True, True]] * 2
        assert vol.distances[0].tolist() == pytest.approx(
            [0.5, 8.5, 2.5, 2.9])

    def test_window_rim_is_inside(self):
        # The rim shapes are placed from the window centers, which the
        # spline's basis product rounds (2.5 or 2.5000000000000004, by
        # BLAS core, for center 2).  Shape 0's near edge lies WINDOW_RADIUS
        # left of center 2 and shape 1's two ulps farther; shape 2's corner
        # lies |(3, -4)| = WINDOW_RADIUS from center 3.  Centers 2 and 3
        # lie in [2, 4), so each offset subtracts exactly.
        r = perception.WINDOW_RADIUS
        control = np.stack([np.linspace(0, 7, 8), np.zeros(8)], axis=1)
        traj = TrajectorySpline(3, 0.0, 1.0, control)
        centers = build_moving_volume(ShapeList([]), traj, 3.0, 2.0,
                                      0.5).centers
        assert np.allclose(centers, [[1.5, 0.0], [2.0, 0.0], [2.5, 0.0],
                                     [3.0, 0.0]], atol=1e-12)
        x2, x3 = centers[2, 0], centers[3, 0]
        rim = x2 - r
        beyond = np.nextafter(np.nextafter(rim, -9.0), -9.0)
        shapes = [axis_rectangle(rim - 1.0, -1.0, rim, 1.0),
                  axis_rectangle(rim - 1.0, -1.0, beyond, 1.0),
                  axis_rectangle(x3 - 4.0, 4.0, x3 - 3.0, 5.0)]
        vol = build_moving_volume(ShapeList(shapes), traj, 3.0, 2.0, 0.5)
        assert vol.centers.tobytes() == centers.tobytes()
        assert vol.shapes == shapes
        assert vol.distances[2, 0] == vol.distances[3, 2] == r
        assert vol.distances[2, 1] == np.nextafter(r, 2 * r)
        assert vol.member.tolist() == [[True, True, True],
                                       [True, True, True],
                                       [True, False, True],
                                       [False, False, True]]

    def test_mask_matches_per_slice_loop(self):
        # Shapes at random, on the windows' rims up to rounding, and long
        # walls whose centers lie beyond a window that their sides reach.
        # Random shapes cover some window centers, whose slices re-seed.
        rng = np.random.default_rng(71)
        radius = perception.WINDOW_RADIUS
        reached = left_out = reseeded = 0
        for _ in range(30):
            traj = TrajectorySpline(3, 0.0, 1.0,
                                    rng.uniform(-4.0, 4.0, size=(8, 2)))
            t_now = float(rng.uniform(2.0, 4.0))
            t_rel = 0.1 * np.arange(1, 41)
            path = traj.positions(np.clip(t_now + t_rel, *traj.domain))
            shapes = []
            for _ in range(int(rng.integers(0, 12))):
                c = rng.uniform(-10.0, 10.0, size=2)
                shapes.append(Circle(c, 0.3) if rng.random() < 0.5 else
                              Triangle(c + rng.uniform(-1, 1, size=(3, 2))))
            for k in rng.integers(0, len(path), size=8):
                th = rng.uniform(0, 2 * np.pi)
                out = np.array([np.cos(th), np.sin(th)])
                shapes.append(Circle(path[k] + (radius + 0.2) * out, 0.2))
                # A wall across `out` whose near side is on the rim.
                shapes.append(oriented_rectangle(
                    path[k] + (radius + 0.1) * out, [-out[1], out[0]],
                    float(rng.uniform(0.5, 3.0)), 0.1))
                shapes.append(oriented_rectangle(
                    path[k] + rng.uniform(radius + 0.5, radius + 3.0) * out,
                    [np.cos(th + 1.0), np.sin(th + 1.0)], 4.0, 0.1))
            rng.shuffle(shapes)
            vol = build_moving_volume(ShapeList(shapes), traj, t_now, 4.0,
                                      0.1)
            seeds, want = oracle_volume_lists(shapes, traj, t_now, 4.0, 0.1,
                                              radius)
            assert volume_lists(vol) == want
            assert vol.shapes == shapes
            # The map's groups, also when some shape lies beyond every
            # window.
            assert group_arrays(vol.groups) == group_arrays(
                shape_groups(shapes))
            left_out += not vol.member.any(axis=0).all()
            assert np.array_equal(vol.centers, seeds)
            for k, c in enumerate(seeds):
                for j, s in enumerate(vol.shapes):
                    assert vol.distances[k, j] == own_distance(s, c)
            reseeded += (vol.centers != path).any(axis=1).sum()
            reached += sum(np.linalg.norm(s.center - c) > radius
                           for c, lst in zip(seeds, want) for s in lst)
        assert reached > 100
        assert 0 < left_out < 30
        assert reseeded > 20

    def test_slices_seed_on_the_last_free_row(self):
        # Row 0 is the robot, on the old plan at t_now, and row k the window
        # center of slice k.  A slice takes its own row when no shape holds
        # it, else the nearest free row before it, else the robot's row:
        # its center, distances, gradients and membership are that row's,
        # bit for bit.  So every center is free unless the robot's is not.
        rng = np.random.default_rng(29)
        own = donor = stuck = 0
        for trial in range(40):
            traj = TrajectorySpline(3, 0.0, 1.0,
                                    rng.uniform(-4.0, 4.0, size=(8, 2)))
            t_now = float(rng.uniform(0.0, 3.0))
            rows = traj.positions(np.clip(t_now + 0.1 * np.arange(41),
                                          *traj.domain))
            shapes = []
            for _ in range(int(rng.integers(0, 6))):
                c = rng.uniform(-8.0, 8.0, size=2)
                shapes.append(Triangle(c + rng.uniform(-2, 2, size=(3, 2))))
            # Shapes over runs of rows, and over the robot in some trials.
            for k in rng.integers(0 if trial % 3 == 0 else 1, 41, size=3):
                shapes.append(Circle(rows[k] + rng.uniform(-0.2, 0.2, 2),
                                     float(rng.uniform(0.1, 0.6))))
            rng.shuffle(shapes)
            vol = build_moving_volume(ShapeList(shapes), traj, t_now, 4.0,
                                      0.1)
            d, u = distance_gradients(shape_groups(shapes), rows)
            free = [all(own_distance(s, r) > 0.0 for s in shapes)
                    for r in rows]
            for k in range(40):
                j = max((i for i in range(k + 2) if free[i]), default=0)
                assert vol.centers[k].tobytes() == rows[j].tobytes()
                assert vol.distances[k].tobytes() == d[j].tobytes()
                assert vol.gradients[k].tobytes() == u[j].tobytes()
                assert np.array_equal(vol.member[k],
                                      d[j] <= perception.WINDOW_RADIUS)
                assert free[j] or not free[0]
                own += j == k + 1
                donor += 0 < j < k + 1
                stuck += not free[j]
        assert own > 500 and donor > 50 and stuck > 10

    def test_one_grouping_per_volume(self, monkeypatch):
        # The map is grouped once per volume, whether every shape lies in
        # some window or some lie beyond them all.
        calls = []

        def counted(shapes):
            calls.append(list(shapes))
            return shape_groups(shapes)

        monkeypatch.setattr(perception, "shape_groups", counted)
        near = Circle([1.0, 0.0], 0.5)
        far = Circle([30.0, 0.0], 0.5)
        wall = axis_rectangle(-40.0, -1.0, -35.0, 1.0)
        traj = TrajectorySpline(3, 0.0, 1.0, np.zeros((8, 2)))
        for shapes in ([], [near], [far], [near, far, wall], [far, near]):
            calls.clear()
            vol = build_moving_volume(ShapeList(shapes), traj, 0.0, 4.0, 0.1)
            assert calls == [shapes]
            assert vol.shapes == shapes
            assert vol.member.any(axis=0).tolist() == [s is near
                                                       for s in shapes]


# --- parity with the per-element code that the array passes replaced -------
#
# Each `per_*` helper below is the code a sweep and a fold ran before they
# became array passes, kept as the reference those passes must equal bit
# for bit.

def per_beam_position(length, angle, robot_position):
    robot_position = np.asarray(robot_position, dtype=float)
    return robot_position + length * np.array([np.cos(angle), np.sin(angle)])


def per_beam_segment_scan(scan):
    finite = np.isfinite(scan.ranges)
    if not np.any(finite):
        return []
    n = scan.n_beams
    angles = scan.beam_angles()
    stamps = scan.beam_stamps()
    origins = scan.origins
    full_circle = abs(scan.angle_increment * n - 2.0 * np.pi) < 1e-6
    idx = np.flatnonzero(finite)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    wraps = (len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1 and full_circle)
    if wraps:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs = runs[:-1]
    clusters = []
    for run in runs:
        if len(run) < 2:
            continue
        pts = np.stack([per_beam_position(scan.ranges[k], angles[k], origins[k])
                        for k in run])
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        pieces = np.split(np.arange(len(run)),
                          np.flatnonzero(gaps > perception.JUMP_DISTANCE) + 1)
        for piece in pieces:
            if len(piece) < 2:
                continue
            seam = float(np.linalg.norm(pts[piece[0]] - pts[piece[-1]]))
            closed = (full_circle and len(piece) == n
                      and seam <= perception.JUMP_DISTANCE)
            clusters.append(Cluster(
                points=pts[piece],
                median_stamp=float(np.median(stamps[run][piece])),
                closed=closed))
    return clusters


def random_sweep(rng, n, full_circle, ring=False):
    """A swept scan with NaN gaps, depth jumps and a drifting origin.

    A ring is finite everywhere at a nearly constant depth, so it closes.
    """
    if ring:
        ranges = 1.0 + rng.normal(scale=1e-3, size=n)
    else:
        ranges = np.empty(n)
        depth, missing = rng.uniform(1.0, 4.0), rng.random() < 0.3
        for k in range(n):
            u = rng.random()
            if u < 0.04:
                missing = not missing
            elif u < 0.08:
                depth = rng.uniform(1.0, 4.0)   # a jump past JUMP_DISTANCE
            elif u < 0.10:
                ranges[k] = np.nan              # a one-beam gap
                continue
            ranges[k] = np.nan if missing else depth + rng.normal(scale=0.005)
        if rng.random() < 0.5:
            # Returns on both sides of the seam.
            ranges[:3] = ranges[-3:] = depth
    inc = 2.0 * np.pi / n if full_circle else np.deg2rad(1.0)
    origins = rng.uniform(-3, 3, 2) + np.cumsum(
        rng.normal(scale=0.01, size=(n, 2)), axis=0)
    return Scan(stamp=float(rng.uniform(0, 10)),
                angle_start=float(rng.uniform(-np.pi, np.pi)),
                angle_increment=inc, ranges=ranges, sweep_duration=0.2,
                origins=origins)


class TestSweepParity:
    def test_one_pass_equals_per_beam(self):
        seen = {"wrapped": 0, "closed": 0, "jump": 0, "partial": 0}
        for seed in range(60):
            rng = np.random.default_rng(seed)
            full = seed % 4 != 3
            n = 360 if full else 200
            scan = random_sweep(rng, n, full, ring=seed % 10 == 0)
            got, want = segment_scan(scan), per_beam_segment_scan(scan)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.points.tobytes() == w.points.tobytes()
                assert g.median_stamp == w.median_stamp
                assert g.closed == w.closed
            finite = np.isfinite(scan.ranges)
            seen["wrapped"] += bool(full and finite[0] and finite[-1]
                                    and not finite.all())
            seen["closed"] += sum(c.closed for c in got)
            seen["jump"] += len(got) > len(np.split(
                np.flatnonzero(finite),
                np.flatnonzero(np.diff(np.flatnonzero(finite)) > 1) + 1))
            seen["partial"] += not full
        assert min(seen.values()) >= 3, seen

    def test_all_missing(self):
        scan = random_sweep(np.random.default_rng(0), 360, True)
        scan.ranges[:] = np.nan
        assert segment_scan(scan) == per_beam_segment_scan(scan) == []


def per_corners_area(corners):
    corners = np.asarray(corners, dtype=float)
    n = np.roll(corners, -1, axis=0)
    return 0.5 * abs(float(np.sum(corners[:, 0] * n[:, 1] - corners[:, 1] * n[:, 0])))


def per_scalar_intersection_area(a_corners, b_corners, sizes=None):
    """The clip on numpy scalars; `sizes` collects the clipped corner counts."""
    out = [np.asarray(p, dtype=float) for p in a_corners]
    b_corners = np.asarray(b_corners, dtype=float)
    for i in range(len(b_corners)):
        va = b_corners[i]
        edge = b_corners[(i + 1) % len(b_corners)] - va
        cur = out
        out = []
        if not cur:
            break
        side = [edge[0] * (p[1] - va[1]) - edge[1] * (p[0] - va[0]) for p in cur]
        for j in range(len(cur)):
            p, q = cur[j], cur[(j + 1) % len(cur)]
            sp, sq = side[j], side[(j + 1) % len(cur)]
            if sp >= -1e-12:
                out.append(p)
            if (sp >= -1e-12) != (sq >= -1e-12):
                d = q - p
                denom = edge[0] * d[1] - edge[1] * d[0]
                if abs(denom) > 1e-15:
                    out.append(p - (sp / denom) * d)
    if sizes is not None:
        sizes.append(len(out))
    if len(out) < 3:
        return 0.0
    return per_corners_area(out)


def per_shape_enclosing_rect(a, b):
    big = a if per_corners_area(a.corners) >= per_corners_area(b.corners) else b
    e = big.corners[1] - big.corners[0]
    u = e / np.linalg.norm(e)
    v = np.array([-u[1], u[0]])
    pts = np.vstack([a.corners, b.corners])
    su = pts @ u
    sv = pts @ v
    mid = (su.max() + su.min()) / 2.0 * u + (sv.max() + sv.min()) / 2.0 * v
    half_u = (su.max() - su.min()) / 2.0
    half_v = (sv.max() - sv.min()) / 2.0
    if abs(half_u - half_v) <= 1e-9 * max(half_u, half_v):
        return Square([mid - half_u * u - half_v * v, mid + half_u * u - half_v * v,
                       mid + half_u * u + half_v * v, mid - half_u * u + half_v * v])
    return oriented_rectangle(mid, u, half_u, half_v)


def per_point_distance(shape, p):
    if isinstance(shape, Circle):
        x, y = (p - shape.center).tolist()
        return max(0.0, math.sqrt(x * x + y * y) - shape.radius)
    if shape.contains(p):
        return 0.0
    return float(np.min(_edge_projections(shape.corners, shape.edges, p)[2]))


def per_point_mean_residual(shape, points):
    return float(np.mean([per_point_distance(shape, p) for p in points]))


def per_shape_merge(stored, incoming, points):
    fam_s, fam_i = perception._family(stored), perception._family(incoming)
    if fam_s == "circle" and fam_i == "circle":
        union = perception._enclosing_circle(stored, incoming)
        parts = stored.radius ** 2 + incoming.radius ** 2
        if union.radius ** 2 > perception.MERGE_AREA_SLACK * parts:
            return None
        return union
    if fam_s == fam_i:
        union = per_shape_enclosing_rect(stored, incoming)
        overlap = per_scalar_intersection_area(stored.corners, incoming.corners)
        covered = (per_corners_area(stored.corners)
                   + per_corners_area(incoming.corners) - overlap)
        if per_corners_area(union.corners) > perception.MERGE_AREA_SLACK * max(covered, 1e-12):
            return None
        return union
    if points is None or len(points) == 0:
        return None
    PerShapeMap.cross_family += 1
    if per_point_mean_residual(incoming, points) < per_point_mean_residual(stored, points):
        return incoming
    return stored


class PerShapeMap:
    """The map fold that tested one stored shape at a time."""

    cross_family = 0

    def __init__(self, origin=(0.0, 0.0)):
        self.origin = np.asarray(origin, dtype=float)
        self._shapes = []

    def _key(self, center):
        return (int(np.floor(center[0] - self.origin[0] + 0.5)),
                int(np.floor(center[1] - self.origin[1] + 0.5)))

    def shapes(self):
        return sorted(self._shapes, key=lambda s: self._key(s.center))

    def recenter(self, new_origin):
        shapes = self.shapes()
        self.origin = np.asarray(new_origin, dtype=float)
        self._shapes = [s for s in shapes if np.linalg.norm(
            s.center - self.origin) <= perception.MAP_RADIUS
            and not s.contains(self.origin)]

    def insert(self, shape, points=None):
        center = shape.center
        if np.linalg.norm(center - self.origin) > perception.MAP_RADIUS:
            return None
        for other in self.shapes():
            gap = float(np.linalg.norm(center - other.center))
            if gap >= max(shape.size_scale, other.size_scale):
                continue
            merged = per_shape_merge(other, shape, points)
            if merged is None:
                continue
            self._shapes.remove(other)
            return self.insert(merged, points=None)
        self._shapes.append(shape)
        return shape


def shape_bits(shape):
    if isinstance(shape, Circle):
        return ("Circle", shape.center.tobytes(), repr(shape.radius))
    return (type(shape).__name__, shape.corners.tobytes())


def polygon_pairs(rng):
    """(a, b, how) pairs of rectangles, squares and triangles: disjoint,
    nested, touching at a corner, sharing an edge, clipping to an octagon,
    and overlapping at random."""
    def square(c, h, th=0.0):
        u = np.array([np.cos(th), np.sin(th)])
        v = np.array([-u[1], u[0]])
        return Square([c - h * u - h * v, c + h * u - h * v,
                       c + h * u + h * v, c - h * u + h * v])

    def triangle(c, s):
        ang = np.sort(rng.uniform(0, 2 * np.pi, 3))
        return Triangle(c + s * np.stack([np.cos(ang), np.sin(ang)], 1))

    def rect(c, s):
        return oriented_rectangle(c, rng.normal(size=2), s, rng.uniform(0.2, 1.0) * s)

    for _ in range(8):
        c, s = rng.uniform(-5, 5, 2), rng.uniform(0.3, 2.0)
        make = [rect, triangle, lambda c, s: square(c, s, rng.uniform(0, np.pi))]
        ka, kb = rng.integers(3, size=2)
        yield make[ka](c, s), make[kb](c + rng.uniform(3, 5, 2) * s, s), "disjoint"
        yield make[ka](c, s), make[ka](c + rng.uniform(-0.05, 0.05, 2) * s, 0.3 * s), "nested"
        yield make[ka](c, s), make[kb](c + rng.uniform(-1, 1, 2) * s, s), "overlapping"
        x, y = (int(v) for v in rng.integers(-5, 5, 2))
        w, h = (int(v) for v in rng.integers(1, 4, 2))
        yield (axis_rectangle(x, y, x + w, y + h),
               axis_rectangle(x + w, y, x + w + 2, y + h), "shared edge")
        yield (axis_rectangle(x, y, x + w, y + h),
               axis_rectangle(x + w, y + h, x + w + 1, y + h + 2), "touching")
        yield square(c, s), square(c, s, np.pi / 4), "octagon"


class TestFoldParity:
    def test_areas_and_clips(self):
        sizes = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for a, b, _ in polygon_pairs(rng):
                for p, q in ((a, b), (b, a)):
                    got = perception._convex_intersection_area(p.corners, q.corners)
                    want = per_scalar_intersection_area(p.corners, q.corners, sizes)
                    assert repr(got) == repr(want)
                    assert (repr(corners_area(p.corners))
                            == repr(per_corners_area(p.corners)))
                    assert repr(p.area) == repr(per_corners_area(p.corners))
        # Disjoint pairs clip to nothing, octagons to 8 corners, where
        # np.sum takes its 8-wide path.
        assert min(sizes) == 0 and max(sizes) >= 8
        rng = np.random.default_rng(99)
        for k in range(3, 13):
            ang = np.sort(rng.uniform(0, 2 * np.pi, k))
            ring = rng.uniform(-3, 3, 2) + np.stack([np.cos(ang), np.sin(ang)], 1)
            for corners in (ring, ring[::-1]):
                assert (repr(corners_area(corners))
                        == repr(per_corners_area(corners)))

    def test_enclosing_rect(self):
        squares = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for a, b, _ in polygon_pairs(rng):
                want = per_shape_enclosing_rect(a, b)
                cls, corners = perception._enclosing_rect(
                    a, b, a.area, b.area)
                assert cls is type(want)
                assert corners.tobytes() == want.corners.tobytes()
                assert cls(corners).corners.tobytes() == corners.tobytes()
                squares += cls is Square
        assert squares > 0

    def test_mean_boundary_residual(self):
        rng = np.random.default_rng(5)
        for a, b, _ in polygon_pairs(rng):
            for shape in (a, b, Circle(a.center, a.size_scale * 0.7)):
                pts = shape.center + rng.normal(scale=shape.size_scale, size=(30, 2))
                pts[:3] = shape.center           # inside
                if not isinstance(shape, Circle):
                    pts[3:6] = shape.corners[:3]  # on the boundary
                got = perception._mean_boundary_residual(shape, pts)
                assert repr(got) == repr(per_point_mean_residual(shape, pts))

    def test_insert_stream_equals_per_shape_fold(self):
        PerShapeMap.cross_family = 0
        merged = 0
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            origin = rng.uniform(-3.0, 3.0, 2)
            fold, ref = LocalMap(origin), PerShapeMap(origin)
            for _ in range(80):
                if rng.random() < 0.15:
                    origin = origin + rng.uniform(-8.0, 8.0, 2)
                    fold.recenter(origin)
                    ref.recenter(origin)
                else:
                    shape, points = random_observation(rng, origin)
                    kept = fold.insert(shape, points)
                    want = ref.insert(shape, points)
                    assert (kept is None) == (want is None)
                    if kept is not None:
                        assert shape_bits(kept) == shape_bits(want)
                        merged += kept is not shape
                assert ([shape_bits(s) for s in fold.shapes()]
                        == [shape_bits(s) for s in ref.shapes()])
        assert merged > 20 and PerShapeMap.cross_family > 20
