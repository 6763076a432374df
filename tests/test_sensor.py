"""Range scanner simulation against per-beam geometric oracles."""

import math

import numpy as np
import pytest

from swarmplan import geometry, sensor
from swarmplan.geometry import (Circle, Square, Triangle, axis_rectangle,
                                oriented_rectangle, shape_groups)
from swarmplan.sensor import (World, n_beams, scan_point_position,
                              simulate_scan, simulate_swept_scan)


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
    """One beam: distance from origin at `angle` to the shape boundary, or
    None when it is beyond max_range or absent."""
    u = np.array([np.cos(angle), np.sin(angle)])
    t = float(own_ray_distances(shape, np.asarray(origin, float)[None],
                                u[None])[0])
    return t if np.isfinite(t) and t <= max_range else None


def small_world():
    return World(obstacles=[Circle([3.0, 0.0], 1.0),
                            Square([[-4, -1], [-2, -1], [-2, 1], [-4, 1]])],
                 bounds=(-10, -10, 10, 10))


class TestConfig:
    def test_beam_count(self, monkeypatch):
        assert n_beams() == 360
        monkeypatch.setattr(sensor, "ANGULAR_RESOLUTION", np.deg2rad(2.0))
        assert n_beams() == 180

    def test_sweep_duration(self):
        positions = np.zeros((n_beams(), 2))
        scan = simulate_swept_scan(small_world(), positions, 0.0, stamp=0.0)
        assert scan.sweep_duration == pytest.approx(0.2)


class TestWorld:
    @pytest.mark.parametrize("bounds", [(-5.0, -5.0, 5.0, math.inf),
                                        (-math.inf, -5.0, 5.0, 5.0)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds must be finite"):
            World([], bounds)


class TestSimulateScan:
    def test_known_ranges(self):
        scan = simulate_scan(small_world(), [0.0, 0.0], 0.0, stamp=1.0)
        # Beam 0 along +x hits the circle at 2.0.
        assert scan.ranges[0] == pytest.approx(2.0, abs=1e-9)
        # Beam 180 along -x hits the square face x = -2 at 2.0.
        assert scan.ranges[180] == pytest.approx(2.0, abs=1e-9)
        # Beam 90 along +y sees nothing within range.
        assert np.isnan(scan.ranges[90])

    def test_finite_ranges_positive_and_cut(self):
        rng = np.random.default_rng(3)
        world = small_world()
        for _ in range(10):
            pos = rng.uniform(-6, 6, size=2)
            if any(o.contains(pos) for o in world.obstacles):
                continue
            scan = simulate_scan(world, pos, rng.uniform(0, 2 * np.pi), 0.0)
            finite = scan.ranges[np.isfinite(scan.ranges)]
            assert np.all(finite > 0)
            assert np.all(finite <= sensor.MAX_RANGE + 1e-12)

    def test_matches_scalar_raycast(self, monkeypatch):
        monkeypatch.setattr(sensor, "ANGULAR_RESOLUTION", np.deg2rad(10.0))
        world = small_world()
        scan = simulate_scan(world, [0.5, -0.5], 0.3, 0.0)
        angles = scan.beam_angles()
        assert scan.n_beams == 36
        for k in range(scan.n_beams):
            hits = [ray_cast([0.5, -0.5], angles[k], o, sensor.MAX_RANGE)
                    for o in world.obstacles]
            hits = [hh for hh in hits if hh is not None]
            if hits:
                assert scan.ranges[k] == pytest.approx(min(hits), abs=1e-9)
            else:
                assert np.isnan(scan.ranges[k])

    def test_kind_groups_equal_each_obstacle(self, monkeypatch):
        # Every beam is the least of the obstacles' own ray casts, bit for
        # bit, however many (obstacle, beam) pairs the cast culls: several
        # obstacles of each kind, origins inside obstacles, beams tangent
        # to a shape or to its widened bounding circle, boundaries within
        # 1e-9 m of MAX_RANGE, kinds with a single shape, and sweeps in
        # which every pair is culled, when no kernel may run.
        pairs = []
        for group in (geometry.CircleGroup, geometry.PolygonGroup):
            def counted(self, j, origins, dirs, cast=group.ray_distances):
                pairs.append(len(j))
                return cast(self, j, origins, dirs)
            monkeypatch.setattr(group, "ray_distances", counted)
        rng = np.random.default_rng(4)
        n = n_beams()
        heading = 0.2
        angles = heading + sensor.ANGULAR_RESOLUTION * np.arange(n)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)

        def check(obstacles, poses, bounds=(-10, -10, 10, 10)):
            """The scans' ranges against the oracle; (hits, pairs cast)."""
            world = World(obstacles=obstacles, bounds=bounds)
            hits = 0
            for swept in (False, True):
                origins = poses if swept else poses[:1]
                del pairs[:]
                scan = (simulate_swept_scan(world, poses, heading, 0.0) if swept
                        else simulate_scan(world, poses[0], heading, 0.0))
                own = np.min([own_ray_distances(o, origins, dirs)
                              for o in obstacles], axis=0)
                want = np.where(own <= sensor.MAX_RANGE, own, np.nan)
                assert np.array_equal(scan.ranges, want, equal_nan=True)
                hits += np.isfinite(want).sum()
            return hits, sum(pairs)

        def circle_or_polygon(c):
            kind = rng.integers(3)
            if kind == 0:
                return Circle(c, float(rng.uniform(0.2, 1.0)))
            if kind == 1:
                return Triangle(c + rng.uniform(-1.0, 1.0, size=(3, 2)))
            th = rng.uniform(0, np.pi)
            return oriented_rectangle(c, [np.cos(th), np.sin(th)],
                                      float(rng.uniform(0.3, 2.0)), 0.1)

        # Three kinds among random poses, some of which stand inside an
        # obstacle, where the kernels return the exit.
        obstacles = [circle_or_polygon(rng.uniform(-5.0, 5.0, size=2))
                     for _ in range(12)]
        assert len(shape_groups(obstacles)) == 3
        poses = rng.uniform(-6.0, 6.0, size=(n, 2))
        inside = rng.choice(n, 60, replace=False)
        poses[inside] = [obstacles[i % 12].center for i in range(60)]
        poses[0] = obstacles[0].center
        assert sum(any(o.contains(p) for o in obstacles) for p in poses) >= 60
        hits, cast = check(obstacles, poses)
        assert hits > 100 and cast < 12 * (n + 1)

        # Beams tangent to the shape itself, within a few ulps, or to its
        # bounding circle widened by BOUNDARY_TOL: grazing a circle, or
        # passing a polygon's farthest corner square to its radius.
        circle = Circle([-4.0, 0.0], 1.3)
        square = Square([[2.0, -1.0], [4.0, -1.0], [4.0, 1.0], [2.0, 1.0]])
        obstacles = [circle, square]
        poses = np.empty((n, 2))
        for k in range(n):
            d = dirs[k]
            side = np.array([-d[1], d[0]]) * (1 if k % 4 < 2 else -1)
            if k % 2:
                center, radius = circle.center, circle.radius
                point = center + radius * side
            else:
                center = square.center
                corner = square.corners[np.argmax(square.corners @ side)]
                radius = square.size_scale
                point = corner
                side = (corner - center) / radius
            gap = (rng.uniform(-4e-15, 4e-15) if k % 3
                   else geometry.BOUNDARY_TOL + rng.uniform(-1e-12, 1e-12))
            poses[k] = point + gap * side - rng.uniform(1.0, 4.0) * d
        hits, _ = check(obstacles, poses, bounds=(-20, -20, 20, 20))
        assert hits > 20

        # Boundaries within 1e-9 m of MAX_RANGE, one shape of each kind:
        # beam k starts MAX_RANGE + e from a boundary point facing it.
        rect = axis_rectangle(1.0, -2.0, 3.0, 2.0)
        obstacles = [Circle([-3.0, 0.0], 1.0), rect]
        assert len(shape_groups(obstacles)) == 2
        for k in range(n):
            d = dirs[k]
            if k % 2:
                point = obstacles[0].center - obstacles[0].radius * d
            else:
                normals = np.array([[0, -1], [1, 0], [0, 1], [-1, 0]], float)
                edge = int(np.argmin(normals @ d))
                a, e = rect.corners[edge], rect.edges[edge]
                point = a + rng.uniform(0.1, 0.9) * e
            poses[k] = point - (sensor.MAX_RANGE + rng.uniform(-1e-9, 1e-9)) * d
        ranges = simulate_swept_scan(World(obstacles, (-20, -20, 20, 20)),
                                     poses, heading, 0.0).ranges
        assert 100 < np.isfinite(ranges).sum() < n - 100
        check(obstacles, poses, bounds=(-20, -20, 20, 20))

        # Obstacles on the beams' lines, but all behind the origins or
        # beyond MAX_RANGE: every pair is culled and no kernel runs.
        reach = sensor.MAX_RANGE + 2.0 + 1e-3
        obstacles = [Circle([reach + 1.0, 0.0], 1.0),
                     Triangle([[-reach, -1.0], [-reach - 2.0, 0.0],
                               [-reach, 1.0]]),
                     axis_rectangle(-1.0, reach, 1.0, reach + 2.0)]
        poses = rng.uniform(-1.0, 1.0, size=(n, 2)) * 1e-4
        assert check(obstacles, poses) == (0, 0)

    def test_pose_outside_world_rejected(self):
        with pytest.raises(ValueError):
            simulate_scan(small_world(), [50.0, 0.0], 0.0, 0.0)

    def test_beam_stamps_spread_over_sweep(self):
        world = small_world()
        n = n_beams()
        positions = np.tile([0.0, 0.0], (n, 1))
        scan = simulate_swept_scan(world, positions, 0.0, stamp=2.0)
        stamps = scan.beam_stamps()
        assert stamps[0] == pytest.approx(2.0)
        assert stamps[-1] == pytest.approx(2.0 + 0.2 * (n - 1) / n)
        assert np.all(np.diff(stamps) > 0)


class TestSweptScan:
    def test_moving_platform_shifts_returns(self, monkeypatch):
        # A robot moving +x scans a wall ahead; late beams start closer.
        monkeypatch.setattr(sensor, "ANGULAR_RESOLUTION", np.deg2rad(90.0))
        monkeypatch.setattr(sensor, "MAX_RANGE", 8.0)
        world = World(obstacles=[axis_rectangle(4, -6, 5, 6)], bounds=(-10, -10, 10, 10))
        v = 2.0
        n = n_beams()
        stamps = 0.2 * np.arange(n) / n
        positions = np.stack([v * stamps, np.zeros(n)], axis=1)
        scan = simulate_swept_scan(world, positions, 0.0, stamp=0.0)
        # Beam 0 from x=0 -> range 4; a static scan would give 4 for that
        # heading regardless of emission time.
        assert scan.ranges[0] == pytest.approx(4.0, abs=1e-9)
        static = simulate_scan(world, [0.0, 0.0], 0.0, 0.0)
        assert static.ranges[0] == pytest.approx(4.0, abs=1e-9)

    def test_reconstruction_error_smaller_with_compensation(self, monkeypatch):
        # Rebuilding scan points with per-beam poses must beat using the
        # start pose when the platform moved during the sweep.
        monkeypatch.setattr(sensor, "ANGULAR_RESOLUTION", np.deg2rad(4.0))
        world = World(obstacles=[Circle([4.0, 2.0], 1.0)], bounds=(-10, -10, 10, 10))
        v = np.array([1.5, 0.0])
        stamps = 0.2 * np.arange(n_beams()) / n_beams()
        positions = stamps[:, None] * v[None, :]
        # Heading offset puts the target late in the sweep, when the platform
        # has moved appreciably from the start pose.
        scan = simulate_swept_scan(world, positions, np.pi, stamp=0.0)
        angles = scan.beam_angles()
        hit = np.flatnonzero(np.isfinite(scan.ranges))
        assert len(hit) > 3
        err_comp = []
        err_naive = []
        for k in hit:
            true_pt = scan_point_position(scan.ranges[k], angles[k], positions[k])
            naive_pt = scan_point_position(scan.ranges[k], angles[k], [0.0, 0.0])
            # The true return lies on the circle boundary.
            err_comp.append(abs(np.linalg.norm(true_pt - [4.0, 2.0]) - 1.0))
            err_naive.append(abs(np.linalg.norm(naive_pt - [4.0, 2.0]) - 1.0))
        assert max(err_comp) < 1e-9
        assert max(err_naive) > 0.05

    def test_wrong_pose_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_swept_scan(small_world(), np.zeros((10, 2)), 0.0, 0.0)


class TestScanPointPosition:
    def test_places_in_world_frame(self):
        p = scan_point_position(2.0, np.pi / 2, [1.0, 1.0])
        assert np.allclose(p, [1.0, 3.0], atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            scan_point_position(np.nan, 0.0, [0.0, 0.0])

    def test_rejects_nan_in_a_sweep(self):
        with pytest.raises(ValueError):
            scan_point_position([1.0, np.nan, 2.0], [0.0, 0.1, 0.2],
                                np.zeros((3, 2)))


def per_beam_position(length, angle, robot_position):
    """One return placed on its own, as the scanner placed every return
    before sweeps were placed in one pass."""
    robot_position = np.asarray(robot_position, dtype=float)
    return robot_position + length * np.array([np.cos(angle), np.sin(angle)])


class TestSweepPlacement:
    def test_one_pass_equals_per_beam_bit_for_bit(self):
        # The sweep's placement rests on np.cos/np.sin rounding the same for
        # an array as for one angle at a time; any drift shows here first.
        for seed in range(12):
            rng = np.random.default_rng(seed)
            obstacles = [Circle(rng.uniform(-6, 6, 2), rng.uniform(0.3, 1.5))
                         for _ in range(4)]
            obstacles += [oriented_rectangle(rng.uniform(-6, 6, 2),
                                             rng.normal(size=2),
                                             rng.uniform(0.3, 2.0),
                                             rng.uniform(0.1, 1.0))
                          for _ in range(4)]
            world = World(obstacles=obstacles, bounds=(-10, -10, 10, 10))
            n = n_beams()
            start = rng.uniform(-2, 2, 2)
            positions = start + np.cumsum(rng.normal(scale=0.01, size=(n, 2)),
                                          axis=0)
            scan = simulate_swept_scan(world, positions, rng.uniform(-np.pi, np.pi),
                                       stamp=0.0)
            hit = np.flatnonzero(np.isfinite(scan.ranges))
            assert len(hit) > 0
            angles = scan.beam_angles()
            placed = scan_point_position(scan.ranges[hit], angles[hit],
                                         scan.origins[hit])
            want = np.stack([per_beam_position(scan.ranges[k], angles[k],
                                               scan.origins[k]) for k in hit])
            assert placed.tobytes() == want.tobytes()
            one = np.stack([scan_point_position(scan.ranges[k], angles[k],
                                                scan.origins[k]) for k in hit])
            assert one.tobytes() == want.tobytes()
