"""Simulated 2D range scanner and the world it measures.

Scans store one range per beam; beams with no return inside the sensor range
carry NaN.  A swept scan stamps each beam at its own emission time and casts
it from the pose the robot occupied then, which is what makes scan-time
motion compensation meaningful downstream.

A beam is cast only at the obstacles its range can reach: the segment from
its origin out to MAX_RANGE must come within an obstacle's bounding circle,
its `size_scale` about its `center` widened by BOUNDARY_TOL, before the ray
kernels run on that (obstacle, beam) pair.  Every hit the kernels report
lies on the obstacle's boundary up to their rounding, which is far below
the margin, so a culled pair could only have missed or hit beyond range,
and each range is that of casting every beam at every obstacle, bit for
bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import BOUNDARY_TOL, _as_point, shape_groups

# The scanner: beam spacing, range cutoff and sweeps per second.  Its field
# of view is the full circle.
ANGULAR_RESOLUTION = np.deg2rad(1.0)
MAX_RANGE = 5.0
SWEEP_RATE = 5.0


def n_beams():
    """Beams per sweep of the full circle."""
    return int(np.floor(2.0 * np.pi / ANGULAR_RESOLUTION + 1e-9))


@dataclass
class World:
    """Static obstacle set inside rectangular bounds (xmin, ymin, xmax, ymax).

    `groups` stacks the obstacles by kind once, for the scans' ray casts,
    and `reach` holds each group's bounding circles for the casts' cull:
    centers (S, 2) and squared radii (S,), each `size_scale` widened by
    BOUNDARY_TOL.
    """

    obstacles: list
    bounds: tuple = (-20.0, -20.0, 20.0, 20.0)
    groups: list = field(init=False, repr=False)
    reach: list = field(init=False, repr=False)

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"degenerate world bounds {self.bounds}")
        if not np.isfinite(self.bounds).all():
            raise ValueError(f"world bounds must be finite, got {self.bounds}")
        for obs in self.obstacles:
            cx, cy = obs.center
            if not (xmin <= cx <= xmax and ymin <= cy <= ymax):
                raise ValueError(f"obstacle center ({cx}, {cy}) outside bounds")
        self.groups = shape_groups(self.obstacles)
        self.reach = [
            (np.array([self.obstacles[i].center for i in g.index]),
             np.array([(self.obstacles[i].size_scale + BOUNDARY_TOL) ** 2
                       for i in g.index]))
            for g in self.groups]

    def inside(self, p):
        xmin, ymin, xmax, ymax = self.bounds
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


@dataclass
class Scan:
    """One sweep: per-beam ranges with NaN marking no return.

    Beam k points at angle_start + k * angle_increment and was emitted at
    stamp + k / n * sweep_duration.
    """

    stamp: float
    angle_start: float
    angle_increment: float
    ranges: np.ndarray
    sweep_duration: float = 0.0
    origins: np.ndarray = field(default=None, repr=False)

    @property
    def n_beams(self):
        return len(self.ranges)

    def beam_angles(self):
        return self.angle_start + self.angle_increment * np.arange(self.n_beams)

    def beam_stamps(self):
        return self.stamp + self.sweep_duration * np.arange(self.n_beams) / self.n_beams


def _cast_all(world, origins, angles):
    """Range of each beam k from origins[k]: the nearest hit over the
    obstacles its range can reach, one array pass per obstacle kind.

    Per kind, each (obstacle, beam) pair measures the squared distance from
    the obstacle's center to the nearest point of the beam's segment, its
    parameter clamped to [0, MAX_RANGE]; the ray kernels run only on the
    pairs within the bounding circle (`World.reach`), and each beam keeps
    the least of its pairs' hits.  A hit is on the boundary up to the
    kernels' rounding, so no culled pair could have given a range, and the
    minimum is exact whatever pairs it takes.
    """
    dx, dy = np.cos(angles), np.sin(angles)
    dirs = np.stack([dx, dy], axis=1)
    ox, oy = origins[:, 0], origins[:, 1]
    dist = np.full(len(angles), np.inf)
    for g, (centers, r2) in zip(world.groups, world.reach):
        rx = centers[:, 0, None] - ox
        ry = centers[:, 1, None] - oy
        s = np.minimum(MAX_RANGE, np.maximum(0.0, rx * dx + ry * dy))
        gx, gy = rx - s * dx, ry - s * dy
        j, k = (gx * gx + gy * gy <= r2[:, None]).nonzero()
        if len(j):
            np.minimum.at(dist, k, g.ray_distances(j, origins[k], dirs[k]))
    return np.where(dist <= MAX_RANGE, dist, np.nan)


def simulate_scan(world, position, heading, stamp):
    """Instantaneous sweep from a single pose.

    Every finite range lies in (0, MAX_RANGE]; misses are NaN.  The pose must
    be inside the world bounds.
    """
    position = _as_point(position)
    if not world.inside(position):
        raise ValueError(f"scan pose {position.tolist()} outside world bounds")
    n = n_beams()
    angles = heading + ANGULAR_RESOLUTION * np.arange(n)
    origins = np.broadcast_to(position, (n, 2)).copy()
    ranges = _cast_all(world, origins, angles)
    return Scan(stamp=stamp, angle_start=heading,
                angle_increment=ANGULAR_RESOLUTION, ranges=ranges,
                sweep_duration=0.0, origins=origins)


def simulate_swept_scan(world, positions, heading, stamp):
    """Sweep where beam k is cast from positions[k], its pose at emission time.

    positions is (n_beams(), 2); the caller supplies the robot path sampled
    at the per-beam stamps.  All poses must be inside the world bounds.
    """
    positions = np.asarray(positions, dtype=float)
    n = n_beams()
    if positions.shape != (n, 2):
        raise ValueError(f"need one pose per beam, got {positions.shape}")
    xmin, ymin, xmax, ymax = world.bounds
    if (positions[:, 0].min() < xmin or positions[:, 0].max() > xmax
            or positions[:, 1].min() < ymin or positions[:, 1].max() > ymax):
        raise ValueError("swept scan pose leaves world bounds")
    angles = heading + ANGULAR_RESOLUTION * np.arange(n)
    ranges = _cast_all(world, positions, angles)
    return Scan(stamp=stamp, angle_start=heading,
                angle_increment=ANGULAR_RESOLUTION, ranges=ranges,
                sweep_duration=1.0 / SWEEP_RATE, origins=positions.copy())


def scan_point_position(lengths, angles, origins):
    """World position of each return: origin + length * (cos angle, sin angle).

    Takes one return (scalars and a (2,) origin) or a whole sweep's ((n,)
    lengths and angles, (n, 2) origins) in one array pass; a segmenter
    places every finite return of a sweep with one call.  Rejects NaN
    lengths: a missing return must never enter geometry.
    """
    lengths = np.asarray(lengths, dtype=float)
    if not np.isfinite(lengths).all():
        raise ValueError("cannot place a beam with no return")
    angles = np.asarray(angles, dtype=float)
    # cos and sin write contiguous arrays first: a strided output may take
    # another of numpy's loops, which can round differently.
    rays = np.empty(angles.shape + (2,))
    rays[..., 0] = np.cos(angles)
    rays[..., 1] = np.sin(angles)
    return np.asarray(origins, dtype=float) + lengths[..., None] * rays
