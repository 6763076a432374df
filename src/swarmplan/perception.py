"""Shape mapping from range scans.

Scans are segmented into contiguous return runs, each run is compensated for
robot motion during the sweep, classified into a circle / square / rectangle /
triangle, and inserted into a robot-centric map: one list of shapes, kept in
the order of the 1 m cells their centers round to.  Overlapping observations
of the same obstacle merge into a single grown shape, so the map stays small
no matter how often an obstacle is seen; the cell order fixes which stored
shape a new one merges with first.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import (Circle, Square, Rectangle, Triangle,
                       circle_from_three_points, corners_area,
                       distance_gradients, oriented_rectangle, shape_groups)
from .sensor import scan_point_position

RADIUS_THRESHOLD = 100.0   # circle fits at least this large are lines, m
FIT_TOL = 0.05             # circle consistency band, m
LINE_TOL = 0.03            # perpendicular residual band for lines, m
MIN_SQUARE_SIDE = 0.1      # two-point clusters become this square, m
MAX_CLASSIFY_ITERS = 5
JUMP_DISTANCE = 0.3        # adjacent-return gap that splits a cluster, m
MAP_RADIUS = 15.0          # shapes farther than this are dropped, m
WINDOW_RADIUS = 5.0        # moving-volume admission distance to a shape, m


@dataclass
class Cluster:
    """Contiguous run of returns: world-frame points plus the median beam stamp.

    closed marks a full-circle run whose ends meet: the returns enclose the
    sensor, so the cluster traces the surrounding boundary rather than the
    outline of one object.
    """

    points: np.ndarray
    median_stamp: float
    closed: bool = False


def segment_scan(scan):
    """Split a scan into clusters of consecutive finite returns.

    Runs wrap across the sweep seam when the field of view closes the circle,
    and additionally split wherever adjacent returns are farther apart than
    JUMP_DISTANCE (occlusion boundaries between objects at different depths).
    Single-return runs are discarded as speckle.  Points are placed from each
    beam's own origin pose.

    A sweep is a few array passes: the finite beams are put in cluster
    order (a run that wraps the seam first), placed with one
    `scan_point_position` call, and their gaps taken in one pass; each
    cluster is then a slice of those arrays, and its median stamp the
    middle of its sorted stamps.
    """
    finite = np.isfinite(scan.ranges)
    if not finite.any():
        return []
    n = scan.n_beams
    origins = scan.origins
    if origins is None:
        raise ValueError("scan carries no origin poses")
    full_circle = abs(scan.angle_increment * n - 2.0 * np.pi) < 1e-6

    idx = finite.nonzero()[0]
    # Runs start where consecutive finite beams are not adjacent.
    starts = (idx[1:] - idx[:-1] > 1).nonzero()[0] + 1
    if len(starts) and idx[0] == 0 and idx[-1] == n - 1 and full_circle:
        # The last run continues across the seam into the first: move it
        # to the front, where the first run's returns follow it.
        k = starts[-1]
        idx = np.concatenate([idx[k:], idx[:k]])
        starts = starts[:-1] + (len(idx) - k)
    pts = scan_point_position(scan.ranges[idx], scan.beam_angles()[idx],
                              origins[idx])
    stamps = scan.beam_stamps()[idx]
    first = np.zeros(len(idx), dtype=bool)
    first[0] = True
    first[starts] = True
    gx = pts[1:, 0] - pts[:-1, 0]
    gy = pts[1:, 1] - pts[:-1, 1]
    first[1:] |= np.sqrt(gx * gx + gy * gy) > JUMP_DISTANCE
    bounds = first.nonzero()[0].tolist() + [len(idx)]

    clusters = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        closed = (full_circle and hi - lo == n
                  and float(np.linalg.norm(pts[lo] - pts[hi - 1])) <= JUMP_DISTANCE)
        # np.median's value from the sorted stamps: the middle one, or the
        # mean of the middle two (a run across the seam is out of order).
        mid = stamps[lo:hi].copy()
        mid.sort()
        h = (hi - lo) // 2
        median = (float(mid[h]) if (hi - lo) % 2
                  else (float(mid[h - 1]) + float(mid[h])) / 2)
        clusters.append(Cluster(points=pts[lo:hi], median_stamp=median,
                                closed=closed))
    return clusters


def compensate_motion(cluster, trajectory):
    """Robot position to reconstruct the cluster from: the path at its median stamp.

    The stamp is clamped into the trajectory domain.  `trajectory` is anything
    with clamp_time/position, typically the committed trajectory that was
    being executed while the sweep ran.
    """
    t = trajectory.clamp_time(cluster.median_stamp)
    return trajectory.position(t)


def _fit_line(points):
    """Chord line through the two extreme points; returns (p0, u, residual, length).

    u is the unit chord direction, residual the largest perpendicular distance
    of any point from the chord.
    """
    p0, p1 = points[0], points[-1]
    chord = p1 - p0
    length = float(np.linalg.norm(chord))
    if length < 1e-12:
        # Degenerate: all points coincide.
        return p0, np.array([1.0, 0.0]), float(np.maximum.reduce(
            np.linalg.norm(points - p0, axis=1))), 0.0
    u = chord / length
    rel = points - p0
    perp = rel[:, 0] * u[1] - rel[:, 1] * u[0]
    return p0, u, float(np.maximum.reduce(np.abs(perp))), length


def fit_rectangle(points, robot_position):
    """Erect a square on a line-like cluster, away from the robot.

    The observed chord becomes the near side; the square extends one chord
    length on the far side from the robot.  Raises ValueError when the points
    are not within LINE_TOL of their chord.
    """
    points = np.asarray(points, dtype=float)
    robot_position = np.asarray(robot_position, dtype=float)
    p0, u, residual, length = _fit_line(points)
    if residual > LINE_TOL:
        raise ValueError(f"cluster is not line-like (residual {residual:.4f} > {LINE_TOL})")
    if length < 1e-9:
        raise ValueError("cluster has no extent to erect a square on")
    # Project all points on the chord so partial outliers cannot shrink the side.
    s = (points - p0) @ u
    lo, hi = float(s.min()), float(s.max())
    a = p0 + lo * u
    b = p0 + hi * u
    side = hi - lo
    n = np.array([-u[1], u[0]])
    mid = 0.5 * (a + b)
    if float(n @ (mid - robot_position)) < 0.0:
        n = -n
    return Square([a, b, b + side * n, a + side * n])


def _split_corner(points):
    """Two-chord decomposition: split at the point farthest from the overall chord.

    Returns the corner point when both halves are line-like and their chord
    lines meet near an observed interior point, else None.
    """
    if len(points) < 4:
        return None
    p0, u, _, length = _fit_line(points)
    if length < 1e-9:
        return None
    rel = points - p0
    perp = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])
    k = int(perp.argmax())
    if k <= 0 or k >= len(points) - 1:
        return None
    a0, ua, res_a, len_a = _fit_line(points[:k + 1])
    b0, ub, res_b, len_b = _fit_line(points[k:])
    if res_a > LINE_TOL or res_b > LINE_TOL or len_a < 1e-9 or len_b < 1e-9:
        return None
    # Intersect the two chord lines.
    denom = ua[0] * ub[1] - ua[1] * ub[0]
    if abs(denom) < 1e-9:
        return None
    d = b0 - a0
    t = (d[0] * ub[1] - d[1] * ub[0]) / denom
    corner = a0 + t * ua
    if np.linalg.norm(corner - points[k]) > max(0.1, 3.0 * LINE_TOL):
        return None
    return corner


def _polyline_breakpoints(points, tol):
    """Indices where the polyline bends: recursive max-deviation splitting.

    Splits the chord between the current endpoints at the most deviant
    interior point until every piece is within tol of its chord.
    """
    out = []
    stack = [(0, len(points) - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        chord = points[j] - points[i]
        length = np.linalg.norm(chord)
        rel = points[i + 1:j] - points[i]
        if length < 1e-12:
            dev = np.linalg.norm(rel, axis=1)
        else:
            u = chord / length
            dev = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])
        k = int(dev.argmax())
        if dev[k] > tol:
            k += i + 1
            out.append(k)
            stack.append((i, k))
            stack.append((k, j))
    return sorted(out)


def decompose_boundary(points, robot_position, closed=False):
    """Split a wall-like run of returns into per-face pieces.

    Fitting one convex shape to a boundary that bends around the sensor
    would swallow the robot, so the polyline is split at its bends and each
    line-like piece erects a square away from the robot.  A closed ring is
    first rotated to start at the nearest return (the foot of a face, never
    a corner) so the seam does not cut a face in half.  Returns
    (shape, piece_points) pairs.
    """
    points = np.asarray(points, dtype=float)
    robot_position = np.asarray(robot_position, dtype=float)
    if closed:
        k0 = int(np.linalg.norm(points - robot_position, axis=1).argmin())
        points = np.roll(points, -k0, axis=0)
    cuts = _polyline_breakpoints(points, LINE_TOL)
    bounds = [0] + cuts + [len(points) - 1]
    out = []
    for i, j in zip(bounds[:-1], bounds[1:]):
        piece = points[i:j + 1]
        if len(piece) < 2 or np.linalg.norm(piece[-1] - piece[0]) < 1e-9:
            continue
        # The breakpoints leave the piece within LINE_TOL of its chord, by
        # the residual's own arithmetic, so the fit never raises.
        out.append((fit_rectangle(piece, robot_position), piece))
    return out


def _pca_rectangle(points):
    """Oriented bounding rectangle along the principal axis of the points."""
    c = points.mean(axis=0)
    rel = points - c
    cov = rel.T @ rel
    _, vecs = np.linalg.eigh(cov)
    u = vecs[:, -1]
    v = np.array([-u[1], u[0]])
    su = rel @ u
    sv = rel @ v
    half_u = max(float(su.max() - su.min()) / 2.0, 0.01)
    half_v = max(float(sv.max() - sv.min()) / 2.0, 0.01)
    mid = c + u * (su.max() + su.min()) / 2.0 + v * (sv.max() + sv.min()) / 2.0
    return oriented_rectangle(mid, u, half_u, half_v)


def _line_family(points, robot_position):
    """Classify a cluster already known not to be a clean circle."""
    _, _, residual, length = _fit_line(points)
    if residual <= LINE_TOL:
        return fit_rectangle(points, robot_position)
    corner = _split_corner(points)
    if corner is not None:
        return Triangle([points[0], corner, points[-1]])
    return _pca_rectangle(points)


def classify_cluster(points, robot_position):
    """Fit a shape to a cluster of world-frame points.

    Three-point circle fitting over (first, middle, last) recurses into the
    first half whenever interior midpoints disagree with the fitted circle.
    A degenerate or enormous fit, on any pass, hands the whole cluster to
    the line family: a square erected away from the robot when the points
    run straight, a triangle when two clean chords meet at an observed
    corner, and else a rectangle along the principal axes.  Two-point
    clusters become small squares of a fixed minimum side.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError("cannot classify fewer than 2 points")
    if len(points) == 2:
        side = max(float(np.linalg.norm(points[1] - points[0])), MIN_SQUARE_SIDE)
        mid = points.mean(axis=0)
        u = points[1] - points[0]
        if np.linalg.norm(u) < 1e-12:
            u = np.array([1.0, 0.0])
        u = u / np.linalg.norm(u)
        n = np.array([-u[1], u[0]])
        if float(n @ (mid - robot_position)) < 0.0:
            n = -n
        a = mid - 0.5 * side * u
        b = mid + 0.5 * side * u
        return Square([a, b, b + side * n, a + side * n])

    lo, hi = 0, len(points) - 1
    for _ in range(MAX_CLASSIFY_ITERS):
        mid = (lo + hi) // 2
        if mid == lo or mid == hi:
            return _line_family(points, robot_position)
        fit = circle_from_three_points(points[lo], points[mid], points[hi])
        if fit is None or fit.radius >= RADIUS_THRESHOLD:
            return _line_family(points, robot_position)
        q1 = (lo + mid) // 2
        q2 = (mid + hi) // 2
        probes = [q for q in (q1, q2) if q not in (lo, mid, hi)]
        if not probes:
            # Too few points to probe further; the three-point fit stands.
            return fit
        err = max(abs(float(np.linalg.norm(points[q] - fit.center)) - fit.radius)
                  for q in probes)
        if err <= FIT_TOL:
            return fit
        hi = mid
    return _line_family(points, robot_position)


# --- local map -------------------------------------------------------------

class LocalMap:
    """Robot-centric shape store: one list, kept in 1 m cell order.

    The list is stably sorted by the cell each center rounds to relative
    to the origin (x cell, then y cell): recentering re-sorts it, and a
    shape joins the end of its cell.  That order decides which overlapping
    shape an insert merges with first, and the moving volume and regions
    read the map in it, so it is part of the planner's behaviour.
    Recentering on the robot drops shapes beyond MAP_RADIUS and every shape
    that contains the robot's position, whose body is free space.

    Distances to stored centers are taken for the whole map at once, as
    np.sqrt(np.vecdot(d, d)), which rounds as np.linalg.norm of one (2,)
    offset does.
    """

    def __init__(self, origin=(0.0, 0.0)):
        self.origin = np.asarray(origin, dtype=float)
        self._shapes = []

    def __len__(self):
        return len(self._shapes)

    def shapes(self):
        return list(self._shapes)

    def _centers(self):
        return np.array([s.center for s in self._shapes]).reshape(-1, 2)

    def _cells(self, centers):
        return np.floor(centers - self.origin + 0.5)

    def recenter(self, new_origin):
        self.origin = np.asarray(new_origin, dtype=float)
        if not self._shapes:
            # A robot that sees nothing recenters every cycle; skip the
            # array passes for it.
            return
        centers = self._centers()
        d = centers - self.origin
        dist = np.sqrt(np.vecdot(d, d))
        keep = dist <= MAP_RADIUS
        # Carve: only a shape whose size scale reaches the robot can hold it.
        reach = keep & (dist <= [s.size_scale for s in self._shapes])
        for i in reach.nonzero()[0]:
            keep[i] = not self._shapes[i].contains(self.origin)
        near = keep.nonzero()[0]
        cells = self._cells(centers[near])
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        self._shapes = [self._shapes[near[i]] for i in order]

    def insert(self, shape, points=None):
        """Insert a classified shape, merging with an overlapping stored one.

        `points` are the cluster points behind `shape`; they arbitrate
        conflicts between different shape families by refit residual.
        Inserting the same shape twice leaves a single entry.  Candidates
        are the stored shapes whose center is nearer than the larger of
        the two size scales, walked in cell order.
        """
        center = shape.center
        if np.linalg.norm(center - self.origin) > MAP_RADIUS:
            return None
        centers = self._centers()
        d = center - centers
        reach = np.maximum([s.size_scale for s in self._shapes], shape.size_scale)
        for i in (np.sqrt(np.vecdot(d, d)) < reach).nonzero()[0]:
            other = self._shapes[i]
            merged = _merge_shapes(other, shape, points)
            if merged is None:
                # Unfaithful union: keep the stored shape and look for a
                # better merge partner.
                continue
            del self._shapes[i]
            return self.insert(merged, points=None)
        # Join the end of the shape's cell.
        (cx, cy), cells = self._cells(center), self._cells(centers)
        before = (cells[:, 0] < cx) | ((cells[:, 0] == cx) & (cells[:, 1] <= cy))
        self._shapes.insert(int(np.count_nonzero(before)), shape)
        return shape


def _family(shape):
    if isinstance(shape, Circle):
        return "circle"
    if isinstance(shape, (Square, Rectangle)):
        return "rect"
    return "triangle"


def _mean_boundary_residual(shape, points):
    """Mean distance from sample points to the shape (0 when all are inside)."""
    return float(np.mean(shape.distance(points)))


def _enclosing_circle(a, b):
    d = float(np.linalg.norm(b.center - a.center))
    if d + b.radius <= a.radius:
        return Circle(a.center, a.radius)
    if d + a.radius <= b.radius:
        return Circle(b.center, b.radius)
    r = 0.5 * (d + a.radius + b.radius)
    u = (b.center - a.center) / d
    center = a.center + (r - a.radius) * u
    return Circle(center, r)


def _enclosing_rect(a, b, area_a, area_b):
    """Least rectangle about polygons a and b along the first edge of the
    larger (areas `area_a`, `area_b`): its class, Square when the sides are
    equal and else Rectangle, and its CCW corners (4, 2), which that class
    keeps as given.  A Rectangle's corners are those `oriented_rectangle`
    builds, which normalizes the axis once more."""
    big = a if area_a >= area_b else b
    e = big.corners[1] - big.corners[0]
    u = e / np.linalg.norm(e)
    v = np.array([-u[1], u[0]])
    pts = np.vstack([a.corners, b.corners])
    su = pts @ u
    sv = pts @ v
    mid = (su.max() + su.min()) / 2.0 * u + (sv.max() + sv.min()) / 2.0 * v
    half_u = (su.max() - su.min()) / 2.0
    half_v = (sv.max() - sv.min()) / 2.0
    cls = Square
    if abs(half_u - half_v) > 1e-9 * max(half_u, half_v):
        cls = Rectangle
        u = u / np.linalg.norm(u)
        v = np.array([-u[1], u[0]])
    return cls, np.array([mid - half_u * u - half_v * v,
                          mid + half_u * u - half_v * v,
                          mid + half_u * u + half_v * v,
                          mid - half_u * u + half_v * v])


def _convex_intersection_area(a_corners, b_corners):
    """Area of the intersection of two convex CCW polygons (clip a by b).

    The clip runs on Python floats: the same IEEE operations, in the same
    order, as on numpy scalars, without their per-operation cost.
    """
    out = [tuple(p) for p in np.asarray(a_corners, dtype=float).tolist()]
    b = np.asarray(b_corners, dtype=float).tolist()
    for i in range(len(b)):
        vx, vy = b[i]
        wx, wy = b[(i + 1) % len(b)]
        ex, ey = wx - vx, wy - vy
        cur = out
        out = []
        if not cur:
            return 0.0
        side = [ex * (py - vy) - ey * (px - vx) for px, py in cur]
        for j in range(len(cur)):
            (px, py), (qx, qy) = cur[j], cur[(j + 1) % len(cur)]
            sp, sq = side[j], side[(j + 1) % len(cur)]
            if sp >= -1e-12:
                out.append((px, py))
            if (sp >= -1e-12) != (sq >= -1e-12):
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if abs(denom) > 1e-15:
                    t = sp / denom
                    out.append((px - t * dx, py - t * dy))
    if len(out) < 3:
        return 0.0
    return corners_area(out)


#: A union is kept only while its area stays within this factor of the
#: combined areas of the parts.  Beyond that the enclosure mostly covers
#: free space (e.g. two perpendicular wall faces), so the observations are
#: better kept as separate shapes.
MERGE_AREA_SLACK = 1.3


def _merge_shapes(stored, incoming, points):
    """Union policy for two overlapping observations.

    Same-family pairs grow into the minimal enclosing shape of that family,
    but only when the enclosure stays faithful to the parts: when its area
    exceeds ``MERGE_AREA_SLACK`` times the area the two shapes actually
    cover it would claim free space as obstacle, so ``None`` is returned
    and both shapes are kept.  Across families the refit residual of the
    incoming cluster points decides which representation survives; without
    points there is no evidence either way and both are kept.
    """
    fam_s, fam_i = _family(stored), _family(incoming)
    if fam_s == "circle" and fam_i == "circle":
        union = _enclosing_circle(stored, incoming)
        parts = stored.radius ** 2 + incoming.radius ** 2
        if union.radius ** 2 > MERGE_AREA_SLACK * parts:
            return None
        return union
    if fam_s == fam_i:
        # Two polygons of a family: the area test runs on the union's
        # corners, and only a kept union becomes a shape.  Overlap can only
        # shrink the covered area, so a union too large for the parts'
        # summed area is refused without clipping.  Each shape computes its
        # own area once, however many merges it is offered to.
        area_s, area_i = stored.area, incoming.area
        cls, corners = _enclosing_rect(stored, incoming, area_s, area_i)
        union = corners_area(corners)
        if union > MERGE_AREA_SLACK * max(area_s + area_i, 1e-12):
            return None
        overlap = _convex_intersection_area(stored.corners, incoming.corners)
        if union > MERGE_AREA_SLACK * max(area_s + area_i - overlap, 1e-12):
            return None
        return cls(corners)
    if points is None or len(points) == 0:
        return None
    if _mean_boundary_residual(incoming, points) < _mean_boundary_residual(stored, points):
        return incoming
    return stored


# --- moving volume ---------------------------------------------------------

@dataclass
class MovingVolume:
    """Obstacle windows along the previously planned path, slice k at t_rel[k]
    about its seed centers[k] (`build_moving_volume`).

    `shapes` is the map's list, every shape once and in map order;
    member[k, j] says whether shapes[j] lies in slice k's window, so a
    shape beyond every window has an all-False column.  distances[k, j]
    and gradients[k, j] are the shape's distance from the window center
    and its unit gradient there (`geometry.distance_gradients`; 0 and
    (0, 0) when the center is inside the shape or within 1e-12 of it),
    which the regions turn into planes.
    `groups` stacks the shapes by kind (`geometry.shape_groups`).
    """

    t_rel: np.ndarray      # (slices,) seconds after the cycle start
    centers: np.ndarray    # (slices, 2) window centers on the old plan
    shapes: list
    member: np.ndarray     # (slices, shapes) bool
    distances: np.ndarray  # (slices, shapes)
    gradients: np.ndarray  # (slices, shapes, 2)
    groups: list = field(repr=False)


def build_moving_volume(local_map, trajectory, t_now, horizon, tau):
    """Collect, for each future timestep, map shapes near the old planned position.

    Row k is the previous trajectory at t_now + k*tau (clamped into its
    domain), k = 0..round(horizon/tau), and row 0 is the robot.  One
    grouped distance pass measures every row; a row is free when no shape
    gives it d = 0 (the inside rule of `regions._seeded`).  Slice k takes
    the center, distances and gradients of the nearest free row at or
    before row k, or of row 0 when none is free, and holds the shapes at
    most WINDOW_RADIUS away.  The volume holds every map shape, in map
    order and with the map's groups, so a shape's map index is its column.
    """
    n = int(round(horizon / tau))
    times = np.arange(n + 1) * tau
    lo, hi = trajectory.domain
    path = trajectory.positions(np.minimum(hi, np.maximum(lo, t_now + times)))
    shapes = local_map.shapes()
    groups = shape_groups(shapes)
    d, u = distance_gradients(groups, path)
    free = ~(d == 0.0).any(axis=1)
    src = np.maximum.accumulate(np.where(free, np.arange(n + 1), 0))[1:]
    d = d[src]
    return MovingVolume(t_rel=times[1:], centers=path[src], shapes=shapes,
                        member=d <= WINDOW_RADIUS, distances=d,
                        gradients=u[src], groups=groups)
