"""2D geometric primitives: convex shapes, halfplanes, and convex polytopes.

One family of shapes models both the mapped obstacles and the robots'
bodies (`footprint_from_size`, a shape about the origin).  Every shape
answers the same questions: `support` along unit directions, `contains` at
one point or many, `distance`, the nearest-point `distance_gradient`, and
`ray_distances`.  Shapes are closed point sets (boundary included).  All
polygons store their corners counter-clockwise, and the edge vectors from
each corner to the next, so that edge normals computed as (dy, -dx) point
outward.  Angles are radians, distances meters.

Groups.  `shape_groups` stacks shapes of one kind, circles or polygons of
one corner count, into a `CircleGroup` (centers (S, 2), radii (S,)) or a
`PolygonGroup` (corners and edges (S, k, 2)).  A group method takes an index
array j into the group and points whose leading axes broadcast against it,
and answers for shape j[i] at point i: the seed march and the LiDAR test
every shape of a kind in one array pass.  `distance_gradient(pts)` instead
answers for every shape of the group at every point, (S, n) and (S, n, 2):
the obstacle cost expands all admitted shapes of a kind in one pass.  Each
kind has one kernel per question, which the shape's own method runs on its
own parameters, so a group gives each shape's own result bit for bit.
`segment_shape_intersections` and `supporting_halfplanes` take a group and
such an index.

The nearest-point kernels (`_edge_projections`, `_disk_distance_gradient`,
`_polygon_distance_gradient`) and `_polygon_contains` work on x and y
components: a dot is `rx*ex + ry*ey` and a length `np.sqrt(dx*dx + dy*dy)`,
never a reduction over a length-2 axis, whose per-call overhead would
dominate at these sizes.  They round as np.sum and np.linalg.norm over that
axis did, since both add the two products in the same order.  The unit
gradient is written with np.where, dividing zero lengths under np.errstate
and discarding them, rather than scattered through a mask.
"""

import numpy as np

# Points within this of a boundary count as on it.
BOUNDARY_TOL = 1e-6


def _as_point(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {p.shape}")
    return p


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _outward(vx, vy, length, dist, outside):
    """(d, u) of a nearest-point query: `dist` and the unit gradient
    (vx, vy) / length where `outside` holds and length > 1e-12, else zeros.
    Zero lengths are divided through and discarded by the where."""
    ok = outside & (length > 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = np.where(ok, vx / length, 0.0)
        uy = np.where(ok, vy / length, 0.0)
    return np.where(ok, dist, 0.0), np.stack([ux, uy], axis=-1)


# --- kernels: stacked parameters broadcast against the points ----------------

def _disk_contains(centers, radii, p, tol):
    """Root distance to the center, rounded as np.linalg.norm rounds it,
    against the radius."""
    d = p - centers
    return np.sqrt(np.vecdot(d, d)) <= radii + tol


def _disk_ray_distances(centers, squares, origins, dirs):
    """First-hit distance of each ray origin + t*dir, t > 0, on the disk
    whose squared radius is `squares`; inf on a miss."""
    rel = centers - origins
    proj = np.sum(rel * dirs, axis=-1)
    perp2 = np.sum(rel * rel, axis=-1) - proj ** 2
    disc = squares - perp2
    root = np.sqrt(np.maximum(disc, 0.0))
    t_near = proj - root
    t_far = proj + root
    # From outside the first crossing is t_near; from inside it is t_far.
    t = np.where(t_near > BOUNDARY_TOL, t_near, t_far)
    return np.where((disc >= 0.0) & (t > BOUNDARY_TOL), t, np.inf)


def _polygon_contains(corners, edges, p, tol):
    """Whether p lies on the inner side of every edge (..., k, 2)."""
    g = (edges[..., 0] * (p[..., None, 1] - corners[..., 1])
         - edges[..., 1] * (p[..., None, 0] - corners[..., 0]))
    bound = -tol * np.linalg.norm(edges, axis=-1) if tol else 0.0
    return np.all(g >= bound, axis=-1)


def _polygon_ray_distances(corners, edges, origins, dirs):
    """First-hit distance of each ray over all edges (..., k, 2); inf on a
    miss."""
    dirs = dirs[..., None, :]
    denom = dirs[..., 0] * edges[..., 1] - dirs[..., 1] * edges[..., 0]
    rel = corners - origins[..., None, :]
    t_num = rel[..., 0] * edges[..., 1] - rel[..., 1] * edges[..., 0]
    s_num = rel[..., 0] * dirs[..., 1] - rel[..., 1] * dirs[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        s = s_num / denom
    ok = (np.abs(denom) > 1e-14) & (s >= 0.0) & (s <= 1.0) & (t > BOUNDARY_TOL)
    return np.where(ok, t, np.inf).min(axis=-1)


def _edge_projections(corners, edges, pts):
    """Offset of each point from the nearest point of each edge segment
    (..., k, 2), and its length: dx, dy and dist, each (..., k)."""
    ax, ay = corners[..., 0], corners[..., 1]
    ex, ey = edges[..., 0], edges[..., 1]
    px, py = pts[..., None, 0], pts[..., None, 1]
    t = np.clip(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey),
                0.0, 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _disk_distance_gradient(centers, radii, pts):
    """Distance from each point to the disk and its unit gradient; points
    inside get distance 0 and a zero gradient."""
    vx = pts[..., 0] - centers[..., 0]
    vy = pts[..., 1] - centers[..., 1]
    ell = np.sqrt(vx * vx + vy * vy)
    return _outward(vx, vy, ell, ell - radii, ell > radii)


def _polygon_distance_gradient(corners, edges, pts):
    """Distance from each point to the polygon (..., k, 2) and its unit
    gradient, along the offset from the nearest edge (the first of equally
    near ones); points inside get distance 0 and a zero gradient."""
    dx, dy, dist = _edge_projections(corners, edges, pts)
    best = np.argmin(dist, axis=-1)[None, ..., None]
    vx, vy, dv = np.take_along_axis(np.stack([dx, dy, dist]), best,
                                    axis=-1)[..., 0]
    return _outward(vx, vy, dv, dv,
                    ~_polygon_contains(corners, edges, pts, 0.0))


def _edge_normals(edges):
    """Outward unit normals (dy, -dx) of CCW edges (..., k, 2)."""
    n = np.stack([edges[..., 1], -edges[..., 0]], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


class Circle:
    """Disk with center (2,) and radius > 0."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        self.center = _as_point(center)
        radius = float(radius)
        if radius <= 0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        self.radius = radius

    def __repr__(self):
        return f"Circle(center={self.center.tolist()}, radius={self.radius})"

    @property
    def size_scale(self):
        return self.radius

    def distance(self, p):
        """Distance from p to the disk (0 if inside)."""
        return max(0.0, float(np.linalg.norm(_as_point(p) - self.center)) - self.radius)

    def contains(self, p, tol=0.0):
        """Whether the point (2,), or each point of (..., 2), lies in the
        disk: the root distance, rounded as np.linalg.norm rounds it."""
        return _disk_contains(self.center, self.radius,
                              np.asarray(p, dtype=float), tol)

    def distance_gradient(self, pts):
        """Distance from each point (n, 2) to the disk and its unit gradient;
        points inside get distance 0 and a zero gradient."""
        return _disk_distance_gradient(self.center, self.radius, pts)

    def ray_distances(self, origins, dirs):
        """First-hit distances for rays origin + t*dir, t > 0; inf on miss.

        origins is (2,) or (k, 2); dirs is (k, 2) unit vectors.
        """
        return _disk_ray_distances(self.center, self.radius ** 2,
                                   np.atleast_2d(origins), dirs)

    def support(self, u):
        """max over the shape of u.x, per row of unit directions (..., 2)."""
        return u @ self.center + self.radius


class ConvexPolygonShape:
    """Base for convex polygons with CCW corners (k, 2)."""

    __slots__ = ("corners", "edges", "center", "size_scale")

    def __init__(self, corners):
        corners = np.asarray(corners, dtype=float)
        if corners.ndim != 2 or corners.shape[1] != 2 or len(corners) < 3:
            raise ValueError(f"polygon corners must be (k>=3, 2), got {corners.shape}")
        area2 = 0.0
        for i in range(len(corners)):
            area2 += _cross(corners[i], corners[(i + 1) % len(corners)])
        if area2 < 0:
            corners = corners[::-1].copy()
        self.corners = corners
        self.edges = np.roll(corners, -1, axis=0) - corners
        self.center = corners.mean(axis=0)
        self.size_scale = float(np.max(np.linalg.norm(corners - self.center,
                                                      axis=1)))

    def __repr__(self):
        return f"{type(self).__name__}(corners={self.corners.tolist()})"

    def edge_normals(self):
        """Outward unit normals, one per CCW edge."""
        return _edge_normals(self.edges)

    def contains(self, p, tol=0.0):
        """Whether the point (2,), or each point of (..., 2), lies on the
        inner side of every edge."""
        return _polygon_contains(self.corners, self.edges,
                                 np.asarray(p, dtype=float), tol)

    def distance(self, p):
        p = _as_point(p)
        if self.contains(p):
            return 0.0
        return float(np.min(_edge_projections(self.corners, self.edges,
                                              p)[2]))

    def distance_gradient(self, pts):
        """Distance from each point (n, 2) to the polygon and its unit
        gradient; points inside get distance 0 and a zero gradient."""
        return _polygon_distance_gradient(self.corners, self.edges, pts)

    def ray_distances(self, origins, dirs):
        """First-hit distances against all edges; inf on miss.

        origins is (2,) or (k, 2); dirs is (k, 2) unit vectors.
        """
        return _polygon_ray_distances(self.corners, self.edges,
                                      np.atleast_2d(origins), dirs)

    def support(self, u):
        """max over the shape of u.x, per row of unit directions (..., 2).

        Each corner's dot goes through np.vecdot, which rounds it the same
        however many directions there are (a one-row matmul does not).
        """
        return np.max(np.vecdot(u[..., None, :], self.corners), axis=-1)


class Square(ConvexPolygonShape):
    """Axis-arbitrary square: 4 CCW corners with equal side lengths."""

    def __init__(self, corners):
        super().__init__(corners)
        if len(self.corners) != 4:
            raise ValueError("square needs exactly 4 corners")


class Rectangle(ConvexPolygonShape):
    """Oriented rectangle: 4 CCW corners."""

    def __init__(self, corners):
        super().__init__(corners)
        if len(self.corners) != 4:
            raise ValueError("rectangle needs exactly 4 corners")


class Triangle(ConvexPolygonShape):
    def __init__(self, corners):
        super().__init__(corners)
        if len(self.corners) != 3:
            raise ValueError("triangle needs exactly 3 corners")


def axis_rectangle(xmin, ymin, xmax, ymax):
    """Axis-aligned Rectangle from min/max corners."""
    return Rectangle([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])


def oriented_rectangle(center, axis_u, half_u, half_v):
    """Rectangle centered at `center` with unit long axis `axis_u` and half extents."""
    u = np.asarray(axis_u, dtype=float)
    u = u / np.linalg.norm(u)
    v = np.array([-u[1], u[0]])
    c = _as_point(center)
    corners = [c - half_u * u - half_v * v, c + half_u * u - half_v * v,
               c + half_u * u + half_v * v, c - half_u * u + half_v * v]
    return Rectangle(corners)


class CircleGroup:
    """Circles stacked for one array pass: centers (S, 2), radii (S,).

    `index` holds each circle's position in the list it was grouped from.
    """

    def __init__(self, circles, index):
        self.index = np.asarray(index)
        self.centers = np.array([c.center for c in circles]).reshape(-1, 2)
        self.radii = np.array([c.radius for c in circles])
        # Squared as Circle.ray_distances squares its radius.
        self._squares = np.array([c.radius ** 2 for c in circles])

    def __len__(self):
        return len(self.index)

    @property
    def size_scale(self):
        return self.radii

    def contains(self, j, p):
        return _disk_contains(self.centers[j], self.radii[j], p, 0.0)

    def ray_distances(self, j, origins, dirs):
        return _disk_ray_distances(self.centers[j], self._squares[j],
                                   origins, dirs)

    def distance_gradient(self, pts):
        """Every circle's (d, u) at every point (n, 2): (S, n) and (S, n, 2)."""
        return _disk_distance_gradient(self.centers[:, None],
                                       self.radii[:, None], pts)


class PolygonGroup:
    """Polygons of one corner count k stacked for one array pass: corners
    and edges (S, k, 2), centers (S, 2) and size_scale (S,).

    `index` holds each polygon's position in the list it was grouped from.
    """

    def __init__(self, polygons, index):
        self.index = np.asarray(index)
        self.corners = np.array([s.corners for s in polygons])
        self.edges = np.array([s.edges for s in polygons])
        self.centers = np.array([s.center for s in polygons])
        self.size_scale = np.array([s.size_scale for s in polygons])

    def __len__(self):
        return len(self.index)

    def contains(self, j, p):
        return _polygon_contains(self.corners[j], self.edges[j], p, 0.0)

    def ray_distances(self, j, origins, dirs):
        return _polygon_ray_distances(self.corners[j], self.edges[j],
                                      origins, dirs)

    def distance_gradient(self, pts):
        """Every polygon's (d, u) at every point (n, 2): (S, n) and (S, n, 2)."""
        return _polygon_distance_gradient(self.corners[:, None],
                                          self.edges[:, None], pts)


def shape_groups(shapes):
    """The shapes stacked by kind: one CircleGroup, and one PolygonGroup per
    corner count, in order of each kind's first shape."""
    kinds = {}
    for i, s in enumerate(shapes):
        kinds.setdefault(0 if isinstance(s, Circle) else len(s.corners),
                         []).append(i)
    return [(PolygonGroup if k else CircleGroup)([shapes[i] for i in index],
                                                 index)
            for k, index in kinds.items()]


class Halfplane:
    """Closed halfplane {p : normal . p <= offset} with unit normal."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        normal = _as_point(normal)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            raise ValueError("halfplane normal must be nonzero")
        self.normal = normal / norm
        self.offset = float(offset) / norm

    def __repr__(self):
        return f"Halfplane(normal={self.normal.tolist()}, offset={self.offset})"

    def contains(self, p, tol=BOUNDARY_TOL):
        return float(self.normal @ _as_point(p)) <= self.offset + tol


class ConvexPolytope:
    """Intersection of halfplanes, stored as normals (m, 2) and offsets (m,).

    Construction drops exact duplicate rows (same normal and offset bits).
    """

    __slots__ = ("normals", "offsets")

    def __init__(self, halfplanes):
        normals = []
        offsets = []
        seen = set()
        for hp in halfplanes:
            key = (hp.normal[0], hp.normal[1], hp.offset)
            if key in seen:
                continue
            seen.add(key)
            normals.append(hp.normal)
            offsets.append(hp.offset)
        if not normals:
            raise ValueError("polytope needs at least one halfplane")
        self.normals = np.array(normals)
        self.offsets = np.array(offsets)

    @classmethod
    def from_arrays(cls, normals, offsets):
        """Polytope over rows that already have unit normals and no duplicates."""
        poly = cls.__new__(cls)
        poly.normals = normals
        poly.offsets = offsets
        return poly

    def __len__(self):
        return len(self.offsets)

    def contains(self, p, tol=1e-9):
        return bool(np.all(self.normals @ _as_point(p) <= self.offsets + tol))


def footprint_from_size(size):
    """A body's shape about the origin, per the broadcast size convention.

    One or two lengths describe a round body: a Circle of the largest
    length.  Three lengths describe an angular body: an axis-aligned Square
    with half extent sqrt(2) times the largest length, covering it in any
    orientation.
    """
    size = tuple(float(v) for v in size)
    if not 1 <= len(size) <= 3:
        raise ValueError(f"size descriptor needs 1..3 lengths, got {len(size)}")
    if any(v <= 0 for v in size):
        raise ValueError("size lengths must be positive")
    if len(size) == 3:
        h = np.sqrt(2.0) * max(size)
        return Square([[-h, -h], [h, -h], [h, h], [-h, h]])
    return Circle((0.0, 0.0), max(size))


def circle_from_three_points(p1, p2, p3):
    """Circumscribed circle through three points, or None if collinear.

    Uses the determinant form: with s_i = x_i^2 + y_i^2,
      b = 2 (x1 (y2 - y3) + x2 (y3 - y1) + x3 (y1 - y2))
      cx = (s1 (y2 - y3) + s2 (y3 - y1) + s3 (y1 - y2)) / b
      cy = (s1 (x3 - x2) + s2 (x1 - x3) + s3 (x2 - x1)) / b
    Returns None when b vanishes (collinear input).
    """
    (x1, y1), (x2, y2), (x3, y3) = _as_point(p1), _as_point(p2), _as_point(p3)
    b = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    scale = max(1.0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3)
    if abs(b) < 1e-12 * scale:
        return None
    s1 = x1 * x1 + y1 * y1
    s2 = x2 * x2 + y2 * y2
    s3 = x3 * x3 + y3 * y3
    cx = (s1 * (y2 - y3) + s2 * (y3 - y1) + s3 * (y1 - y2)) / b
    cy = (s1 * (x3 - x2) + s2 * (x1 - x3) + s3 * (x2 - x1)) / b
    center = np.array([cx, cy])
    radius = float(np.linalg.norm(center - (x1, y1)))
    if radius <= 0.0:
        return None
    return Circle(center, radius)


def segment_shape_intersections(a, b, group, j):
    """First boundary crossing of each segment a[i] -> b[i] (rows of (n, 2))
    with shape j[i] of the group.

    Returns (points, crossed): the crossing nearest to a[i], valid where
    crossed[i], which is False when the segment never crosses.
    """
    d = b - a
    length = np.sqrt(np.vecdot(d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = d / length[:, None]
    t = group.ray_distances(j, a, u)
    crossed = (length >= 1e-12) & np.isfinite(t) & (t <= length + BOUNDARY_TOL)
    return a + np.minimum(t, length)[:, None] * u, crossed


def unit_rows(normals, offsets):
    """Halfplane rows (..., 2) and (...) scaled by 1/|normal|, as Halfplane
    stores them."""
    norm = np.sqrt(np.vecdot(normals, normals))
    return normals / norm[..., None], offsets / norm


def supporting_halfplanes(group, j, boundary_points, exterior_points):
    """Halfplanes tangent to shape j[i] of the group at each boundary point
    (rows of (n, 2)), each containing its exterior point.

    The shape lies entirely on the excluded side (normal . p >= offset for
    all shape points).  Each boundary point must lie on its shape's boundary
    and its exterior point strictly outside, on the outward side of the
    tangent; otherwise ValueError.  Returns the rows (normals, offsets) a
    Halfplane is built from, before its normalization (see unit_rows).
    """
    q, e = boundary_points, exterior_points
    if isinstance(group, CircleGroup):
        center, radius = group.centers[j], group.radii[j]
        v = q - center
        r_q = np.sqrt(np.vecdot(v, v))
        w = e - center
        off_boundary = np.abs(r_q - radius) > BOUNDARY_TOL
        covered = np.sqrt(np.vecdot(w, w)) - radius <= 0.0
        n_out = v / r_q[:, None]
    else:
        corners, edges = group.corners[j], group.edges[j]
        dists = _edge_projections(corners, edges, q)[2]
        off_boundary = dists.min(axis=1) > BOUNDARY_TOL
        covered = (group.contains(j, e)
                   | (_edge_projections(corners, edges, e)[2].min(axis=1)
                      <= 0.0))
        # At a vertex two edges qualify; pick the one whose outward side best
        # contains the exterior point.
        on_edges = dists <= BOUNDARY_TOL * 10 + dists.min(axis=1, keepdims=True)
        normals = _edge_normals(edges)
        fit = np.where(on_edges, np.vecdot(normals, (e - q)[:, None, :]), -np.inf)
        n_out = np.take_along_axis(
            normals, np.argmax(fit, axis=1)[:, None, None], axis=1)[:, 0]
    if off_boundary.any():
        raise ValueError("boundary_point is not on the shape boundary")
    if covered.any():
        raise ValueError("exterior_point is not strictly outside the shape")
    normals = -n_out
    offsets = np.vecdot(normals, q)
    unit, unit_offsets = unit_rows(normals, offsets)
    if np.any(np.vecdot(unit, e) > unit_offsets + BOUNDARY_TOL):
        raise ValueError("exterior_point is not on the outward side of the tangent")
    return normals, offsets
