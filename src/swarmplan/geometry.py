"""2D convex shapes, alone and stacked by kind.

One family of shapes models both the mapped obstacles and the robots'
bodies (`footprint_from_size`, a shape about the origin).  Every shape
answers the same questions: `support` along unit directions, `contains` at
one point or many, and `distance`; ray casts go through the groups below.
Shapes are closed point sets (boundary included).  All polygons store their
corners counter-clockwise, and the edge vectors from each corner to the
next, so that edge normals computed as (dy, -dx) point outward.  Angles are
radians, distances meters.

Groups.  `shape_groups` stacks shapes of one kind, circles or polygons of
one corner count, into a `CircleGroup` (centers (S, 2), radii (S,)) or a
`PolygonGroup` (corners and edges (S, k, 2)).  `ray_distances` takes an
index array j into the group and rays whose leading axes broadcast against
it, and answers for shape j[i] along ray i: the LiDAR casts every beam at
every shape of a kind in one array pass.  `distance_gradient(pts)` and
`support(u)` instead answer for every shape of the group at every point or
along every direction, (S, n), with gradients (S, n, 2): the moving volume
measures every map shape's distance from every slice seed in one pass per
kind (`distance_gradients`), which its membership, the regions and the
planner's obstacle cost all read.  Each kind has one kernel per question,
which the shape's own method (if it has one) runs on its own parameters,
so a group gives each shape its own result bit for bit; a circle's
`distance` and `contains` round their root distance as its kernel does.
A group's `support` is instead one matrix product, within a few ulps of
each shape's own: the region seeding compares it with BOUNDARY_TOL.

The nearest-point kernels (`_edge_projections`, `_disk_distance_gradient`,
`_polygon_distance_gradient`), the ray casts (`_disk_ray_distances`,
`_polygon_ray_distances`) and `_polygon_contains` work on x and y
components: a dot is `rx*ex + ry*ey` and a length `np.sqrt(dx*dx + dy*dy)`,
never a reduction over a length-2 axis, whose per-call overhead would
dominate at these sizes.  They round as np.sum and np.linalg.norm over that
axis did, since both add the two products in the same order.  For the same
reason they call numpy's ufuncs and array methods, not its Python-level
helpers (np.stack, np.clip, np.take_along_axis, np.all, np.max), and
divide only where a length is nonzero: the unit gradient, and a ray's
edge crossing where |denom| > 1e-14, are divided into zeroed arrays with
`where=`, and the nearest edge is gathered by its flat index.  Every
replacement gives the helper's bits.
"""

import math

import numpy as np

# Points within this of a boundary count as on it.
BOUNDARY_TOL = 1e-6


def _as_point(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {p.shape}")
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"expected a finite point, got {p.tolist()}")
    return p


def _outward(vx, vy, length, dist, outside):
    """(d, u) of a nearest-point query: `dist` and the unit gradient
    (vx, vy) / length where `outside` holds and length > 1e-12, else zeros.
    Only the kept lanes are divided."""
    ok = outside & (length > 1e-12)
    u = np.zeros(ok.shape + (2,))
    np.divide(vx, length, out=u[..., 0], where=ok)
    np.divide(vy, length, out=u[..., 1], where=ok)
    return np.where(ok, dist, 0.0), u


# --- kernels: stacked parameters broadcast against the points ----------------

def _disk_support(centers, radii, u):
    """max over each disk of u.x, per row of unit directions u (..., 2);
    np.vecdot rounds each row alike for any row count (a matmul does not)."""
    return np.vecdot(u, centers) + radii


def _disk_ray_distances(centers, squares, origins, dirs):
    """First-hit distance of each ray origin + t*dir, t > 0, on the disk
    whose squared radius is `squares`; inf on a miss."""
    rx = centers[..., 0] - origins[..., 0]
    ry = centers[..., 1] - origins[..., 1]
    proj = rx * dirs[..., 0] + ry * dirs[..., 1]
    perp2 = (rx * rx + ry * ry) - proj ** 2
    disc = squares - perp2
    root = np.sqrt(np.maximum(disc, 0.0))
    t_near = proj - root
    t_far = proj + root
    # From outside the first crossing is t_near; from inside it is t_far.
    t = np.where(t_near > BOUNDARY_TOL, t_near, t_far)
    return np.where((disc >= 0.0) & (t > BOUNDARY_TOL), t, np.inf)


def _polygon_contains(corners, edges, p):
    """Whether p lies on the inner side of every edge (..., k, 2)."""
    g = (edges[..., 0] * (p[..., None, 1] - corners[..., 1])
         - edges[..., 1] * (p[..., None, 0] - corners[..., 0]))
    return np.logical_and.reduce(g >= 0.0, axis=-1)


def _polygon_support(corners, u):
    """max over each polygon (..., k, 2) of u.x, per row of unit directions
    u (..., 2): the largest of the corners' np.vecdot, which rounds each
    alike however many directions there are (a one-row matmul does not)."""
    return np.maximum.reduce(np.vecdot(u[..., None, :], corners), axis=-1)


def _polygon_ray_distances(corners, edges, origins, dirs):
    """First-hit distance of each ray over all edges (..., k, 2); inf on a
    miss."""
    dirs = dirs[..., None, :]
    denom = dirs[..., 0] * edges[..., 1] - dirs[..., 1] * edges[..., 0]
    rel = corners - origins[..., None, :]
    t_num = rel[..., 0] * edges[..., 1] - rel[..., 1] * edges[..., 0]
    s_num = rel[..., 0] * dirs[..., 1] - rel[..., 1] * dirs[..., 0]
    live = np.abs(denom) > 1e-14
    t = np.zeros(denom.shape)
    s = np.zeros(denom.shape)
    np.divide(t_num, denom, out=t, where=live)
    np.divide(s_num, denom, out=s, where=live)
    ok = live & (s >= 0.0) & (s <= 1.0) & (t > BOUNDARY_TOL)
    return np.where(ok, t, np.inf).min(axis=-1)


def _edge_projections(corners, edges, pts):
    """Offset of each point from the nearest point of each edge segment
    (..., k, 2), and its length: dx, dy and dist, each (..., k).  The
    edge parameter is clamped to [0, 1] as np.clip clamps it: a bound
    first, so that a -0.0 parameter stays -0.0."""
    ax, ay = corners[..., 0], corners[..., 1]
    ex, ey = edges[..., 0], edges[..., 1]
    px, py = pts[..., None, 0], pts[..., None, 1]
    t = np.minimum(1.0, np.maximum(
        0.0, ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)))
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
    k = dist.shape[-1]
    best = dist.argmin(axis=-1)
    best += np.arange(0, best.size * k, k).reshape(best.shape)
    vx, vy, dv = dx.take(best), dy.take(best), dist.take(best)
    return _outward(vx, vy, dv, dv,
                    ~_polygon_contains(corners, edges, pts))


class Circle:
    """Disk with finite center (2,) and finite radius > 0."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        self.center = _as_point(center)
        radius = float(radius)
        if not 0.0 < radius < math.inf:
            raise ValueError(f"circle radius must be positive and finite, got {radius}")
        self.radius = radius

    def __repr__(self):
        return f"Circle(center={self.center.tolist()}, radius={self.radius})"

    @property
    def size_scale(self):
        return self.radius

    def _root(self, p):
        """Distance from the center, rounded as `_disk_distance_gradient`
        rounds it."""
        d = np.asarray(p, dtype=float) - self.center
        return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])

    def distance(self, p):
        """Distance from the point (2,), or each point of (..., 2), to the
        disk (0 inside): the root distance less the radius."""
        return np.maximum(self._root(p) - self.radius, 0.0)

    def contains(self, p):
        """Whether the point (2,), or each point of (..., 2), lies in the
        disk."""
        return self._root(p) <= self.radius

    def support(self, u):
        """max over the shape of u.x, per row of unit directions (..., 2)."""
        return _disk_support(self.center, self.radius, u)


def corners_area(corners):
    """Shoelace area of a polygon's corners (k, 2), in either orientation."""
    corners = np.asarray(corners, dtype=float)
    n = np.concatenate([corners[1:], corners[:1]])
    return 0.5 * abs(float(np.add.reduce(corners[:, 0] * n[:, 1]
                                         - corners[:, 1] * n[:, 0])))


class ConvexPolygonShape:
    """Base for convex polygons with CCW corners (k, 2)."""

    __slots__ = ("corners", "edges", "center", "size_scale", "_area")

    def __init__(self, corners):
        corners = np.asarray(corners, dtype=float)
        if corners.ndim != 2 or corners.shape[1] != 2 or len(corners) < 3:
            raise ValueError(f"polygon corners must be (k>=3, 2), got {corners.shape}")
        # The orientation test runs on Python floats: the same IEEE
        # operations, in the same order, as on numpy scalars.
        pts = corners.tolist()
        area2 = 0.0
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            area2 += ax * by - ay * bx
        if not math.isfinite(area2):   # as is some corner, or it overflows
            raise ValueError(f"polygon corners must be finite: {pts}")
        if area2 < 0:
            corners = corners[::-1].copy()
        self.corners = corners
        self.edges = np.concatenate([corners[1:], corners[:1]]) - corners
        self.center = corners.mean(axis=0)
        self.size_scale = float(np.maximum.reduce(
            np.linalg.norm(corners - self.center, axis=1)))
        self._area = None

    @property
    def area(self):
        """`corners_area` of the corners, computed on first use: the corners
        never change."""
        if self._area is None:
            self._area = corners_area(self.corners)
        return self._area

    def __repr__(self):
        return f"{type(self).__name__}(corners={self.corners.tolist()})"

    def contains(self, p):
        """Whether the point (2,), or each point of (..., 2), lies on the
        inner side of every edge."""
        return _polygon_contains(self.corners, self.edges,
                                 np.asarray(p, dtype=float))

    def distance(self, p):
        """Distance from the point (2,), or each point of (..., 2), to the
        polygon (0 inside): the nearest edge's."""
        p = np.asarray(p, dtype=float)
        near = _edge_projections(self.corners, self.edges, p)[2].min(axis=-1)
        return np.where(self.contains(p), 0.0, near)[()]

    def support(self, u):
        """max over the shape of u.x, per row of unit directions (..., 2)."""
        return _polygon_support(self.corners, u)


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
        # Each radius squared on its own, as a float.
        self._squares = np.array([c.radius ** 2 for c in circles])

    def __len__(self):
        return len(self.index)

    def ray_distances(self, j, origins, dirs):
        return _disk_ray_distances(self.centers[j], self._squares[j],
                                   origins, dirs)

    def distance_gradient(self, pts):
        """Every circle's (d, u) at every point (n, 2): (S, n) and (S, n, 2)."""
        return _disk_distance_gradient(self.centers[:, None],
                                       self.radii[:, None], pts)

    def support(self, u):
        """Every circle's support along every direction (n, 2): (S, n), one
        product u @ centers.T + radii."""
        return (u @ self.centers.T + self.radii).T


class PolygonGroup:
    """Polygons of one corner count k stacked for one array pass: corners
    and edges (S, k, 2).

    `index` holds each polygon's position in the list it was grouped from.
    """

    def __init__(self, polygons, index):
        self.index = np.asarray(index)
        self.corners = np.array([s.corners for s in polygons])
        self.edges = np.array([s.edges for s in polygons])
        # Corner c of polygon s as column c * S + s: (2, k * S), C-ordered.
        self._columns = self.corners.transpose(2, 1, 0).reshape(2, -1).copy()

    def __len__(self):
        return len(self.index)

    def ray_distances(self, j, origins, dirs):
        return _polygon_ray_distances(self.corners[j], self.edges[j],
                                      origins, dirs)

    def distance_gradient(self, pts):
        """Every polygon's (d, u) at every point (n, 2): (S, n) and (S, n, 2)."""
        return _polygon_distance_gradient(self.corners[:, None],
                                          self.edges[:, None], pts)

    def support(self, u):
        """Every polygon's support along every direction (n, 2): (S, n), the
        running maximum over the k corner planes of one product (n, k, S)."""
        dots = (u @ self._columns).reshape(len(u), -1, len(self))
        best = dots[:, 0]
        for c in range(1, dots.shape[1]):
            best = np.maximum(best, dots[:, c])
        return best.T


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


def distance_gradients(groups, pts):
    """Every grouped shape's (d, u) at every point (n, 2), in the order of
    the list the groups were made from: (n, S) and (n, S, 2).  One
    `distance_gradient` pass per group."""
    n_shapes = sum(len(g) for g in groups)
    d = np.empty((len(pts), n_shapes))
    u = np.empty((len(pts), n_shapes, 2))
    for g in groups:
        gd, gu = g.distance_gradient(pts)
        d[:, g.index] = gd.T
        u[:, g.index] = gu.swapaxes(0, 1)
    return d, u


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


def unit_rows(normals, offsets):
    """The halfplane rows {p : n.p <= o}, normals (..., 2) and offsets (...),
    divided by the norm of their normal, which np.vecdot measures as
    np.linalg.norm does."""
    norm = np.sqrt(np.vecdot(normals, normals))
    return normals / norm[..., None], offsets / norm
