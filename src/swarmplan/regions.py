"""Convex safe regions carved from free space around a seed path.

For every future timestep (a slice) a polytope is grown around the
previously planned position: a box caps the region, and each mapped shape
the slice holds, nearest first, adds the halfplane through its nearest
point, normal to the seed-to-nearest direction, unless a plane kept before
it already separates the shape (the safe flight corridor of Liu et al.,
RA-L 2017: IRIS without the ellipsoid).  Every such plane supports its
shape, so each shape the slice holds lies beyond one of the region's
planes.  Predicted peers cut the polytope further, and finally it is
deflated by the ego footprint so the trajectory optimizer can treat the
robot as a point.

Layout.  The halfplanes {p : n.p <= o} of all slices of a cycle live in one
`PlaneStack`: unit normals (slices, planes, 2) and offsets (slices, planes),
padded with NaN past each slice's plane count.  `build_safe_regions` makes
one pass over every slice: the moving volume's slice x shape mask says
which shapes each slice holds, its distance pass gives every (slice, shape)
pair the distance d and unit gradient u at the seed, and it stacks its
shapes by kind once per cycle (`geometry.shape_groups`: circles, and
polygons by corner count).  The seeding (`_seeded`) makes each pair's row
n = -u, o = n.seed + d after the slice's 4 box rows, measures every row
against every shape in one `support` pass per group, and then walks the
slices' shapes in order of distance in one loop of array steps, keeping a
shape's row when no kept row separates the shape; its record of the shapes
that own a row of each slice (`SafeRegion.bounding`) is the obstacle
admission, so a cycle tests shapes against rows once.  A lone shape is a
group of one.  The peer cut (`_peer_cuts`) evaluates every track at every
slice time at once.  A cut appends its plane and changes no row, so one
product over a candidate stack, the slice rows and a column per track
plane, gives every row's gap to every peer, and a loop of boolean
operations over the tracks decides the cuts.  Coverage and planes are found
one footprint at a time: `build_safe_regions` passes one per broadcast size
with its tracks' indices.  Duplicate rows are dropped once, by the
deflation: a row equal to an earlier one is deflated with it and stays
equal, so dropping it before or after gives the same rows.  The seed probe
is one step, and the slices that fail it get one emptiness test over the
padded stack (`_chebyshev_radius`).  The single-slice functions
(`seed_region`, `contract_for_peer`, `deflate_for_ego`, `region_is_empty`)
run the same kernels on a one-slice stack.

Arithmetic.  A region is defined slice by slice: a shape's row is n = -u
and o = n.seed + d as the distance pass gives them, a cut appends its
plane, divided by the norm it measures (`unit_rows`), the deflation
divides every row by its norm once more, and exact duplicate rows, equal
in every bit of normal and offset, are dropped, keeping the first.  The
kernels take those steps on the whole stack and keep each one's rounding,
so the arrays equal that per-slice chain bit for bit; the tests keep the
chain, one row object at a time, as the reference.  Hence the forms below:
- a slice's plane dots with a point are one np.matmul over the padded
  (slices, planes, 2) stack, which runs one BLAS gemv per slice.  On the
  OpenBLAS measured, a gemv rounds each row the same whatever the row
  count from 2 rows up, so a padded slice rounds as its own (planes, 2) @
  (2,) product.  Every slice holds its 4 box rows, whose normals differ,
  so no slice has the one row whose product would be a dot, which rounds
  differently; einsum or elementwise products round differently again.
  The peer cut's product is one gemv per (track, slice), so a row rounds
  as at any column;
- 2-vector dots and norms go through np.vecdot, which rounds as the 1-D `@`
  and np.linalg.norm do (norm(axis=...) and einsum do not);
- a group's kernels work elementwise or with 2-vector np.vecdot, so every
  (slice, shape) pair's distance and gradient round as its kind's kernel
  does on the shape alone, and its support as the shape's `support`;
- a seed lies inside a shape when the distance pass gives it d = 0, and
  in a peer's footprint when its kind's `contains` says so;
- a row separates a shape when o + support(-n) <= 0, and a peer is cut
  when no row has gap = n.peer - o - support(-n) above the margin; kept
  duplicates raise a slice's row count, which leaves that rounding alone;
- a cut plane's direction, offset and `unit_rows` are elementwise, and so
  is a footprint's support along any row (np.vecdot per circle or corner);
- the emptiness test computes each live pair and triple of a slice's rows
  as the one-slice test does, from index tables memoized per stack width
  (`_index_tables`), and never touches the padding.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (distance_gradients, footprint_from_size, shape_groups,
                       unit_rows)
from .prediction import predict_tracks

# A region whose largest inscribed disk has a radius below this is empty.
EMPTY_RADIUS = -1e-9
# Slack of the seed probe and of ConvexPolytope.contains.
PROBE_TOL = 1e-9
# Half width of the axis-aligned box that caps every region, meters.
BOX_HALF_WIDTH = 5.0
# Extra clearance cut away around predicted peers, meters.
PEER_MARGIN = 0.1
# Entries of the memo of the emptiness test's index tables (one per stack
# width).
_TABLE_MEMO = 16

_BOX_NORMALS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class SeedInsideObstacle(ValueError):
    """The region seed lies inside a mapped shape; no region can be grown."""


class PlaneStack(NamedTuple):
    """Many slices' halfplanes; rows from counts[k] on are NaN padding."""

    normals: np.ndarray   # (slices, planes, 2), unit rows
    offsets: np.ndarray   # (slices, planes)
    counts: np.ndarray    # (slices,)

    @classmethod
    def of(cls, polytope):
        """One-slice stack holding a polytope's rows."""
        return cls(polytope.normals[None], polytope.offsets[None],
                   np.array([len(polytope)]))

    def live(self):
        return np.arange(self.offsets.shape[1]) < self.counts[:, None]

    def polytope(self, k):
        c = self.counts[k]
        return ConvexPolytope(self.normals[k, :c], self.offsets[k, :c])

    def replaced(self, taken, other):
        """Copy with the slices where `taken` holds taken from the same
        slices of `other`, NaN padded to the wider stack's width."""
        width = max(self.offsets.shape[1], other.offsets.shape[1])
        normals = np.full((len(self.counts), width, 2), np.nan)
        offsets = np.full(normals.shape[:2], np.nan)
        for rows, src in ((~taken, self), (taken, other)):
            w = src.offsets.shape[1]
            normals[rows, :w] = src.normals[rows]
            offsets[rows, :w] = src.offsets[rows]
        return PlaneStack(normals, offsets,
                          np.where(taken, other.counts, self.counts))


class ConvexPolytope:
    """One slice of a PlaneStack: its live rows, unit normals (m, 2) and
    offsets (m,), as `PlaneStack.polytope` hands them out."""

    __slots__ = ("normals", "offsets")

    def __init__(self, normals, offsets):
        self.normals = normals
        self.offsets = offsets

    def __len__(self):
        return len(self.offsets)

    def contains(self, p, tol=PROBE_TOL):
        return bool(np.all(self.normals @ np.asarray(p, dtype=float)
                           <= self.offsets + tol))


@dataclass
class RegionSlice:
    """One slice's regions as polytopes (views into the stacks)."""

    t_rel: float
    seed: np.ndarray
    polytope: ConvexPolytope          # peer-contracted and ego-deflated
    feasible: bool = True
    static_polytope: ConvexPolytope = None  # before peer cuts / deflation


@dataclass
class SafeRegion:
    """Per-slice convex regions of one cycle, slice k at t_rel[k]."""

    t_rel: np.ndarray        # (slices,) seconds after the cycle start
    seeds: np.ndarray        # (slices, 2)
    planes: PlaneStack       # peer-contracted and ego-deflated
    static: PlaneStack       # before peer cuts and deflation
    feasible: np.ndarray     # (slices,) bool
    bounding: np.ndarray     # (slices, shapes) bool: j owns a row of k

    @cached_property
    def slices(self):
        return [RegionSlice(t_rel=float(t), seed=self.seeds[k],
                            polytope=self.planes.polytope(k),
                            feasible=bool(self.feasible[k]),
                            static_polytope=self.static.polytope(k))
                for k, t in enumerate(self.t_rel)]


# --- kernels ----------------------------------------------------------------

def _packed(normals, offsets, keep):
    """The rows where keep[k] holds, packed in order into a NaN-padded
    stack; the rows as they are when every one is kept, as in a slice
    with no shape to bound it."""
    counts = keep.sum(axis=1)
    if keep.all():
        return PlaneStack(normals, offsets, counts)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :max(counts.max(), 1)]
    slices = np.arange(len(keep))[:, None]
    normals = normals[slices, order]
    offsets = offsets[slices, order]
    pad = np.arange(order.shape[1]) >= counts[:, None]
    normals[pad] = np.nan
    offsets[pad] = np.nan
    return PlaneStack(normals, offsets, counts)


def _distinct(normals, offsets, counts):
    """Each slice's first counts[k] rows, packed in order, without rows
    equal in every bit to an earlier row of their slice.  Rows past
    counts[k] must be NaN."""
    width = max(counts.max(), 1)
    rows = np.arange(offsets.shape[1])
    earlier = rows[None, :] < rows[:, None]
    # NaN padding equals nothing, so without two equal live offsets in a
    # slice every live row is kept where it is.
    same = (offsets[:, :, None] == offsets[:, None, :]) & earlier
    if not same.any():
        return PlaneStack(normals[:, :width], offsets[:, :width], counts)
    same &= normals[:, :, None, 0] == normals[:, None, :, 0]
    same &= normals[:, :, None, 1] == normals[:, None, :, 1]
    return _packed(normals, offsets,
                   (rows < counts[:, None]) & ~same.any(axis=2))


def _seeded(seeds, groups, member, d, u):
    """`seed_region` for every slice, slice k holding the shapes j with
    member[k, j], stacked in `groups`, whose distance from seeds[k] is
    d[k, j] with unit gradient u[k, j]: (stack, inside, bounding).

    A slice whose seed lies in one of its shapes (d = 0, inside[k]) gets
    the box alone.  Every other slice holds its 4 box rows and then, in
    order of increasing d (ties to the lower shape index), the row
    n = -u, o = n.seed + d of each shape that no row kept before it
    separates (o_a + support_b(-n_a) <= 0), rows equal to earlier ones
    included (see `_distinct`).  bounding[k, j] says that shape j's row is
    one of slice k's, so an inside slice bounds no shape.
    """
    K, S = member.shape
    inside = (member & (d == 0.0)).any(axis=1)
    live = member & ~inside[:, None]
    # Candidate rows: the box, then one per shape, nearest first; the live
    # shapes of a slice sort ahead of the rest.
    nearest = np.argsort(np.where(live, d, np.inf), axis=1, kind="stable")
    slices = np.arange(K)
    n = -u[slices[:, None], nearest]
    normals = np.concatenate([np.broadcast_to(_BOX_NORMALS, (K, 4, 2)), n],
                             axis=1)
    offsets = np.concatenate([
        seeds @ _BOX_NORMALS.T + BOX_HALF_WIDTH,
        np.vecdot(n, seeds[:, None]) + d[slices[:, None], nearest]], axis=1)
    # separates[k, r, j]: candidate row r of slice k keeps shape j out.
    separates = np.empty((K, 4 + S, S), dtype=bool)
    for g in groups:
        support = g.support(-normals.reshape(-1, 2)).reshape(len(g), K, -1)
        separates[:, :, g.index] = (offsets[:, :, None]
                                    + support.transpose(1, 2, 0) <= 0.0)
    n_live = live.sum(axis=1)
    kept = np.zeros((K, 4 + S), dtype=bool)
    kept[:, :4] = True
    for r in range(n_live.max()):
        kept[:, 4 + r] = (r < n_live) & ~(
            kept & separates[slices, :, nearest[:, r]]).any(axis=1)
    bounding = np.empty((K, S), dtype=bool)
    bounding[slices[:, None], nearest] = kept[:, 4:]
    return _packed(normals, offsets, kept), inside, bounding


def _peer_cuts(stack, seeds, peers, groups, margin):
    """`contract_for_peer` on every slice by each track t in turn, at
    peers[t] (tracks, slices, 2); `groups` pairs each footprint, a shape
    about the origin, with its tracks' indices.  Returns (stack, seed
    covered by no track): the input stack when nothing is cut, else each
    slice's rows and then, in track order, the planes of the tracks that
    cut it, rows equal to earlier ones included (see `_distinct`)."""
    n_rows = stack.offsets.shape[1]
    rel = seeds - peers
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -rel / np.sqrt(np.vecdot(rel, rel))[..., None]
    clear = np.empty(rel.shape[:2], dtype=bool)
    offset = np.empty(rel.shape[:2])
    for footprint, ts in groups:
        clear[ts] = ~footprint.contains(rel[ts])
        offset[ts] = (np.vecdot(u[ts], peers[ts]) - footprint.support(-u[ts])
                      - margin)
    cut_normals, cut_offsets = unit_rows(u, offset)
    normals = np.hstack([stack.normals, cut_normals.swapaxes(0, 1)])
    offsets = np.hstack([stack.offsets, cut_offsets.T])
    # Every row's gap to every peer, a gemv per (track, slice) as in the
    # chain; by_rows[t, k] says whether an input row keeps peer t out at
    # slice k.
    along = np.matmul(normals, peers[..., None])[..., 0]
    support = np.empty(along.shape)
    for footprint, ts in groups:
        support[ts] = footprint.support(-normals)
    keeps = along - offsets - support > margin
    by_rows = keeps[..., :n_rows].any(axis=2)
    # A track that input rows keep out wherever it is clear cuts nothing.
    cuts = np.zeros(clear.shape, dtype=bool)
    for t in (clear & ~by_rows).any(axis=1).nonzero()[0]:
        kept = by_rows[t] | (keeps[t, :, n_rows:n_rows + t]
                             & cuts[:t].T).any(axis=1)
        cuts[t] = clear[t] & ~kept
    if not cuts.any():
        return stack, clear.all(axis=0)
    k, t = np.nonzero(cuts.T)
    slot = stack.counts[k] + np.arange(len(k)) - np.searchsorted(k, k)
    normals[k, slot], offsets[k, slot] = (normals[k, n_rows + t],
                                          offsets[k, n_rows + t])
    counts = stack.counts + cuts.sum(axis=0)
    pad = np.arange(normals.shape[1]) >= counts[:, None]
    normals[pad], offsets[pad] = np.nan, np.nan
    return PlaneStack(normals, offsets, counts), clear.all(axis=0)


def _deflated(stack, footprint):
    """`deflate_for_ego` on every slice."""
    normals, offsets = unit_rows(
        stack.normals, stack.offsets - footprint.support(stack.normals))
    return _distinct(normals, offsets, stack.counts)


@lru_cache(maxsize=_TABLE_MEMO)
def _index_tables(width):
    """The row pairs a < b and triples i < j < k of `width` rows, in
    lexicographic order, read-only."""
    rows = np.arange(width)
    a, b = np.triu_indices(width, 1)
    i, j, k = np.nonzero((rows[:, None, None] < rows[None, :, None])
                         & (rows[None, :, None] < rows[None, None, :]))
    for table in (a, b, i, j, k):
        table.setflags(write=False)
    return a, b, i, j, k


def _chebyshev_radius(normals, offsets, counts):
    """Per slice, the radius of the largest disk in {p : n.p <= o} over its
    first counts[k] rows, which have unit normals; inf when the set holds
    arbitrarily large disks.

    By LP duality the radius is the least sum(w * o) over weights w >= 0
    with sum(w) = 1 and sum(w * n) = 0, and some least one has at most three
    nonzero weights: an antiparallel pair, or a triple whose normals
    surround the origin.  Both kinds are enumerated over live rows only.
    """
    best = np.full(len(counts), np.inf)
    a, b, i, j, k = _index_tables(offsets.shape[1])

    def cross(s, p, q):
        return (normals[s, p, 0] * normals[s, q, 1]
                - normals[s, p, 1] * normals[s, q, 0])

    s, t = np.nonzero(b < counts[:, None])
    a, b = a[t], b[t]
    pair = ((np.abs(cross(s, a, b)) <= 1e-12)
            & (np.vecdot(normals[s, a], normals[s, b]) < 0.0))
    np.minimum.at(best, s[pair], 0.5 * (offsets[s, a] + offsets[s, b])[pair])
    s, t = np.nonzero(k < counts[:, None])
    i, j, k = i[t], j[t], k[t]
    # Barycentric weights of the origin in the triangle of three normals.
    w = np.stack([cross(s, j, k), cross(s, k, i), cross(s, i, j)])
    det = w.sum(axis=0)
    solid = np.abs(det) > 1e-12
    w = w[:, solid] / det[solid]
    around = np.all(w >= -1e-12, axis=0)
    s, i, j, k = s[solid], i[solid], j[solid], k[solid]
    r = (w * offsets[s, np.stack([i, j, k])]).sum(axis=0)
    np.minimum.at(best, s[around], r[around])
    return best


def _has_interior(stack):
    """Per slice: not `region_is_empty`, that is a largest inscribed disk
    that is finite and of radius EMPTY_RADIUS or more."""
    radius = _chebyshev_radius(*stack)
    return (EMPTY_RADIUS <= radius) & (radius < np.inf)


# --- single-slice API ---------------------------------------------------------

def seed_region(seed, shapes):
    """Convex free-space polytope around a seed point.

    Four axis-aligned box planes at BOX_HALF_WIDTH from the seed, then,
    nearest shape first, the plane through each shape's nearest point,
    normal to the seed-to-nearest direction, unless an earlier plane
    already separates the shape.  Raises SeedInsideObstacle when the seed
    is covered by a shape.
    """
    seed = np.asarray(seed, dtype=float)[None]
    groups = shape_groups(list(shapes))
    d, u = distance_gradients(groups, seed)
    stack, inside, _ = _seeded(seed, groups, np.full(d.shape, True), d, u)
    if inside[0]:
        raise SeedInsideObstacle(f"seed {seed[0].tolist()} is inside a shape")
    return _distinct(*stack).polytope(0)


def contract_for_peer(polytope, seed, peer_position, footprint, margin=0.0):
    """Cut the region away from a predicted peer, or leave it unchanged.

    The peer occupies `footprint` centered at peer_position, padded by
    `margin` to absorb prediction error and inter-sample motion.  If a
    region plane already separates the padded footprint, nothing changes.
    Otherwise one plane normal to the seed-to-peer direction is appended,
    touching the padded footprint on the seed side, and the region's own
    rows keep their bits.  Returns (polytope, feasible); feasible goes
    False when the seed itself is covered.  The one-track case of
    `_peer_cuts`, which `build_safe_regions` runs for all tracks at once.
    """
    before = PlaneStack.of(polytope)
    after, free = _peer_cuts(before, np.asarray(seed, dtype=float)[None],
                             np.asarray(peer_position, dtype=float)[None, None],
                             [(footprint, slice(None))], margin)
    if after is before:
        return polytope, bool(free[0])
    return _distinct(*after).polytope(0), True


def deflate_for_ego(polytope, footprint):
    """Shrink every plane inward by the ego footprint's support in its normal.

    After deflation the optimizer can constrain the reference point alone.
    """
    return _deflated(PlaneStack.of(polytope), footprint).polytope(0)


def region_is_empty(polytope, probe=None):
    """True when the polytope has no interior point, or is unbounded.

    A probe containment test short-circuits; otherwise the largest inscribed
    disk decides, found exactly in 2D (see _chebyshev_radius).  An unbounded
    set counts as empty, as the failed Chebyshev LP it replaces did.
    """
    if probe is not None and polytope.contains(probe):
        return False
    return not _has_interior(PlaneStack.of(polytope))[0]


def build_safe_regions(volume, tracks, ego_footprint, now, previous=None):
    """One deflated polytope per moving-volume slice, in one pass.

    Slice seeds are the volume's window centers (the old plan's positions).
    The shapes in each slice's row of the volume's mask bound its region,
    every live track cuts it at its predicted position, padded by
    PEER_MARGIN, and the result is deflated by the ego footprint.  A seed
    stuck inside a mapped shape falls back to the previous cycle's static
    region of the same slice; slices whose seed is covered by a peer or
    whose polytope ends up empty are flagged infeasible.  `bounding`
    records the shapes that own a row of each slice, none when borrowed.
    """
    t_rel, seeds = volume.t_rel, volume.centers
    stack, inside, bounding = _seeded(seeds, volume.groups, volume.member,
                                      volume.distances, volume.gradients)
    feasible = ~inside
    if previous is not None and inside.any():
        # Every volume has the same slices at the same times after its
        # cycle, so slice k borrows the previous slice k.
        stack = stack.replaced(inside, previous.static)
        feasible[inside] = previous.feasible[inside]
    static = stack
    if tracks:
        by_size = {}
        for t, tr in enumerate(tracks):
            by_size.setdefault(tuple(tr.latest.size or (0.1,)), []).append(t)
        stack, free = _peer_cuts(
            stack, seeds, predict_tracks(tracks, now + t_rel)[:, :, 0],
            [(footprint_from_size(size), ts) for size, ts in by_size.items()],
            PEER_MARGIN)
        feasible &= free
    stack = _deflated(stack, ego_footprint)
    dots = np.matmul(stack.normals, seeds[:, :, None])[..., 0]
    probe_in = np.all((dots <= stack.offsets + PROBE_TOL) | ~stack.live(),
                      axis=1)
    ks = np.flatnonzero(feasible & ~probe_in)
    if len(ks):
        feasible[ks] = _has_interior(PlaneStack(
            stack.normals[ks], stack.offsets[ks], stack.counts[ks]))
    return SafeRegion(t_rel=t_rel, seeds=seeds, planes=stack, static=static,
                      feasible=feasible, bounding=bounding)


def admit_obstacles(shapes, regions):
    """Indices, increasing, of the volume's `shapes` that own a static row
    of some slice (`SafeRegion.bounding`).  Only the record is read; the
    benchmark tracer wraps this by name and counts len(shapes) and
    len(result), so it keeps its signature and list result."""
    return np.flatnonzero(regions.bounding.any(axis=0)).tolist()
