"""Safe convex regions: seeding, peer contraction, deflation, emptiness."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.optimize import linprog

from swarmplan import geometry, regions
from swarmplan.geometry import (BOUNDARY_TOL, Circle, ConvexPolygonShape,
                                Square, Triangle, _as_point, axis_rectangle,
                                distance_gradients, footprint_from_size,
                                oriented_rectangle, shape_groups, unit_rows)
from swarmplan.perception import MovingVolume
from swarmplan.prediction import PeerState, PeerTrack
from swarmplan.regions import (PlaneStack, SeedInsideObstacle,
                               admit_obstacles, build_safe_regions,
                               contract_for_peer, deflate_for_ego,
                               region_is_empty, seed_region)


# --- the per-row region chain -------------------------------------------------
#
# A region as it was defined before the plane stacks: one Halfplane object
# per row, which divides by the norm it measures, gathered into a
# ConvexPolytope, which keeps every row it is given, in order.  Both
# classes are kept here as the reference that the stacked kernels
# must equal bit for bit, and as the polytopes the single-slice functions
# take.

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
    """Intersection of halfplanes, stored as normals (m, 2) and offsets (m,),
    one row per halfplane given, in order."""

    __slots__ = ("normals", "offsets")

    def __init__(self, halfplanes):
        if not halfplanes:
            raise ValueError("polytope needs at least one halfplane")
        self.normals = np.array([hp.normal for hp in halfplanes])
        self.offsets = np.array([hp.offset for hp in halfplanes])

    def __len__(self):
        return len(self.offsets)

    def contains(self, p, tol=1e-9):
        return bool(np.all(self.normals @ _as_point(p) <= self.offsets + tol))


def edge_normals(shape):
    """Outward unit normals (dy, -dx) of a polygon's CCW edges."""
    n = np.stack([shape.edges[:, 1], -shape.edges[:, 0]], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def disk(r):
    """Disk footprint of radius r."""
    return Circle([0.0, 0.0], r)


def origin_square(h):
    """Axis-aligned square footprint of half extent h."""
    return Square([[-h, -h], [h, -h], [h, h], [-h, h]])


def brute_force_free(point, shapes):
    return not any(s.contains(point) for s in shapes)


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


def axis_square(center, side):
    cx, cy = center
    h = side / 2.0
    return Square([[cx - h, cy - h], [cx + h, cy - h],
                   [cx + h, cy + h], [cx - h, cy + h]])


def measured_volume(t_rel, centers, shapes, member):
    """Moving volume with the given membership, holding its shapes'
    distances and gradients at the centers as `build_moving_volume`
    measures them."""
    groups = shape_groups(shapes)
    d, u = distance_gradients(groups, centers)
    return MovingVolume(t_rel=t_rel, centers=centers, shapes=shapes,
                        member=member, distances=d, gradients=u,
                        groups=groups)


def volume_of(centers, shape_lists, tau):
    """Moving volume whose slice k holds the shapes of shape_lists[k]; the
    volume lists each shape once, in order of first appearance."""
    shapes = list({id(s): s for lst in shape_lists for s in lst}.values())
    member = np.array([[any(s is t for t in lst) for s in shapes]
                       for lst in shape_lists], dtype=bool)
    return measured_volume(tau * np.arange(1, len(shape_lists) + 1),
                           np.array(centers, dtype=float).reshape(-1, 2),
                           shapes,
                           member.reshape(len(shape_lists), len(shapes)))


def slice_shapes(volume, k):
    """Slice k's shapes, as the per-slice oracles list them."""
    return [volume.shapes[j] for j in np.flatnonzero(volume.member[k])]


def box_polytope(half):
    return ConvexPolytope([
        Halfplane(np.array([1.0, 0.0]), half),
        Halfplane(np.array([-1.0, 0.0]), half),
        Halfplane(np.array([0.0, 1.0]), half),
        Halfplane(np.array([0.0, -1.0]), half),
    ])


class TestSeedRegion:
    def test_empty_world_box_only(self):
        seed = np.array([1.0, -2.0])
        poly = seed_region(seed, [])
        assert len(poly.normals) == 4
        # Box extends r_max in each axis direction.
        for u in (np.array([1.0, 0]), np.array([-1.0, 0]),
                  np.array([0, 1.0]), np.array([0, -1.0])):
            inner = seed + u * (regions.BOX_HALF_WIDTH - 1e-6)
            outer = seed + u * (regions.BOX_HALF_WIDTH + 0.1)
            assert np.max(poly.normals @ inner - poly.offsets) <= 0
            assert np.max(poly.normals @ outer - poly.offsets) > 0

    def test_seed_inside_raises(self):
        with pytest.raises(SeedInsideObstacle):
            seed_region(np.array([0.0, 0.0]), [Circle(np.zeros(2), 1.0)])

    def test_seed_always_contained(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            shapes = []
            for _ in range(rng.integers(1, 5)):
                c = rng.uniform(-4, 4, size=2)
                if rng.random() < 0.5:
                    shapes.append(Circle(c, float(rng.uniform(0.3, 1.2))))
                else:
                    shapes.append(axis_square(c, float(rng.uniform(0.4, 1.5))))
            seed = rng.uniform(-4, 4, size=2)
            if not brute_force_free(seed, shapes):
                continue
            poly = seed_region(seed, shapes)
            assert poly.contains(seed, tol=1e-9)

    def test_every_shape_fully_excluded(self):
        # Every shape gets a plane through its nearest point, or an earlier
        # plane already keeps it out: no interior point of any shape lies
        # in the region.
        rng = np.random.default_rng(3)
        checked = 0
        for trial in range(20):
            shapes = [Circle(rng.uniform(-3, 3, size=2), float(rng.uniform(0.4, 1.0)))
                      for _ in range(3)]
            shapes.append(axis_square(rng.uniform(-3, 3, size=2),
                                      float(rng.uniform(0.5, 1.2))))
            shapes.append(Triangle(rng.uniform(-3, 3, size=2)
                                   + rng.uniform(-1, 1, size=(3, 2))))
            seed = rng.uniform(-2, 2, size=2)
            if not brute_force_free(seed, shapes):
                continue
            poly = seed_region(seed, shapes)
            for s in shapes:
                if isinstance(s, Circle):
                    th = np.linspace(0, 2 * np.pi, 72, endpoint=False)
                    pts = s.center + 0.999 * s.radius * np.stack(
                        [np.cos(th), np.sin(th)], axis=1)
                else:
                    w = rng.dirichlet(np.ones(len(s.corners)), size=150)
                    pts = s.center + 0.999 * (w @ s.corners - s.center)
                for p in pts:
                    assert not poly.contains(p, tol=-1e-9), (
                        f"trial {trial}: region admits point {p} of {s!r}")
                checked += 1
        assert checked >= 50

    def test_planes_touch_the_nearest_points(self):
        # A circle dead ahead bounds the region at its near rim.  A square
        # seen past its corner bounds it with the line through the corner
        # normal to the seed's direction, not with an edge's line.
        seed = np.zeros(2)
        poly = seed_region(seed, [Circle(np.array([3.0, 0.0]), 1.0)])
        assert len(poly) == 5
        assert poly.normals[4].tolist() == [1.0, 0.0]
        assert poly.offsets[4] == 2.0
        square = axis_square(np.array([4.0, 5.0]), 2.0)
        poly = seed_region(seed, [square])
        assert len(poly) == 5
        assert np.allclose(poly.normals[4], [0.6, 0.8], atol=1e-15)
        assert poly.offsets[4] == pytest.approx(5.0, abs=1e-14)
        # The corner (3, 4) is on the plane; the region reaches past both
        # edge lines x = 3 and y = 4 elsewhere.
        assert poly.contains(np.array([3.0, 4.0]), tol=1e-12)
        assert poly.contains(np.array([3.5, 0.5]))
        assert poly.contains(np.array([-1.0, 4.5]))

    def test_box_rows_keep_out_shapes_beyond_them(self):
        # The box rows come first, so a shape wholly beyond one of them
        # adds no row; one the box only clips adds its own.
        seed = np.array([1.0, -2.0])
        far = Circle(seed + [20.0, 0.0], 1.0)
        clipped = axis_rectangle(seed[0] - 1.0, seed[1] + 4.0,
                                 seed[0] + 1.0, seed[1] + 9.0)
        assert len(seed_region(seed, [far])) == 4
        poly = seed_region(seed, [far, clipped])
        assert len(poly) == 5 and poly.normals[4].tolist() == [0.0, 1.0]

    def test_equal_distances_keep_list_order(self):
        # Three circles 1 m from the seed in different directions: none
        # keeps another out, and their rows follow the list order.
        shapes = [Circle([0.0, 3.0], 2.0), Circle([3.0, 0.0], 2.0),
                  Circle([-3.0, 0.0], 2.0)]
        poly = seed_region(np.zeros(2), shapes)
        assert poly.normals[4:].tolist() == [[0.0, 1.0], [1.0, 0.0],
                                             [-1.0, 0.0]]
        assert poly.offsets[4:].tolist() == [1.0, 1.0, 1.0]


class TestContraction:
    def test_far_peer_leaves_region_unchanged(self):
        poly = box_polytope(1.0)
        seed = np.zeros(2)
        out, feasible = contract_for_peer(poly, seed, np.array([10.0, 0.0]),
                                          disk(0.3))
        assert feasible
        assert len(out.normals) == len(poly.normals)

    def test_near_peer_adds_separating_plane(self):
        poly = box_polytope(3.0)
        seed = np.zeros(2)
        peer = np.array([2.0, 0.0])
        fp = disk(0.5)
        out, feasible = contract_for_peer(poly, seed, peer, fp)
        assert feasible
        assert len(out.normals) == len(poly.normals) + 1
        # The new plane touches the deflated peer disk: x <= 1.5.
        assert not out.contains(np.array([1.6, 0.0]))
        assert out.contains(np.array([1.45, 0.0]), tol=1e-9)
        # Seed retained.
        assert out.contains(seed, tol=1e-9)

    def test_square_footprint_support_used(self):
        poly = box_polytope(5.0)
        seed = np.zeros(2)
        peer = np.array([3.0, 3.0])
        fp = origin_square(1.0)
        out, feasible = contract_for_peer(poly, seed, peer, fp)
        assert feasible
        u = peer / np.linalg.norm(peer)
        # Along the diagonal the square's support is sqrt(2).
        boundary = float(u @ peer) - np.sqrt(2.0)
        assert out.contains(u * (boundary - 1e-6), tol=1e-9)
        assert not out.contains(u * (boundary + 1e-3))

    def test_peer_on_seed_reports_infeasible(self):
        poly = box_polytope(1.0)
        out, feasible = contract_for_peer(poly, np.zeros(2), np.array([0.1, 0.0]),
                                          disk(0.5))
        assert not feasible

    def test_contracted_region_excludes_peer_footprint(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            seed = np.zeros(2)
            poly = box_polytope(float(rng.uniform(2.0, 4.0)))
            peer = rng.uniform(-3, 3, size=2)
            if np.linalg.norm(peer) < 0.8:
                continue
            fp = disk(float(rng.uniform(0.2, 0.6)))
            out, feasible = contract_for_peer(poly, seed, peer, fp)
            if not feasible:
                continue
            # No point of the peer's footprint may lie strictly inside.
            for th in np.linspace(0, 2 * np.pi, 36, endpoint=False):
                q = peer + fp.radius * np.array([np.cos(th), np.sin(th)])
                assert not out.contains(q, tol=-1e-9)


class TestDeflation:
    def test_circle_footprint_shrinks_offsets(self):
        out = deflate_for_ego(box_polytope(2.0), disk(0.5))
        assert np.allclose(out.offsets, 1.5)

    def test_deflated_center_keeps_footprint_inside(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            planes = []
            for th in np.sort(rng.uniform(0, 2 * np.pi, size=n)):
                planes.append(Halfplane(np.array([np.cos(th), np.sin(th)]),
                                        float(rng.uniform(1.0, 3.0))))
            poly = ConvexPolytope(planes)
            fp = origin_square(float(rng.uniform(0.1, 0.5)))
            out = deflate_for_ego(poly, fp)
            # Any center admitted by the deflated region keeps every corner
            # of the footprint inside the original region.
            for _ in range(50):
                c = rng.uniform(-3, 3, size=2)
                if not out.contains(c):
                    continue
                for corner in c + fp.corners:
                    assert poly.contains(corner, tol=1e-9)


class TestEmptiness:
    def test_nonempty_via_probe(self):
        assert not region_is_empty(box_polytope(1.0), probe=np.zeros(2))

    def test_empty_after_over_deflation(self):
        poly = deflate_for_ego(box_polytope(0.4), disk(0.5))
        assert region_is_empty(poly, probe=np.zeros(2))

    def test_lp_finds_interior_when_probe_outside(self):
        assert not region_is_empty(box_polytope(1.0), probe=np.array([5.0, 5.0]))

    def test_halfplane_contradiction(self):
        poly = ConvexPolytope([
            Halfplane(np.array([1.0, 0.0]), -1.0),
            Halfplane(np.array([-1.0, 0.0]), -1.0),
        ])
        assert region_is_empty(poly, probe=np.zeros(2))


def packed(polytopes, width):
    """One NaN-padded stack holding the polytopes' rows, slice by slice."""
    stack = PlaneStack(np.full((len(polytopes), width, 2), np.nan),
                       np.full((len(polytopes), width), np.nan),
                       np.array([len(p) for p in polytopes]))
    for k, p in enumerate(polytopes):
        stack.normals[k, :len(p)] = p.normals
        stack.offsets[k, :len(p)] = p.offsets
    return stack


class TestBatchedKernels:
    def test_batched_emptiness_matches_each_slice(self):
        # The emptiness test of all failing slices at once must give each
        # slice the radius, and so the verdict, of its own polytope.
        rng = np.random.default_rng(67)
        polys = [box_polytope(1.0), box_polytope(0.4),
                 deflate_for_ego(box_polytope(0.4), disk(0.5)),
                 ConvexPolytope([Halfplane(np.array([1.0, 0.0]), -1.0),
                                 Halfplane(np.array([-1.0, 0.0]), -1.0)]),
                 *TestEmptinessAgainstLP().polytopes(rng)]
        order = rng.permutation(len(polys))
        polys = [polys[i] for i in order]
        width = max(len(p) for p in polys) + 2
        stack = packed(polys, width)
        assert len(set(stack.counts.tolist())) > 5
        radius = regions._chebyshev_radius(*stack)
        interior = regions._has_interior(stack)
        for k, p in enumerate(polys):
            alone = regions._chebyshev_radius(*PlaneStack.of(p))
            assert radius[k].tobytes() == alone[0].tobytes(), k
            assert interior[k] == (not region_is_empty(p)), k
        assert 20 < np.sum(~interior) < len(polys) - 20


class TestBuildSafeRegions:
    def make_volume(self, shapes_per_slice, tau=0.1, center=(0.0, 0.0)):
        return volume_of([center] * len(shapes_per_slice), shapes_per_slice,
                         tau)

    def track_at(self, pos, vel, stamp=0.0, size=(0.3,)):
        return PeerTrack(PeerState(stamp=stamp, position=np.array(pos, float),
                                   velocity=np.array(vel, float),
                                   acceleration=np.zeros(2), size=size))

    def test_slices_cover_horizon(self):
        vol = self.make_volume([[] for _ in range(10)])
        region = build_safe_regions(vol, [], disk(0.2),
                                    now=0.0)
        assert len(region.slices) == 10
        assert region.slices[0].t_rel == pytest.approx(0.1)
        assert region.slices[-1].t_rel == pytest.approx(1.0)

    def test_static_obstacle_blocks_every_slice(self):
        circle = Circle(np.array([2.0, 0.0]), 0.5)
        vol = self.make_volume([[circle]] * 5)
        region = build_safe_regions(vol, [], disk(0.2),
                                    now=0.0)
        for sl in region.slices:
            assert sl.feasible
            assert not sl.polytope.contains(np.array([2.0, 0.0]))

    def test_peer_contraction_applied_per_slice(self):
        # Peer moving in +x starting at (-3, 0): early slices cut near -3,
        # later slices cut nearer to the origin.
        vol = self.make_volume([[] for _ in range(20)])
        tr = self.track_at([-3.0, 0.0], [1.0, 0.0])
        region = build_safe_regions(vol, [tr], disk(0.2),
                                    now=0.0)
        early = region.slices[0].polytope
        late = region.slices[-1].polytope
        # At t_rel=0.1 the peer sits near (-2.9, 0); at 2.0 near (-1, 0).
        assert early.contains(np.array([-2.0, 0.0]))
        assert not late.contains(np.array([-2.0, 0.0]))

    def test_seed_inside_marks_infeasible_with_box(self):
        circle = Circle(np.zeros(2), 1.0)  # swallows the seed
        vol = self.make_volume([[circle]] * 3)
        region = build_safe_regions(vol, [], disk(0.2),
                                    now=0.0)
        for sl in region.slices:
            assert not sl.feasible
            assert len(sl.polytope.normals) >= 4

    def test_seed_inside_gets_the_deflated_box(self):
        # A free region built just before changes nothing: a blocked seed
        # gets the 4 box rows, deflated once by the footprint, and is
        # flagged infeasible.
        free = self.make_volume([[] for _ in range(3)])
        build_safe_regions(free, [], disk(0.2), now=0.0)
        blocked = self.make_volume([[Circle(np.zeros(2), 1.0)]] * 3)
        region = build_safe_regions(blocked, [], disk(0.2), now=0.1)
        for sl in region.slices:
            assert not sl.feasible
            assert len(sl.polytope.normals) == 4
            assert np.allclose(sl.polytope.offsets, regions.BOX_HALF_WIDTH - 0.2)

    def test_seed_inside_gets_the_box_alone(self):
        # A seed inside a shape it holds, or exactly on a circle's rim,
        # gets the 4 box rows about it, bounds no shape and is flagged
        # infeasible, with or without peers; the other slices keep the rows
        # the seeding gave them.  The region reads this cycle's volume
        # alone.
        rng = np.random.default_rng(83)
        r = regions.BOX_HALF_WIDTH
        inside_total = 0
        for trial in range(16):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            volume = random_volume(rng, 20, inside_frac=0.4)
            seeded, inside, _ = seeded_volume(volume)
            tracks = random_tracks(rng, volume) if trial % 4 < 2 else []
            region = build_safe_regions(volume, tracks, ego, 0.04)
            got = region.static
            box = volume.centers @ regions._BOX_NORMALS.T + r
            for k in range(len(inside)):
                c = seeded.counts[k]
                assert got.counts[k] == c
                for x, y in zip(got[:2], seeded[:2]):
                    assert x[k, :c].tobytes() == y[k, :c].tobytes()
                    assert np.isnan(x[k, c:]).all()
                if inside[k]:
                    assert c == 4
                    assert got.offsets[k, :4].tobytes() == box[k].tobytes()
            assert not region.feasible[inside].any()
            assert not region.bounding[inside].any()
            assert region.feasible[~inside].any()
            inside_total += inside.sum()
        assert inside_total > 50

    def test_every_slice_holds_its_box_rows(self):
        # No slice has one row: every static slice, seeded inside a shape
        # or not, starts with the 4 box rows about its seed, and peer cuts
        # and deflation keep at least 4 rows.
        rng = np.random.default_rng(97)
        r = regions.BOX_HALF_WIDTH
        inside_total = 0
        for trial in range(8):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            volume = random_volume(rng, 30, inside_frac=0.3)
            reg = build_safe_regions(volume, random_tracks(rng, volume), ego,
                                     0.04)
            assert (reg.static.counts >= 4).all()
            assert (reg.planes.counts >= 4).all()
            assert (reg.static.normals[:, :4] == regions._BOX_NORMALS).all()
            box = volume.centers @ regions._BOX_NORMALS.T + r
            assert reg.static.offsets[:, :4].tobytes() == box.tobytes()
            inside_total += seeded_volume(volume)[1].sum()
        assert inside_total > 10

    @staticmethod
    def assert_packed(stack):
        """Each slice's first counts[k] rows finite, the rest NaN, and the
        stack as wide as its largest count."""
        live = np.arange(stack.offsets.shape[1]) < stack.counts[:, None]
        for rows in stack[:2]:
            assert np.isfinite(rows[live]).all()
            assert np.isnan(rows[~live]).all()
        assert stack.offsets.shape[1] == max(stack.counts.max(), 1)

    def test_every_stack_is_packed(self, monkeypatch):
        # Every stack that the peer cut returns, and both stacks of every
        # region, are packed.
        made = []
        peer_cuts = regions._peer_cuts

        def recording_cuts(stack, *args):
            out = peer_cuts(stack, *args)
            if out[0] is not stack:
                made.append(out[0])
            return out

        monkeypatch.setattr(regions, "_peer_cuts", recording_cuts)
        rng = np.random.default_rng(101)
        for trial in range(8):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            first = random_volume(rng, 30)
            tracks = random_tracks(rng, first)
            second = random_volume(rng, 30, inside_frac=0.3)
            for reg in (build_safe_regions(first, tracks, ego, 0.0),
                        build_safe_regions(second, tracks[:trial % 3], ego,
                                           0.04)):
                self.assert_packed(reg.planes)
                self.assert_packed(reg.static)
        for stack in made:
            self.assert_packed(stack)
        assert len(made) > 2


# --- the one-pass build against the per-slice definition ----------------------
#
# The oracle is the per-slice composition that defines a region: the box
# and the nearest-point planes of the slice's shapes, one shape at a time,
# cut with contract_for_peer track by track (a ConvexPolytope of the earlier
# rows, bits kept, and the new plane's Halfplane), deflate_for_ego, then the
# probe and the HiGHS Chebyshev LP.  The one-pass build must equal it bit
# for bit.

def _fp_support(fp, u):
    if isinstance(fp, Circle):
        return fp.radius
    # A square footprint is a polygon: the max of u over its corners.
    return max(float(corner @ u) for corner in fp.corners)


def _fp_contains(fp, rel):
    if isinstance(fp, Circle):
        return float(np.linalg.norm(rel)) <= fp.radius
    return float(np.max(np.abs(rel))) <= float(np.max(fp.corners))


def own_ray_distances(shape, origins, dirs):
    """The shape's kind's ray-cast kernel on the shape's own parameters:
    the first-hit distance of each ray origin + t*dir, t > 0; inf on a
    miss."""
    if isinstance(shape, Circle):
        return geometry._disk_ray_distances(shape.center, shape.radius ** 2,
                                            origins, dirs)
    return geometry._polygon_ray_distances(shape.corners, shape.edges,
                                           origins, dirs)


def own_distance_gradient(shape, pts):
    """The shape's kind's nearest-point kernel on the shape's own
    parameters: (d, u) at each point (n, 2)."""
    if isinstance(shape, Circle):
        return geometry._disk_distance_gradient(shape.center, shape.radius, pts)
    return geometry._polygon_distance_gradient(shape.corners, shape.edges, pts)


def seeded_volume(volume):
    """`regions._seeded` on a moving volume: (stack, inside, bounding)."""
    return regions._seeded(volume.centers, volume.groups, volume.member,
                           volume.distances, volume.gradients)


def oracle_seed_region(seed, shapes):
    """The box, then shape by shape in order of distance (ties to the
    earlier shape) the row through the shape's nearest point, unless a row
    already kept separates the shape."""
    seed = np.asarray(seed, dtype=float)
    r = regions.BOX_HALF_WIDTH
    rows = [SimpleNamespace(normal=n, offset=float(n @ seed) + r)
            for n in regions._BOX_NORMALS]
    near = []
    for j, s in enumerate(shapes):
        d, u = own_distance_gradient(s, seed[None])
        if d[0] == 0.0:
            raise SeedInsideObstacle("seed inside")
        near.append((float(d[0]), j, -u[0]))
    for d, j, n in sorted(near, key=lambda item: item[:2]):
        if not any(row.offset + float(shapes[j].support(-row.normal))
                   <= BOUNDARY_TOL for row in rows):
            rows.append(SimpleNamespace(normal=n, offset=float(n @ seed) + d))
    return ConvexPolytope(rows)


def oracle_contract(poly, seed, peer, fp, margin):
    rel = seed - peer
    if _fp_contains(fp, rel):
        return poly, False
    margins = poly.normals @ peer - poly.offsets
    supports = np.array([_fp_support(fp, -n) for n in poly.normals])
    if np.any(margins - supports > margin):
        return poly, True
    u = -rel / np.linalg.norm(rel)
    offset = float(u @ peer) - _fp_support(fp, -u) - margin
    # The earlier rows keep their bits; only the new plane is divided by
    # its norm.
    planes = [SimpleNamespace(normal=n, offset=o)
              for n, o in zip(poly.normals, poly.offsets)]
    planes.append(Halfplane(u, offset))
    return ConvexPolytope(planes), True


def oracle_deflate(poly, fp):
    return ConvexPolytope([Halfplane(n, o - _fp_support(fp, n))
                           for n, o in zip(poly.normals, poly.offsets)])


def oracle_empty(poly, probe):
    if poly.contains(probe):
        return False
    res = linprog(c=[0.0, 0.0, -1.0],
                  A_ub=np.hstack([poly.normals, np.ones((len(poly), 1))]),
                  b_ub=poly.offsets, bounds=[(None, None)] * 3,
                  method="highs")
    return not res.success or -res.fun < -1e-9


def oracle_build(volume, tracks, ego, now):
    """[(polytope, static polytope, feasible)] per slice."""
    times = np.array([now + t for t in volume.t_rel])
    paths = [(tr.predict_positions(times),
              footprint_from_size(tr.latest.size or (0.1,))) for tr in tracks]
    out = []
    for k, (t_rel, seed) in enumerate(zip(volume.t_rel, volume.centers)):
        feasible = True
        try:
            poly = oracle_seed_region(seed, slice_shapes(volume, k))
        except SeedInsideObstacle:
            r = regions.BOX_HALF_WIDTH
            poly = ConvexPolytope([
                Halfplane(np.array([1.0, 0.0]), seed[0] + r),
                Halfplane(np.array([-1.0, 0.0]), -seed[0] + r),
                Halfplane(np.array([0.0, 1.0]), seed[1] + r),
                Halfplane(np.array([0.0, -1.0]), -seed[1] + r)])
            feasible = False
        static = poly
        for path, fp in paths:
            poly, ok = oracle_contract(poly, seed, path[k], fp,
                                       regions.PEER_MARGIN)
            feasible = feasible and ok
        poly = oracle_deflate(poly, ego)
        if feasible and oracle_empty(poly, seed):
            feasible = False
        out.append((poly, static, feasible))
    return out


def random_shape_pool(rng, seeds):
    """Circles, squares, triangles and long walls near the seed path."""
    pool = []
    for _ in range(int(rng.integers(6, 14))):
        c = seeds[rng.integers(len(seeds))] + rng.uniform(-3.0, 3.0, size=2)
        kind = rng.integers(4)
        if kind == 0:
            pool.append(Circle(c, float(rng.uniform(0.2, 1.0))))
        elif kind == 1:
            pool.append(axis_square(c, float(rng.uniform(0.3, 1.2))))
        elif kind == 2:
            pool.append(Triangle(c + rng.uniform(-0.8, 0.8, size=(3, 2))))
        else:
            th = rng.uniform(0, np.pi)
            pool.append(oriented_rectangle(c, [np.cos(th), np.sin(th)],
                                           float(rng.uniform(2.0, 6.0)), 0.1))
    # Walls on one line share their supporting planes; a copy of a shape
    # ties with it on every sample.
    y = float(seeds[0, 1] + rng.uniform(1.0, 2.0))
    pool += [axis_rectangle(-8.0, y, -1.0, y + 0.2),
             axis_rectangle(-1.0, y, 6.0, y + 0.2)]
    pool.append(Circle(pool[0].center, pool[0].radius)
                if isinstance(pool[0], Circle) else axis_square(pool[0].center, 0.5))
    return pool


def random_volume(rng, n_slices, tau=0.1, inside_frac=0.1):
    start = rng.uniform(-2.0, 2.0, size=2)
    heading = rng.uniform(0, 2 * np.pi)
    speed = rng.uniform(0.0, 1.5)
    seeds = start + np.outer(tau * np.arange(1, n_slices + 1) * speed,
                             [np.cos(heading), np.sin(heading)])
    pool = random_shape_pool(rng, seeds)
    member = rng.random((n_slices, len(pool))) < 0.7
    for k, seed in enumerate(seeds):
        if rng.random() < inside_frac:
            # A seed inside a shape, or exactly on a circle's rim, where
            # rounding decides; only slice k holds it.
            th = rng.uniform(0, 2 * np.pi)
            rim = Circle(seed + 0.4 * np.array([np.cos(th), np.sin(th)]), 0.4)
            at = int(rng.integers(len(pool) + 1))
            pool.insert(at, rim if rng.random() < 0.5 else Circle(seed, 0.3))
            member = np.insert(member, at, np.arange(n_slices) == k, axis=1)
    return measured_volume(tau * np.arange(1, n_slices + 1), seeds, pool,
                           member)


def random_tracks(rng, volume):
    tracks = []
    seeds = volume.centers
    for _ in range(int(rng.integers(1, 6))):
        size = (0.3,) if rng.random() < 0.5 else (0.1, 0.2, 0.3)
        p0 = seeds[rng.integers(len(seeds))] + rng.uniform(-1.5, 1.5, size=2)
        v = rng.uniform(-1.0, 1.0, size=2)
        states = [PeerState(stamp=-0.2 * i, position=p0 - 0.2 * i * v,
                            velocity=v, acceleration=np.zeros(2), size=size)
                  for i in range(int(rng.integers(1, 4)))]
        tr = PeerTrack(states[0])
        for st in states[1:]:
            tr.push(st)
        tracks.append(tr)
    # A peer sitting on a seed, and a duplicate of a track: the copy meets
    # the first one's cut exactly at its margin.
    tracks.append(TestBuildSafeRegions().track_at(seeds[len(seeds) // 2],
                                                  [0.0, 0.0], size=(0.2,)))
    tracks.append(tracks[0])
    return tracks


def assert_same_regions(region, oracle):
    """Slice by slice, the region's planes, static rows and feasibility
    equal the oracle's."""
    assert len(region.slices) == len(oracle)
    for k, (sl, (poly, static, feasible)) in enumerate(zip(region.slices, oracle)):
        for got, want in ((sl.polytope, poly), (sl.static_polytope, static)):
            assert np.array_equal(got.normals, want.normals), k
            assert np.array_equal(got.offsets, want.offsets), k
        assert sl.feasible == feasible, k


class TestOnePassParity:
    def test_random_volumes_bit_identical(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            first = random_volume(rng, 40)
            tracks = random_tracks(rng, first)
            assert_same_regions(build_safe_regions(first, tracks, ego, 0.0),
                                oracle_build(first, tracks, ego, 0.0))
            second = random_volume(rng, 40, inside_frac=0.3)
            assert_same_regions(build_safe_regions(second, tracks, ego, 0.04),
                                oracle_build(second, tracks, ego, 0.04))

    def test_shapes_no_slice_holds_change_nothing(self):
        # The moving volume keeps every map shape, and one beyond every
        # window has an all-False column: inserting such shapes, one of
        # them over a seed, gives the same bytes and owns no row.
        rng = np.random.default_rng(53)
        stack_fields = ("normals", "offsets", "counts")
        for trial in range(6):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            vol = random_volume(rng, 40, inside_frac=0.2)
            tracks = random_tracks(rng, vol)
            extra = random_shape_pool(rng, vol.centers)[:5]
            extra.append(Circle(vol.centers[rng.integers(40)], 0.3))
            shapes, old = list(vol.shapes), list(range(len(vol.shapes)))
            for s in extra:
                at = int(rng.integers(len(shapes) + 1))
                shapes.insert(at, s)
                old = [j + (j >= at) for j in old]
            member = np.zeros((40, len(shapes)), dtype=bool)
            member[:, old] = vol.member
            wide = measured_volume(vol.t_rel, vol.centers, shapes, member)
            # The circle over a seed measures d = 0 there.
            assert (wide.distances[:, old] == 0.0).sum() < (
                wide.distances == 0.0).sum()
            want = build_safe_regions(vol, tracks, ego, 0.0)
            got = build_safe_regions(wide, tracks, ego, 0.0)
            for name in ("planes", "static"):
                for f in stack_fields:
                    a = getattr(getattr(got, name), f)
                    b = getattr(getattr(want, name), f)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.feasible.tobytes() == want.feasible.tobytes()
            assert np.array_equal(got.bounding[:, old], want.bounding)
            new = np.setdiff1d(np.arange(len(shapes)), old)
            assert not got.bounding[:, new].any()
            assert_same_regions(got, oracle_build(wide, tracks, ego, 0.0))

    def test_large_maps_bit_identical(self):
        # 40-60 shapes, as the unstructured runs' maps grow to, among them
        # six wall pieces end to end on one line, whose rows touch each
        # other's pieces: 40 slices of up to 64 candidate rows make support
        # products of up to 2,560 directions, and the regions equal the
        # per-shape chain's, both deciding with BOUNDARY_TOL.
        rng = np.random.default_rng(59)
        for trial in range(3):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            vol = random_volume(rng, 40)
            y = float(vol.centers[0, 1] - rng.uniform(1.0, 2.0))
            shapes = list(vol.shapes) + [
                axis_rectangle(x, y, x + 2.0, y + 0.2)
                for x in np.arange(-7.0, 5.0, 2.0)]
            while len(shapes) < 48:
                shapes += random_shape_pool(rng, vol.centers)
            shapes = shapes[:60]
            # The added shapes belong to the slices whose seed they leave
            # out, so that most slices seed a region.
            d, _ = distance_gradients(shape_groups(shapes), vol.centers)
            member = (rng.random(d.shape) < 0.9) & (d > 0.0)
            member[:, :len(vol.shapes)] = vol.member
            big = measured_volume(vol.t_rel, vol.centers, shapes, member)
            rows = 40 * (4 + member.sum(axis=1).max())
            assert 40 <= len(shapes) <= 60 and rows >= 1800
            tracks = random_tracks(rng, big)
            assert_same_regions(build_safe_regions(big, tracks, ego, 0.0),
                                oracle_build(big, tracks, ego, 0.0))

    def test_peers_on_footprint_rims(self):
        # Seeds exactly on a peer disk's rim: the covered test must round
        # |rel| as np.linalg.norm does.
        rng = np.random.default_rng(29)
        vol = random_volume(rng, 40, inside_frac=0.0)
        tracks = []
        for seed in vol.centers:
            th = rng.uniform(0, 2 * np.pi)
            tracks.append(TestBuildSafeRegions().track_at(
                seed + 0.3 * np.array([np.cos(th), np.sin(th)]),
                [0.0, 0.0], size=(0.3,)))
        ego = disk(0.2)
        region = build_safe_regions(vol, tracks, ego, 0.0)
        assert_same_regions(region, oracle_build(vol, tracks, ego, 0.0))

    def test_seeds_on_square_diagonals(self):
        # The segment to the center meets a corner, where two edges fit the
        # seed equally well: the first edge wins.
        rng = np.random.default_rng(43)
        for _ in range(20):
            c = rng.uniform(-3, 3, size=2)
            d = rng.uniform(1.0, 3.0)
            for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
                seed = c + d * np.array([sx, sy])
                square = axis_square(c, float(rng.uniform(0.5, 1.5)))
                got = seed_region(seed, [square])
                want = oracle_seed_region(seed, [square])
                assert np.array_equal(got.normals, want.normals)
                assert np.array_equal(got.offsets, want.offsets)

    def test_many_tracks_match_contract_chain(self):
        # build_safe_regions cuts all tracks in one stack; each slice must
        # equal its static polytope cut by contract_for_peer track by track
        # (each step checked against the Halfplane oracle), then deflated.
        # Peer B stands behind peer A, so that on some slices only A's plane
        # separates it; two identical tracks meet each other's plane at the
        # margin, so the copy appends a bit-equal plane, which both keep.
        rng = np.random.default_rng(89)
        make = TestBuildSafeRegions().track_at
        shadowed = repeated = 0
        for trial in range(8):
            vol = random_volume(rng, 30, inside_frac=0.0)
            th = rng.uniform(0, 2 * np.pi)
            d = np.array([np.cos(th), np.sin(th)])
            mid = vol.centers[len(vol.centers) // 2]
            v = rng.uniform(-0.5, 0.5, size=2)
            tracks = [make(mid + 1.2 * d, [0.0, 0.0], size=(0.2,)),
                      make(mid + 2.8 * d, [0.0, 0.0], size=(0.2,)),
                      make(mid - 0.9 * d, v, size=(0.3,)),
                      make(mid - 0.9 * d, v, size=(0.3,)),
                      *random_tracks(rng, vol)]
            assert len(tracks) >= 6
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            now = 0.05
            region = build_safe_regions(vol, tracks, ego, now)
            for k, (t_rel, seed) in enumerate(zip(vol.t_rel, vol.centers)):
                static = region.static.polytope(k)
                poly = static
                feasible = brute_force_free(seed, slice_shapes(vol, k))
                for i, tr in enumerate(tracks):
                    peer = P.polyval(now + t_rel - tr.t_ref, tr.stack[:, 0])
                    fp = footprint_from_size(tr.latest.size)
                    cut, ok = contract_for_peer(poly, seed, peer, fp,
                                                regions.PEER_MARGIN)
                    want, ok_want = oracle_contract(poly, seed, peer, fp,
                                                    regions.PEER_MARGIN)
                    assert ok == ok_want
                    assert np.array_equal(cut.normals, want.normals)
                    assert np.array_equal(cut.offsets, want.offsets)
                    feasible = feasible and ok
                    if i == 1 and cut is poly and ok:
                        alone, _ = contract_for_peer(static, seed, peer, fp,
                                                     regions.PEER_MARGIN)
                        shadowed += alone is not static
                    rows = np.column_stack([cut.normals, cut.offsets])
                    repeated += (cut is not poly
                                 and (rows[:-1] == rows[-1]).all(axis=1).any())
                    poly = cut
                poly = deflate_for_ego(poly, ego)
                got = region.planes.polytope(k)
                assert np.array_equal(got.normals, poly.normals), k
                assert np.array_equal(got.offsets, poly.offsets), k
                if feasible:
                    feasible = not region_is_empty(poly, probe=seed)
                assert region.feasible[k] == feasible, k
        assert shadowed > 0 and repeated > 0

    def test_plane_dots_round_as_each_slice_product(self):
        # The seed probe's batched product must round like each slice's own
        # gemv, whose rounding depends on the row count (and differs from
        # einsum).  Every slice holds at least its 4 box rows, and from 2
        # rows up one product over the padded stack rounds as each slice's.
        rng = np.random.default_rng(37)
        for _ in range(200):
            counts = rng.integers(2, 34, size=int(rng.integers(1, 41)))
            width = int(counts.max() + rng.integers(0, 4))
            th = rng.uniform(0, 2 * np.pi, size=(len(counts), width))
            normals = np.stack([np.cos(th), np.sin(th)], axis=-1)
            normals[np.arange(width) >= counts[:, None]] = np.nan
            points = rng.uniform(-10, 10, size=(len(counts), 2))
            got = np.matmul(normals, points[:, :, None])[..., 0]
            for k, c in enumerate(counts):
                assert np.array_equal(got[k, :c], normals[k, :c] @ points[k])

    def test_stack_products_round_each_row_alike_at_any_column(self):
        # `_peer_cuts` forms every row's product with every peer in one
        # matmul over (tracks, slices) stacks of input rows and track
        # planes, where the chain formed it on stacks of other widths, at
        # other columns.  From 2 rows up, each row rounds as it does at
        # column 0 of a stack of two, whatever rows or NaN padding sit
        # beside it.
        rng = np.random.default_rng(41)
        for _ in range(100):
            K, W, T = (int(rng.integers(1, 12)), int(rng.integers(2, 40)),
                       int(rng.integers(1, 9)))
            th = rng.uniform(0, 2 * np.pi, size=(K, W))
            normals = (rng.uniform(0.2, 5.0, size=(K, W, 1))
                       * np.stack([np.cos(th), np.sin(th)], axis=-1))
            live = np.arange(W) < rng.integers(1, W + 1, size=K)[:, None]
            normals[~live] = np.nan
            peers = rng.uniform(-10.0, 10.0, size=(T, K, 2))
            got = np.matmul(normals, peers[..., None])[..., 0]
            for t, k, r in zip(*np.nonzero(np.broadcast_to(live, got.shape))):
                pair = np.stack([normals[k, r], normals[k, r]])
                assert (got[t, k, r].tobytes()
                        == (pair @ peers[t, k])[0].tobytes())

    def test_single_slice_api_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            vol = random_volume(rng, 8, inside_frac=0.0)
            tracks = random_tracks(rng, vol)
            for k, (t_rel, seed) in enumerate(zip(vol.t_rel, vol.centers)):
                shapes = slice_shapes(vol, k)
                try:
                    want = oracle_seed_region(seed, shapes)
                except SeedInsideObstacle:
                    with pytest.raises(SeedInsideObstacle):
                        seed_region(seed, shapes)
                    continue
                got = seed_region(seed, shapes)
                for tr in tracks:
                    peer = tr.predict_positions(np.array([t_rel]))[0]
                    fp = footprint_from_size(tr.latest.size)
                    want, ok_want = oracle_contract(want, seed, peer, fp,
                                                    regions.PEER_MARGIN)
                    got, ok = contract_for_peer(got, seed, peer, fp,
                                                regions.PEER_MARGIN)
                    assert ok == ok_want
                    assert np.array_equal(got.normals, want.normals)
                    assert np.array_equal(got.offsets, want.offsets)
                for fp in (disk(0.2), origin_square(0.2)):
                    a, b = deflate_for_ego(got, fp), oracle_deflate(want, fp)
                    assert np.array_equal(a.normals, b.normals)
                    assert np.array_equal(a.offsets, b.offsets)
                    assert (region_is_empty(a, probe=seed)
                            == oracle_empty(b, seed))


class TestSliceViews:
    """`SafeRegion.slices` is what the benchmark tracer reads per slice
    (plane count and feasibility): each view holds its slice's live rows of
    the stacks, so the tracer's plane and infeasible-slice metrics count
    the stacks themselves."""

    def test_views_are_the_stacks_live_rows(self):
        rng = np.random.default_rng(19)
        views = infeasible = 0
        for trial in range(4):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            first = random_volume(rng, 30)
            tracks = random_tracks(rng, first)
            for r in (build_safe_regions(first, tracks, ego, 0.0),
                      build_safe_regions(random_volume(rng, 30, inside_frac=0.3),
                                         tracks, ego, 0.04)):
                assert len(r.slices) == len(r.t_rel)
                for k, sl in enumerate(r.slices):
                    assert len(sl.polytope) == r.planes.counts[k]
                    assert sl.feasible == r.feasible[k]
                    for view, stack in ((sl.polytope, r.planes),
                                        (sl.static_polytope, r.static)):
                        c = stack.counts[k]
                        assert view.normals.tobytes() == stack.normals[k, :c].tobytes()
                        assert view.offsets.tobytes() == stack.offsets[k, :c].tobytes()
                    views += 1
                    infeasible += not sl.feasible
        assert views == 8 * 30
        assert 0 < infeasible < views


def random_mixed_shapes(rng, n):
    """n shapes around the origin: circles, triangles, squares, thin walls
    and pentagons, in random order."""
    shapes = []
    for _ in range(n):
        c = rng.uniform(-4.0, 4.0, size=2)
        kind = rng.integers(5)
        if kind == 0:
            shapes.append(Circle(c, float(rng.uniform(0.1, 1.5))))
        elif kind == 1:
            shapes.append(Triangle(c + rng.uniform(-1.0, 1.0, size=(3, 2))))
        elif kind == 2:
            shapes.append(axis_square(c, float(rng.uniform(0.2, 2.0))))
        elif kind == 3:
            th = rng.uniform(0, np.pi)
            shapes.append(oriented_rectangle(c, [np.cos(th), np.sin(th)],
                                             float(rng.uniform(0.5, 4.0)), 0.1))
        else:
            th = np.sort(rng.uniform(0, 2 * np.pi, size=5))
            r = float(rng.uniform(0.3, 1.5))
            shapes.append(ConvexPolygonShape(
                c + r * np.stack([np.cos(th), np.sin(th)], axis=1)))
    return shapes


class TestGroupedKernels:
    """Every grouped kernel gives each shape its own result, bit for bit,
    whatever the other shapes of its group."""

    def groups(self, rng):
        for trial in range(40):
            # Small lists make groups of one.
            n = int(rng.integers(1, 4 if trial % 2 else 12))
            shapes = random_mixed_shapes(rng, n)
            groups = shape_groups(shapes)
            assert sorted(np.concatenate([g.index for g in groups])) == list(range(n))
            yield shapes, groups

    def test_crossings(self):
        rng = np.random.default_rng(61)
        crossed_rows = 0
        for shapes, groups in self.groups(rng):
            for g in groups:
                j = rng.integers(len(g), size=200)
                own = [shapes[i] for i in g.index[j]]
                centers = np.array([s.center for s in own])
                pts = centers + rng.uniform(-3.0, 3.0, size=(200, 2))
                # Rays from each point toward its shape's center.
                d = centers - pts
                dirs = d / np.linalg.norm(d, axis=1)[:, None]
                t = g.ray_distances(j, pts, dirs)
                for i, s in enumerate(own):
                    want = own_ray_distances(s, pts[i:i + 1], dirs[i:i + 1])
                    assert t[i].tobytes() == want[0].tobytes()
                crossed_rows += int(np.isfinite(t).sum())
        assert crossed_rows > 2000

    def test_supporting_planes(self):
        # Slices that each hold one shape: every slice whose seed is
        # outside its shape gets the shape's own nearest-point row after
        # the box, bit for bit, the row touches the shape, and the record
        # says that the shape bounds the slice.
        rng = np.random.default_rng(62)
        planes = 0
        for shapes, groups in self.groups(rng):
            j = rng.integers(len(shapes), size=60)
            seeds = (np.array([shapes[i].center for i in j])
                     + rng.uniform(-4.0, 4.0, size=(60, 2)))
            member = np.arange(len(shapes)) == j[:, None]
            d, u = distance_gradients(groups, seeds)
            stack, inside, bounding = regions._seeded(seeds, groups, member,
                                                      d, u)
            for k, (seed, i) in enumerate(zip(seeds, j)):
                own_d, own_u = own_distance_gradient(shapes[i], seed[None])
                assert inside[k] == (own_d[0] == 0.0)
                assert (bounding[k] == (member[k] & ~inside[k])).all()
                if inside[k]:
                    assert stack.counts[k] == 4
                    continue
                assert stack.counts[k] == 5
                n, o = stack.normals[k, 4], stack.offsets[k, 4]
                assert n.tobytes() == (-own_u[0]).tobytes()
                assert o == float(n @ seed) + own_d[0]
                assert abs(o + shapes[i].support(-n)) <= 1e-12 * (1 + abs(o))
                planes += 1
        assert planes > 1500


class TestNearestPointPlanes:
    """The property the regions are built for: a slice's static rows keep
    out every shape it holds, and no row is spent on a shape an earlier row
    already keeps out."""

    def test_every_member_shape_is_kept_out(self):
        rng = np.random.default_rng(65)
        checked = inside = 0
        for trial in range(40):
            volume = random_volume(rng, int(rng.integers(1, 30)),
                                   inside_frac=0.2)
            region = build_safe_regions(volume, [], disk(0.2), 0.0)
            for k, seed in enumerate(volume.centers):
                shapes = slice_shapes(volume, k)
                static = region.static.polytope(k)
                if any(own_distance_gradient(s, seed[None])[0][0] == 0.0
                       for s in shapes):
                    inside += 1
                    continue
                for s in shapes:
                    gap = static.offsets + s.support(-static.normals)
                    assert gap.min() <= 1e-9, (trial, k, s)
                    checked += 1
        assert checked > 2000 and inside > 20

    def test_no_row_for_a_shape_already_kept_out(self):
        rng = np.random.default_rng(66)
        rows = skipped = 0
        for trial in range(40):
            volume = random_volume(rng, int(rng.integers(1, 30)),
                                   inside_frac=0.2)
            stack, inside, bounding = seeded_volume(volume)
            for k, seed in enumerate(volume.centers):
                if inside[k]:
                    assert not bounding[k].any()
                    continue
                held = np.flatnonzero(volume.member[k])
                d = volume.distances[k, held]
                held = held[np.lexsort((held, d))]
                static = stack.polytope(k)
                kept = 4
                for j in held:
                    n = -volume.gradients[k, j]
                    o = float(n @ seed) + volume.distances[k, j]
                    shape = volume.shapes[j]
                    # The rows kept so far, box first; a row is spent on
                    # the shape exactly when none of them keeps it out.
                    gaps = (static.offsets[:kept]
                            + shape.support(-static.normals[:kept]))
                    assert bounding[k, j] == (gaps > BOUNDARY_TOL).all()
                    if (gaps <= BOUNDARY_TOL).any():
                        skipped += 1
                        continue
                    assert static.normals[kept].tobytes() == n.tobytes()
                    assert static.offsets[kept] == o
                    kept += 1
                rows += kept - 4
                assert kept == len(static)
                assert bounding[k].sum() == kept - 4
        assert rows > 500 and skipped > 500

    def test_identical_shapes_give_one_row(self):
        # Two bit-identical shapes held by one slice have equal candidate
        # rows; the first one's row meets the copy at gap 0, so the copy
        # gets no row and its bounding column stays False.
        rng = np.random.default_rng(67)
        for trial in range(40):
            c = rng.uniform(-2.0, 2.0, size=2)
            first, copy = [Circle(c, 0.4) if trial % 2 else axis_square(c, 0.8)
                           for _ in range(2)]
            seed = c + rng.uniform(1.0, 3.0) * np.array(
                [np.cos(trial), np.sin(trial)])
            volume = volume_of([seed], [[first, copy]], 0.1)
            stack, inside, bounding = seeded_volume(volume)
            assert not inside[0]
            assert bounding[0].tolist() == [True, False]
            static = stack.polytope(0)
            assert len(static) == 5
            assert static.normals[4].tobytes() == (
                -volume.gradients[0, 0]).tobytes()


def row_owners(volume, region):
    """The columns that own a static row of some slice, found slice by
    slice as the seeding defines them: outside every shape it holds, a
    slice walks them in order of distance (ties to the lower index), and a
    shape owns a row when none of the box rows and owned rows before it
    keeps it out (o + support(-n) <= BOUNDARY_TOL)."""
    owners = set()
    for k, seed in enumerate(volume.centers):
        held = np.flatnonzero(volume.member[k])
        d = volume.distances[k, held]
        if (d == 0.0).any():
            continue
        rows = [(m, float(m @ seed) + regions.BOX_HALF_WIDTH)
                for m in regions._BOX_NORMALS]
        for j in held[np.lexsort((held, d))]:
            shape = volume.shapes[j]
            if all(o + shape.support(-n[None])[0] > BOUNDARY_TOL
                   for n, o in rows):
                n = -volume.gradients[k, j]
                rows.append((n, float(n @ seed) + volume.distances[k, j]))
                owners.add(int(j))
    return sorted(owners)


class TestAdmission:
    """The obstacle cost admits exactly the shapes that bound a slice of
    the cycle's regions: the seeding's record, with no test of its own."""

    def test_admits_the_shapes_that_own_a_row(self):
        # Seeds inside a shape bound nothing, so shapes that only such
        # slices hold are left out.
        rng = np.random.default_rng(67)
        offered = admitted = inside = 0
        for trial in range(30):
            n = int(rng.integers(1, 30))
            volume = random_volume(rng, n, inside_frac=0.3)
            region = build_safe_regions(volume, random_tracks(rng, volume),
                                        disk(0.2), 0.04)
            got = admit_obstacles(volume.shapes, region)
            assert got == row_owners(volume, region), trial
            assert all(type(j) is int for j in got)
            offered += len(volume.shapes)
            admitted += len(got)
            inside += seeded_volume(volume)[1].sum()
        assert 0.3 * offered < admitted < 0.9 * offered
        assert inside > 20

    def test_hidden_shapes_are_not_admitted(self):
        # A wall between the path and a disk keeps the disk out of every
        # slice, so the disk owns no row and the cost never sees it; the
        # disk beside the path and the wall are admitted.
        seeds = np.column_stack([np.linspace(0.0, 4.0, 40), np.zeros(40)])
        wall = axis_rectangle(-8.0, 1.0, 12.0, 1.2)
        hidden = Circle([2.0, 3.0], 0.5)
        beside = Circle([1.0, -1.0], 0.3)
        volume = volume_of(seeds, [[hidden, wall, beside]] * 40, 0.1)
        region = build_safe_regions(volume, [], disk(0.2), 0.0)
        assert admit_obstacles(volume.shapes, region) == [1, 2]
        # Over random volumes, a held shape left out is kept out by a row
        # of every slice that holds it, unless the slice's seed is inside.
        rng = np.random.default_rng(68)
        left_out = 0
        for trial in range(30):
            volume = random_volume(rng, int(rng.integers(1, 30)),
                                   inside_frac=0.2)
            region = build_safe_regions(volume, [], disk(0.2), 0.0)
            got = admit_obstacles(volume.shapes, region)
            for j in sorted(set(range(len(volume.shapes))) - set(got)):
                for k in np.flatnonzero(volume.member[:, j]):
                    if (volume.distances[k, volume.member[k]] == 0.0).any():
                        continue
                    static = region.static.polytope(k)
                    shape = volume.shapes[j]
                    gaps = static.offsets + shape.support(-static.normals)
                    assert gaps.min() <= BOUNDARY_TOL
                    left_out += 1
        assert left_out > 200

    def test_a_disk_its_own_row_touches_is_admitted(self):
        # A disk's own row touches it: its gap o + support(-n) is zero up
        # to rounding, below zero for some disks (the first one on some
        # cores) and not for others.  The seeding keeps the row, so every
        # disk bounds its slice and is admitted.  A test of every row
        # against every shape with `>= 0` rejected those below zero.
        rng = np.random.default_rng(69)
        n = 200
        seeds = np.vstack([[-1.3, 1.45], rng.uniform(-3.0, 3.0, (n - 1, 2))])
        th = rng.uniform(0.0, 2 * np.pi, size=n - 1)
        radii = rng.uniform(0.1, 1.0, size=n - 1)
        ahead = (radii + rng.uniform(0.1, 2.0, size=n - 1))[:, None]
        centers = seeds[1:] + ahead * np.column_stack([np.cos(th), np.sin(th)])
        disks = [Circle([-1.05, 0.25], 0.54)] + [
            Circle(c, r) for c, r in zip(centers, radii)]
        below = 0
        for k, (seed, shape) in enumerate(zip(seeds, disks)):
            volume = volume_of([seed], [[shape]], 0.1)
            region = build_safe_regions(volume, [], disk(0.2), 0.0)
            static = region.static.polytope(0)
            gaps = static.offsets + shape.support(-static.normals)
            assert len(static) == 5 and abs(gaps[4]) <= BOUNDARY_TOL, k
            assert gaps[:4].min() > 1.0
            assert admit_obstacles(volume.shapes, region) == [0], k
            below += gaps[4] < 0.0
        assert 0 < below < n


class TestEmptinessAgainstLP:
    """The exact 2D test against HiGHS on the Chebyshev LP."""

    @staticmethod
    def lp_radius(poly):
        res = linprog(c=[0.0, 0.0, -1.0],
                      A_ub=np.hstack([poly.normals, np.ones((len(poly), 1))]),
                      b_ub=poly.offsets, bounds=[(None, None)] * 3,
                      method="highs")
        assert res.success or res.status == 3  # 3: unbounded
        return -res.fun if res.success else np.inf

    def polytopes(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            th = rng.uniform(0, 2 * np.pi, size=n)
            planes = [Halfplane(np.array([np.cos(a), np.sin(a)]),
                                float(rng.uniform(-1.0, 2.0))) for a in th]
            yield ConvexPolytope(planes)
        # Degenerate: boxes shrunk past empty, slabs, contradictory and
        # touching parallel pairs, repeated normals, thin wedges.
        for half in (1.0, 1e-3, 0.0, -1e-3, -1.0):
            yield box_polytope(half)
        for o in (1.0, 0.0, -1e-12, -1.0):
            yield ConvexPolytope([Halfplane(np.array([1.0, 0.0]), o),
                                  Halfplane(np.array([-1.0, 0.0]), o)])
        yield ConvexPolytope([Halfplane(np.array([0.0, 1.0]), 1.0)])
        yield ConvexPolytope([Halfplane(np.array([1.0, 0.0]), 1.0),
                              Halfplane(np.array([1.0, 0.0]), 2.0),
                              Halfplane(np.array([-1.0, 0.0]), -0.5),
                              Halfplane(np.array([0.0, 1.0]), 0.3),
                              Halfplane(np.array([0.0, -1.0]), 0.3)])
        for eps in (1e-3, 1e-6):
            yield ConvexPolytope([Halfplane(np.array([np.cos(eps), np.sin(eps)]), 1.0),
                                  Halfplane(np.array([np.cos(eps), -np.sin(eps)]), 1.0),
                                  Halfplane(np.array([-1.0, 0.0]), 5.0)])

    def test_agrees_with_highs(self):
        rng = np.random.default_rng(31)
        checked = empty = 0
        for poly in self.polytopes(rng):
            r = self.lp_radius(poly)
            if abs(r + 1e-9) < 1e-7:
                continue  # within HiGHS's own tolerance of the threshold
            # Unbounded sets count as empty, as the failed LP did.
            want = r < -1e-9 or r == np.inf
            assert region_is_empty(poly) == want, poly.normals
            checked += 1
            empty += want
        assert checked > 250 and 20 < empty < checked - 20


# --- the peer cut against the track-by-track chain -----------------------------
#
# `old_peer_cuts` is the track-by-track chain that `regions._peer_cuts`
# replaced: every track runs the whole chain over the whole stack, testing
# its gaps on the rows that the earlier tracks left and writing its plane
# after them.  The one-pass cut must equal it bit for bit, counts and
# repeated planes included.

def footprint_groups(footprints):
    """The (footprint, track indices) groups of a per-track footprint list,
    one per distinct object, as `_peer_cuts` takes them."""
    groups = {}
    for t, fp in enumerate(footprints):
        groups.setdefault(id(fp), (fp, []))[1].append(t)
    return list(groups.values())


def track_footprints(groups, n_tracks):
    """The per-track footprint list of `_peer_cuts`' groups."""
    footprints = [None] * n_tracks
    for fp, ts in groups:
        for t in np.arange(n_tracks)[ts]:
            footprints[t] = fp
    return footprints


def old_peer_cuts(stack, seeds, peers, groups, margin):
    """`contract_for_peer` on every slice by each track t in turn, at
    peers[t] (tracks, slices, 2), grouped by footprint as `_peer_cuts`
    takes them: (stack, seed covered by no track).  The input stack comes
    back when nothing is cut; else the rows as every track left them, as
    wide as the largest count."""
    footprints = track_footprints(groups, len(peers))
    width = stack.offsets.shape[1] + len(footprints)
    normals = np.full((len(seeds), width, 2), np.nan)
    offsets = np.full((len(seeds), width), np.nan)
    normals[:, :stack.offsets.shape[1]] = stack.normals
    offsets[:, :stack.offsets.shape[1]] = stack.offsets
    counts = stack.counts.copy()
    free = np.ones(len(seeds), dtype=bool)
    for peer, footprint in zip(peers, footprints):
        rel = seeds - peer
        clear = ~footprint.contains(rel)
        free &= clear
        gap = (np.matmul(normals, peer[:, :, None])[..., 0] - offsets
               - footprint.support(-normals))
        ks = np.flatnonzero(clear & ~np.any(gap > margin, axis=1))
        if len(ks) == 0:
            continue
        r = rel[ks]
        u = -r / np.sqrt(np.vecdot(r, r))[:, None]
        offset = np.vecdot(u, peer[ks]) - footprint.support(-u) - margin
        at = (ks, counts[ks])
        normals[at], offsets[at] = unit_rows(u, offset)
        counts[ks] += 1
    if np.array_equal(counts, stack.counts):
        return stack, free
    width = counts.max()
    return PlaneStack(normals[:, :width], offsets[:, :width], counts), free


def random_stack(rng, seeds, max_rows=10):
    """A stack about the seeds: per slice the 4 box rows at BOX_HALF_WIDTH,
    shuffled among rows divided by their norm (some of which a second
    division moves) and copies of earlier rows; NaN padding past each
    count."""
    K = len(seeds)
    counts = rng.integers(4, max_rows, K)
    width = int(counts.max())
    normals = np.full((K, width, 2), np.nan)
    offsets = np.full((K, width), np.nan)
    r = regions.BOX_HALF_WIDTH
    for k, (seed, c) in enumerate(zip(seeds, counts)):
        th = rng.uniform(0, 2 * np.pi, size=c)
        n = (rng.uniform(0.2, 5.0, size=c)[:, None]
             * np.stack([np.cos(th), np.sin(th)], axis=1))
        o = n @ seed + rng.uniform(0.3, 3.0, size=c) * np.hypot(*n.T)
        box = rng.choice(c, 4, replace=False)
        n[box] = regions._BOX_NORMALS
        o[box] = regions._BOX_NORMALS @ seed + r
        if c >= 6 and rng.random() < 0.3:
            n[-1], o[-1] = n[0], o[0]
        normals[k, :c], offsets[k, :c] = unit_rows(n, o)
    return PlaneStack(normals, offsets, counts)


def random_peers(rng, seeds, n_tracks):
    """Peer paths (tracks, slices, 2): far beyond the box at some slices,
    near the seed at others, on it at a few; some tracks repeat an
    earlier one."""
    peers = []
    for _ in range(n_tracks):
        if peers and rng.random() < 0.2:
            peers.append(peers[int(rng.integers(len(peers)))])
            continue
        th = rng.uniform(0, 2 * np.pi, size=len(seeds))
        d = np.where(rng.random(len(seeds)) < 0.4,
                     rng.uniform(5.5, 9.0, len(seeds)),
                     rng.uniform(0.2, 3.0, len(seeds)))
        d[rng.random(len(seeds)) < 0.05] = 0.0
        peers.append(seeds + d[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                   axis=1))
    return np.array(peers).reshape(n_tracks, len(seeds), 2)


def random_footprints(rng, n_tracks):
    """Circles and squares of a few sizes, one shared object per size, as
    `build_safe_regions` passes them, with now and then a private copy of
    one; grouped by object, as `_peer_cuts` takes them."""
    sizes = [(0.1,), (0.3,), (0.2, 0.5), (0.1, 0.2, 0.3), (0.05, 0.1, 0.4)]
    shared = {size: footprint_from_size(size) for size in sizes}
    fps = []
    for _ in range(n_tracks):
        size = sizes[int(rng.integers(len(sizes)))]
        fps.append(footprint_from_size(size) if rng.random() < 0.2
                   else shared[size])
    return footprint_groups(fps)


def assert_same_cut(stack, got, want):
    (a, free_a), (b, free_b) = got, want
    assert (a is stack) == (b is stack)
    assert free_a.tobytes() == free_b.tobytes()
    assert np.array_equal(a.counts, b.counts)
    assert a.normals.shape == b.normals.shape
    assert a.normals.tobytes() == b.normals.tobytes()
    assert a.offsets.tobytes() == b.offsets.tobytes()


class TestPeerCutParity:
    def test_random_stacks_match_the_chain(self):
        rng = np.random.default_rng(53)
        cut = 0
        for _ in range(300):
            K = int(rng.integers(1, 30))
            seeds = rng.uniform(-4.0, 4.0, size=(K, 2))
            stack = random_stack(rng, seeds)
            T = int(rng.integers(1, 9))
            peers = random_peers(rng, seeds, T)
            fps = random_footprints(rng, T)
            got = regions._peer_cuts(stack, seeds, peers, fps,
                                     regions.PEER_MARGIN)
            assert_same_cut(stack, got, old_peer_cuts(
                stack, seeds, peers, fps, regions.PEER_MARGIN))
            cut += got[0] is not stack
        assert cut > 200

    def test_peers_held_at_some_slices_only(self):
        # A peer beyond a box row at every other slice cuts the others, and
        # a peer beyond the box everywhere cuts nothing.
        rng = np.random.default_rng(59)
        for _ in range(50):
            K = 20
            seeds = rng.uniform(-2.0, 2.0, size=(K, 2))
            stack = random_stack(rng, seeds)
            th = rng.uniform(0, 2 * np.pi)
            out = np.array([np.cos(th), np.sin(th)])
            near = seeds + rng.uniform(0.3, 1.5) * out
            far = seeds + 7.0 * out
            alternating = np.where((np.arange(K) % 2 == 0)[:, None], far, near)
            peers = np.stack([far, alternating, near, far])
            fps = [(footprint_from_size((0.3,)), [0, 1]),
                   (footprint_from_size((0.1, 0.2, 0.3)), [2, 3])]
            got = regions._peer_cuts(stack, seeds, peers, fps,
                                     regions.PEER_MARGIN)
            assert_same_cut(stack, got, old_peer_cuts(
                stack, seeds, peers, fps, regions.PEER_MARGIN))

    def test_covered_seeds_and_one_cut_slice(self):
        # One track covers some seeds; another is beyond the box at all
        # slices but one, so it cuts that slice alone.
        rng = np.random.default_rng(61)
        cut_one = 0
        for trial in range(40):
            K = 12
            seeds = rng.uniform(-2.0, 2.0, size=(K, 2))
            stack = random_stack(rng, seeds)
            th = rng.uniform(0, 2 * np.pi, size=K)
            ring = np.stack([np.cos(th), np.sin(th)], axis=1)
            covering = seeds + np.where((rng.random(K) < 0.5)[:, None],
                                        0.1 * ring, 2.0 * ring)
            lone = seeds + 8.0 * ring
            k = int(rng.integers(K))
            lone[k] = seeds[k] + 0.6 * ring[k]
            size = (0.3,) if trial % 2 else (0.1, 0.2, 0.3)
            fp = footprint_from_size(size)
            fps = [(fp, [0, 1])]
            peers = np.stack([covering, lone])
            got = regions._peer_cuts(stack, seeds, peers, fps,
                                     regions.PEER_MARGIN)
            assert_same_cut(stack, got, old_peer_cuts(
                stack, seeds, peers, fps, regions.PEER_MARGIN))
            assert not got[1].all()
            alone = regions._peer_cuts(stack, seeds, peers[1:], [(fp, [0])],
                                       regions.PEER_MARGIN)[0]
            cut_one += int((alone.counts > stack.counts).sum()) == 1
        assert cut_one > 20

    def test_cuts_leave_earlier_rows_and_planes_in_force(self):
        # A cut appends its plane and leaves every earlier row's bytes
        # alone, rows that a second division by their norm would move
        # included.  Peer B stands behind peer A, inside the box: where A's
        # plane alone keeps B out, B adds nothing, though alone it cuts.
        rng = np.random.default_rng(73)
        fp = footprint_from_size((0.2,))
        moved = shadowed = 0
        for _ in range(100):
            K = 10
            seeds = rng.uniform(-2.0, 2.0, size=(K, 2))
            stack = random_stack(rng, seeds)
            th = rng.uniform(0, 2 * np.pi, size=K)
            d = np.stack([np.cos(th), np.sin(th)], axis=1)
            peers = np.stack([seeds + 1.2 * d, seeds + 2.8 * d])
            got = regions._peer_cuts(stack, seeds, peers, [(fp, [0, 1])],
                                     regions.PEER_MARGIN)
            assert_same_cut(stack, got, old_peer_cuts(
                stack, seeds, peers, [(fp, [0, 1])], regions.PEER_MARGIN))
            out = got[0]
            a, b = (regions._peer_cuts(stack, seeds, peers[[t]], [(fp, [0])],
                                       regions.PEER_MARGIN)[0]
                    for t in (0, 1))
            for k, c in enumerate(stack.counts):
                rows = (stack.normals[k, :c], stack.offsets[k, :c])
                assert out.normals[k, :c].tobytes() == rows[0].tobytes()
                assert out.offsets[k, :c].tobytes() == rows[1].tobytes()
                if out.counts[k] == c:
                    continue
                moved += any(x.tobytes() != y.tobytes()
                             for x, y in zip(unit_rows(*rows), rows))
                if out.counts[k] == a.counts[k] == b.counts[k] == c + 1:
                    assert (out.normals[k, c].tobytes()
                            == a.normals[k, c].tobytes())
                    shadowed += 1
        assert moved > 20 and shadowed > 20

    def test_build_with_inside_seeds_matches_the_chain(self, monkeypatch):
        # Slices seeded inside a shape hold the box alone, so their stacks
        # are narrower than their neighbours'.
        rng = np.random.default_rng(67)
        for trial in range(4):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            first = random_volume(rng, 40)
            tracks = random_tracks(rng, first)
            second = random_volume(rng, 40, inside_frac=0.3)
            got = []
            for cuts in (regions._peer_cuts, old_peer_cuts):
                monkeypatch.setattr(regions, "_peer_cuts", cuts)
                got.append(build_safe_regions(second, tracks, ego, 0.04))
            a, b = got
            assert a.feasible.tobytes() == b.feasible.tobytes()
            for x, y in ((a.planes, b.planes), (a.static, b.static)):
                for u, v in zip(x, y):
                    assert u.shape == v.shape and u.tobytes() == v.tobytes()


class TestRegionMemos:
    def test_peer_footprints_shared_per_size(self, monkeypatch):
        # One footprint per broadcast size per call, with the indices of
        # every track of that size, so `_peer_cuts` takes each in one pass.
        seen = []

        def spy(stack, seeds, peers, groups, margin):
            seen.append(groups)
            return peer_cuts(stack, seeds, peers, groups, margin)

        peer_cuts = regions._peer_cuts
        monkeypatch.setattr(regions, "_peer_cuts", spy)
        rng = np.random.default_rng(79)
        for _ in range(5):
            vol = random_volume(rng, 20)
            tracks = random_tracks(rng, vol)
            build_safe_regions(vol, tracks, disk(0.2), 0.0)
            groups = seen[-1]
            sizes = [tuple(tr.latest.size) for tr in tracks]
            assert sorted(t for _, ts in groups for t in ts) == list(
                range(len(tracks)))
            assert len(groups) == len(set(sizes)) > 1
            for fp, ts in groups:
                assert len({sizes[t] for t in ts}) == 1
                want = footprint_from_size(sizes[ts[0]])
                assert type(fp) is type(want)
                assert fp.size_scale == want.size_scale
        assert len(seen) == 5

    def test_index_tables_equal_the_inline_construction(self):
        regions._index_tables.cache_clear()
        for width in range(0, 24):
            a, b, i, j, k = regions._index_tables(width)
            rows = np.arange(width)
            wa, wb = np.triu_indices(width, 1)
            wi, wj, wk = np.nonzero((rows[:, None, None] < rows[None, :, None])
                                    & (rows[None, :, None] < rows[None, None, :]))
            for got, want in zip((a, b, i, j, k), (wa, wb, wi, wj, wk)):
                assert np.array_equal(got, want) and got.dtype == want.dtype
                assert not got.flags.writeable
            assert regions._index_tables(width)[0] is a

    def test_cold_and_warm_memos_agree(self):
        rng = np.random.default_rng(71)
        cases = []
        for trial in range(3):
            ego = disk(0.2) if trial % 2 else origin_square(0.15)
            vol = random_volume(rng, 30)
            cases.append((vol, random_tracks(rng, vol), ego))
        runs = []
        for _ in range(2):
            regions._index_tables.cache_clear()
            runs.append([build_safe_regions(v, t, e, 0.0) for v, t, e in cases])
            runs.append([build_safe_regions(v, t, e, 0.0) for v, t, e in cases])
        assert regions._index_tables.cache_info().hits > 0
        for region in runs[1:]:
            for a, b in zip(region, runs[0]):
                assert a.feasible.tobytes() == b.feasible.tobytes()
                for u, v in zip(a.planes, b.planes):
                    assert u.tobytes() == v.tobytes()
