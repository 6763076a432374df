"""Per-agent receding-horizon loop and the timestamped message bus.

Each agent runs the same ordered cycle at the planning rate: read its own
state from its executed path, process any finished LiDAR sweep into staged
shapes, fold previously staged shapes into the local map and rebuild the
moving obstacle volume along the old plan, drain peer broadcasts into
anonymous tracks, grow/contract/deflate the safe regions, replan with the
fallback ladder, and commit the result.  Shape staging (stage 2) and map
folding (stage 3) touch disjoint state so their order within a cycle does
not change the outcome.

`AgentSpec` is the one description of a robot, from scenario to agent:
its task (start, goal, goal time, end velocity, waypoints, heading) and
what tells robots apart (dynamics order, footprint, limits).

Agents never see each other directly: coordination happens only through
`MessageBus`, which delivers anonymous kinematic payloads with configurable
latency and drop probability, deterministically for a given seed.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .bspline import _grid_basis, plan_knot_layout
from .geometry import footprint_from_size
from .perception import (LocalMap, build_moving_volume, classify_cluster,
                         compensate_motion, decompose_boundary, segment_scan)
from .planner import (HORIZON, KNOT_SEGMENT, TAU, PlanReport, PlanRequest,
                      constant_spline, plan_with_fallback)
from .prediction import PeerState, update_tracks
from .regions import admit_obstacles, build_safe_regions

__all__ = [
    "AgentSpec", "Agent", "BusMessage", "MessageBus", "CycleReport",
    "ExecutedPath", "broadcast", "symmetric_limits",
]


def symmetric_limits(bounds):
    """Parse {order: bound} into {order: (lo, hi)} boxes of float arrays.

    A scalar b becomes ((-b, -b), (b, b)); a (lo, hi) pair is taken as
    given, so mixed forms are fine.  An order may be a string of digits.
    Every box must be finite and hold rest, lo < 0 < hi on both axes;
    any other box raises ValueError.  An unbounded order is left out.
    """
    out = {}
    for order, b in bounds.items():
        if np.isscalar(b):
            b = float(b)
            lo, hi = np.array([-b, -b]), np.array([b, b])
        else:
            lo, hi = (np.asarray(v, dtype=float) for v in b)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"limits of order {order} must be finite, got "
                             f"{lo.tolist()}, {hi.tolist()}; leave an "
                             "unbounded order out")
        if not (np.all(lo < 0.0) and np.all(hi > 0.0)):
            raise ValueError(f"limits of order {order} must satisfy "
                             f"lo < 0 < hi, got {lo.tolist()}, {hi.tolist()}")
        out[int(order)] = (lo, hi)
    return out


@dataclass(kw_only=True)
class AgentSpec:
    """One robot: its task, and what tells robots apart (dynamics order,
    body size and limits).

    The task is given in full: start, goal and goal time are required, and
    each waypoint is a (time, point) pair.
    Every robot replans at the same `plan_rate` (cycles per second).
    """

    start: object
    goal: object
    heading: float = 0.0
    order: int = 2
    footprint: tuple = (0.3,)
    goal_time: float
    end_velocity: object = None
    waypoints: list = field(default_factory=list)   # (time, point)
    limits: dict = field(default_factory=lambda: {1: 2.0, 2: 4.0})
    plan_rate = 25.0

    def __post_init__(self):
        if not float(self.order).is_integer() or self.order < 1:
            raise ValueError("integrator order must be an integer of at "
                             f"least 1, got {self.order!r}")
        self.order = int(self.order)
        footprint_from_size(self.footprint)     # 1..3 positive lengths
        self.footprint = tuple(float(v) for v in self.footprint)
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        if self.end_velocity is not None:
            self.end_velocity = np.asarray(self.end_velocity, dtype=float)
        self.goal_time = float(self.goal_time)
        self.waypoints = [(float(t), np.asarray(p, dtype=float))
                          for t, p in self.waypoints]
        points = [self.start, self.goal, self.heading, self.end_velocity,
                  *(p for _, p in self.waypoints)]
        if not all(np.isfinite(p).all() for p in points if p is not None):
            raise ValueError("start, goal, heading, end velocity and "
                             "waypoints must be finite")
        times = [self.goal_time, *(t for t, _ in self.waypoints)]
        if not all(0.0 < t < np.inf for t in times):
            raise ValueError("goal time and waypoint times must be finite "
                             f"and positive, got {times}")
        self.limits = symmetric_limits(self.limits)
        if not all(1 <= k <= self.order + 1 for k in self.limits):
            raise ValueError(f"limit orders {sorted(self.limits)} must lie in "
                             f"1..{self.order + 1}; above the plan spline's "
                             "degree, derivatives are zero between knots")
        stamps = times[1:]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("waypoint times must be strictly increasing, "
                             f"got {stamps}")


# --- message bus ------------------------------------------------------------

@dataclass
class BusMessage:
    """One logged broadcast: anonymous payload plus delivery metadata.

    `sender` is transport routing only (a robot must not receive its own
    broadcast); it is never exposed to consumers, which see just the payload.
    """

    payload: PeerState
    send_stamp: float
    delivery_stamp: float
    dropped: bool
    sender: int

    def __post_init__(self):
        if self.delivery_stamp < self.send_stamp:
            raise ValueError("delivery cannot precede sending")


class MessageBus:
    """Append-only broadcast log with per-consumer delivery cursors.

    Constant latency keeps delivery order equal to send order, so a cursor
    index per consumer suffices.  Drops are decided at send time from the
    bus RNG, making delivery deterministic for a given seed.
    """

    def __init__(self, latency=0.0, drop_probability=0.0, rng=None):
        if not (np.isfinite(latency) and latency >= 0):
            raise ValueError(f"latency must be finite and nonnegative, "
                             f"got {latency!r}")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.latency = float(latency)
        self.drop_probability = float(drop_probability)
        self.log = []
        self._cursors = {}
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def post(self, sender, payload, now):
        dropped = (self.drop_probability > 0.0
                   and float(self._rng.random()) < self.drop_probability)
        msg = BusMessage(payload=payload, send_stamp=float(now),
                         delivery_stamp=float(now) + self.latency,
                         dropped=dropped, sender=sender)
        self.log.append(msg)
        return msg

    def poll(self, consumer, now):
        """Payloads from other senders delivered by `now`, oldest first.

        Each consumer sees every message exactly once across successive
        polls; dropped messages stay in the log but are never handed out.
        """
        i = self._cursors.get(consumer, 0)
        out = []
        while i < len(self.log) and self.log[i].delivery_stamp <= now + 1e-12:
            m = self.log[i]
            if not m.dropped and m.sender != consumer:
                out.append(m.payload)
            i += 1
        self._cursors[consumer] = i
        return out


# --- executed-motion history ------------------------------------------------

class ExecutedPath:
    """The motion a robot executes: its committed trajectories, by stamp.

    During a tick the robot follows the trajectory committed at that tick's
    cycle, so the executed state at time t comes from the latest commit at
    or before t (the first commit before any), clamped into that spline's
    domain.  Past the domain's end, beyond a 1e-9 tolerance, the robot has
    run out of plan: it is parked at the final point, with every motion
    derivative zero.  Each `Agent` keeps one path and commits to it every
    cycle that yields a new plan, so the path is the agent's live record of
    its motion.
    """

    def __init__(self, commits):
        self._commits = list(commits)
        self._stamps = [c[0] for c in self._commits]

    def commit(self, t, trajectory):
        """Follow `trajectory` from time t on; t is no earlier than the
        latest stamp."""
        self._commits.append((float(t), trajectory))
        self._stamps.append(float(t))

    @property
    def latest(self):
        """The trajectory of the latest commit."""
        return self._commits[-1][1]

    def clamp_time(self, t):
        return max(t, self._commits[0][0])

    def state(self, t, n_orders):
        """(n_orders, 2) stack of derivative orders 0..n_orders-1 at time t."""
        tr = self._commits[max(bisect_right(self._stamps, t + 1e-12) - 1, 0)][1]
        if t > tr.domain[1] + 1e-9:
            derivs = np.zeros((n_orders, 2))
            derivs[0] = tr.position(tr.domain[1])
            return derivs
        return tr.state_stack(tr.clamp_time(t), n_orders)

    def states(self, times, n_orders):
        """(n, n_orders, 2): `state` at each of n times, in one basis pass
        per (degree, knot spacing) and order.

        Each time takes its commit's grid (`bspline._grid_basis` with one
        origin and control count per time) and its commit's control points,
        gathered from the group's stacked controls, so every row rounds as
        `state`'s own evaluation.  A parked time is clamped to its domain
        end, whose position it keeps, and its derivatives are zeroed.
        """
        times = np.asarray(times, dtype=float)
        # The same rule as `state`: the latest commit at or before t + 1e-12.
        which = np.maximum(0, np.searchsorted(self._stamps, times + 1e-12,
                                              side="right") - 1)
        out = np.zeros((len(times), n_orders, 2))
        grids = {}
        for k in np.unique(which).tolist():
            tr = self._commits[k][1]
            grids.setdefault((tr.degree, tr.dt), []).append(k)
        slot = np.empty(len(self._commits), dtype=int)
        for (degree, dt), ks in grids.items():
            trs = [self._commits[k][1] for k in ks]
            slot.fill(-1)
            slot[ks] = np.arange(len(ks))
            sel = (slot[which] >= 0).nonzero()[0]
            c = slot[which[sel]]
            t0 = np.array([tr.t0 for tr in trs])[c]
            m = np.array([tr.m for tr in trs])[c]
            lo, hi = t0 + degree * dt, t0 + m * dt
            ts = times[sel]
            parked = ts > hi + 1e-9
            ts = np.minimum(hi, np.maximum(lo, ts))
            for order in range(min(n_orders, degree + 1)):
                ctrl = [tr.derivative_control(order) for tr in trs]
                first = np.cumsum([0] + [len(x) for x in ctrl])[c]
                idx, w = _grid_basis(degree, t0, dt, m, order, ts)
                rows = np.concatenate(ctrl)[idx + first[:, None]]
                out[sel, order] = np.matmul(w[:, None, :], rows)[:, 0, :]
            out[sel[parked], 1:] = 0.0
        return out

    def position(self, t):
        return self.state(t, 1)[0]

    def positions(self, times):
        return self.states(times, 1)[:, 0]


# --- the agent --------------------------------------------------------------

@dataclass
class CycleReport:
    """Diagnostics for one planning cycle."""

    t: float
    status: str
    iterations: int = 0
    kkt_residual: float = np.nan
    solve_time_us: float = 0.0
    cycle_time_us: float = 0.0
    continuity_error: float = np.nan
    n_tracks: int = 0
    stale_tracks: int = 0
    scan_processed: bool = False
    flags: tuple = ()


class Agent:
    """One robot: sensing, mapping, prediction, and replanning state.

    The constructor commits a stationary bootstrap trajectory so the very
    first cycle has a previous plan to fold volumes around and fall back to.
    """

    def __init__(self, index, spec, *, bus=None):
        self.index = index
        self.config = spec
        self.bus = bus

        layout = plan_knot_layout(0.0, HORIZON, KNOT_SEGMENT, spec.order + 1)
        self.path = ExecutedPath([(0.0, constant_spline(layout, spec.start))])
        self.local_map = LocalMap(origin=spec.start)
        self.footprint = footprint_from_size(spec.footprint)
        self.staged = []
        self.pending_scan = None
        self.volume = None
        self.tracks = []
        self.regions = None
        self.reports = []

    def receive_scan(self, scan):
        self.pending_scan = scan

    # -- the cycle --------------------------------------------------------

    def agent_cycle(self, now):
        """Run one full planning cycle at time `now`; returns a CycleReport."""
        t_wall = time.perf_counter()
        flags = []
        prev = self.path.latest

        # (1) Own state from the executed path.  Reading past the plan's
        # end reports the robot parked there, not still moving.
        initial_state = self.path.state(now, self.config.order)

        # Snapshot handoff: stage 3 folds only shapes staged by earlier
        # cycles; shapes staged now are folded next cycle.
        to_fold = self.staged
        self.staged = []
        scan_processed = False

        def stage_scan():
            # (2) Segment and classify a finished sweep into staged shapes.
            nonlocal scan_processed
            scan = self.pending_scan
            if scan is None:
                return
            self.pending_scan = None
            for cluster in segment_scan(scan):
                origin = compensate_motion(cluster, self.path)
                if cluster.closed:
                    # The returns surround us: stage one wall piece per face
                    # instead of fitting a single shape we would be inside.
                    self.staged.extend(decompose_boundary(
                        cluster.points, origin, closed=True))
                    continue
                try:
                    shape = classify_cluster(cluster.points, origin)
                except ValueError:
                    continue
                if shape.contains(origin):
                    # A shape inferred from surface returns can never cover
                    # the sensor; the cluster must bend around us, so split
                    # it into per-face pieces instead.
                    self.staged.extend(decompose_boundary(
                        cluster.points, origin))
                    continue
                self.staged.append((shape, cluster.points))
            scan_processed = True

        def stage_map():
            # (3) Fold staged shapes into the map, rebuild the moving volume.
            for shape, pts in to_fold:
                self.local_map.insert(shape, pts)
            self.local_map.recenter(initial_state[0])
            self.volume = build_moving_volume(
                self.local_map, prev, now, HORIZON, TAU)

        try:
            stage_scan()
            stage_map()
        except Exception as exc:  # sensing must never kill the cycle
            flags.append(f"perception:{type(exc).__name__}")

        # (4) Drain the bus into anonymous peer tracks.
        try:
            if self.bus is not None:
                for payload in self.bus.poll(self.index, now):
                    update_tracks(self.tracks, payload)
        except Exception as exc:
            flags.append(f"tracks:{type(exc).__name__}")
        stale = sum(tr.is_stale(now) for tr in self.tracks)
        if self.tracks and stale:
            flags.append("stale_tracks")
            # A starved track is flagged once, then dropped: extrapolating a
            # peer far beyond its last report constrains the planner against
            # a ghost.  If the peer is still there, its next message simply
            # opens a fresh track.
            self.tracks = [tr for tr in self.tracks
                           if not tr.is_stale(now)]

        # (5) Safe regions along the previous plan.
        regions = self.regions
        try:
            if self.volume is not None:
                regions = build_safe_regions(
                    self.volume, self.tracks, self.footprint, now)
        except Exception as exc:
            flags.append(f"regions:{type(exc).__name__}")

        # (6) Replan with the fallback ladder.  Regions kept from an earlier
        # cycle record an older volume's columns, so they admit no shape.
        try:
            near = ([] if regions is self.regions
                    else admit_obstacles(self.volume.shapes, regions))
            traj, plan = plan_with_fallback(PlanRequest(
                t_now=now, initial_state=initial_state, previous=prev,
                spec=self.config, regions=regions, volume=self.volume,
                near_obstacles=near, after_fallback=bool(self.reports)
                and self.reports[-1].status == "fallback"))
        except Exception as exc:
            flags.append(f"plan:{type(exc).__name__}")
            traj, plan = prev, PlanReport("fallback", continuity_error=0.0)

        # (7) Commit and report.
        if traj is not prev:
            self.path.commit(now, traj)
        self.regions = regions
        report = CycleReport(
            t=float(now),
            status=plan.status,
            iterations=plan.iterations,
            kkt_residual=plan.kkt_residual,
            solve_time_us=plan.solve_time_us,
            cycle_time_us=(time.perf_counter() - t_wall) * 1e6,
            continuity_error=plan.continuity_error,
            n_tracks=len(self.tracks),
            stale_tracks=stale,
            scan_processed=scan_processed,
            flags=tuple(flags),
        )
        self.reports.append(report)
        return report


def broadcast(agent, now):
    """Post the agent's current kinematic state and body size to the bus.

    The payload carries no identity: receivers must associate it with a
    track from the motion alone.
    """
    st = agent.path.state(now, 3)
    payload = PeerState(stamp=float(now), position=st[0], velocity=st[1],
                        acceleration=st[2], size=agent.config.footprint)
    return agent.bus.post(agent.index, payload, now)
