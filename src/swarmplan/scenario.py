"""Run descriptions: the bundled builtin worlds, and the checks every
scenario passes when it is built.

A `Scenario` holds the world (bounds plus obstacles), the agents, the bus
parameters, a seed and a duration, and rejects at construction what a run
could not start from.  Each agent is a `runtime.AgentSpec`, re-exported
here, whose field defaults are the only defaults.  Starts and goals left
unset are drawn, and goal times and waypoint stamps left unset filled, by
`resolve_agents`, so a scenario built in code can be re-run under other
seeds.  `builtin_scenario` generates the bundled benchmark worlds by name
(`builtin_names`).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Circle, Square, axis_rectangle, footprint_from_size
from .planner import KNOT_SEGMENT
from .runtime import AgentSpec, MessageBus
from .sensor import World

__all__ = [
    "AgentSpec", "Scenario", "resolve_agents", "builtin_scenario",
    "builtin_names",
]

# --- run description --------------------------------------------------------

@dataclass
class Scenario:
    """A full validated run description."""

    agents: list
    name: str = "scenario"
    seed: int = 0
    duration: float = 10.0
    bus_latency: float = 0.0
    bus_drop: float = 0.0
    bounds: tuple = (-15.0, -15.0, 15.0, 15.0)
    obstacles: list = field(default_factory=list)

    def __post_init__(self):
        if not float(self.seed).is_integer():
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed)
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be finite and nonnegative, "
                             f"got {self.duration!r}")
        if not self.agents:
            raise ValueError("scenario needs at least one agent")
        world = World(list(self.obstacles), tuple(self.bounds))
        MessageBus(self.bus_latency, self.bus_drop)         # the bus's checks
        _check_starts(self.agents, world)


def _check_starts(agents, world):
    """Raise ValueError at the first fixed start outside the world bounds,
    where the scanner cannot run; else at the first that collides with an
    obstacle as `compute_motion_metrics` counts it; else at the first pair
    i < j of fixed starts that overlap after footprint inflation."""
    placed = [(i, a.start, footprint_from_size(a.footprint).size_scale)
              for i, a in enumerate(agents) if a.start is not None]
    for _, start, _ in placed:
        if not world.inside(start):
            raise ValueError(f"start {start.tolist()} outside world bounds "
                             f"{world.bounds}")
    for _, start, radius in placed:
        for k, shape in enumerate(world.obstacles):
            clear = float(shape.distance(start)) - radius
            if clear <= 0:
                raise ValueError(f"start {start.tolist()} collides with "
                                 f"obstacle {k} (clearance {clear:.3f} m)")
    for k, (i, start_i, radius_i) in enumerate(placed):
        for j, start_j, radius_j in placed[k + 1:]:
            gap = np.linalg.norm(start_i - start_j) - radius_i - radius_j
            if gap <= 0:
                raise ValueError(f"agents {i} and {j} start overlap after "
                                 f"footprint inflation (gap {gap:.3f} m)")


# --- spawn resolution -------------------------------------------------------

# Random positions are drawn from [-10, 10] per component, within the bounds.
SPAWN_RANGE = 10.0


def _clear_of_obstacles(point, radius, obstacles, margin):
    return all(s.distance(point) >= radius + margin for s in obstacles)


def _draw_clear(rng, radius, scenario, accept, what):
    """First uniform draw over the spawn square clipped to the world bounds,
    within 5000 tries, that clears every obstacle by radius + 0.3 m and that
    `accept` takes."""
    lo = np.maximum(-SPAWN_RANGE, scenario.bounds[:2])
    hi = np.minimum(SPAWN_RANGE, scenario.bounds[2:])
    if np.all(lo <= hi):
        for _ in range(5000):
            cand = rng.uniform(lo, hi)
            if (_clear_of_obstacles(cand, radius, scenario.obstacles, 0.3)
                    and accept(cand)):
                return cand
    raise RuntimeError(f"could not place a random {what}")


def _comfortable_arrival(start, goal, limits):
    """Relaxed travel time: cruise at half the velocity cap plus ramp time.

    The caps are the smallest absolute velocity and acceleration bounds;
    with no acceleration bound it is 1.  With no velocity bound the time is
    twice the time to cover the distance from rest at full acceleration,
    itself floored at two knot segments; never shorter than two knot
    segments (KNOT_SEGMENT each).
    """
    d = float(np.linalg.norm(goal - start))
    v_max, a_max = (float(np.abs(np.concatenate(limits[k])).min())
                    if k in limits else unset
                    for k, unset in ((1, np.inf), (2, 1.0)))
    if np.isfinite(v_max):
        T = d / (0.5 * v_max) + v_max / a_max
    else:
        T = 2.0 * max(np.sqrt(2.0 * a_max * d) / a_max, 2.0 * KNOT_SEGMENT)
    return max(T, 2.0 * KNOT_SEGMENT)


def resolve_agents(scenario, rng):
    """Concrete AgentSpec list: random spawns drawn, goal times and waypoint
    stamps filled.

    Spawn positions are uniform over [-10, 10] per component, clipped to
    the world bounds, with integer-degree headings; draws are rejected until
    the start clears obstacles and every previously placed agent.  Goals
    left unset draw the same way, at least 2 m from their start.  A goal
    time left unset is `_comfortable_arrival`'s, fixed once so successive
    replans agree.  Unstamped waypoints get stamps evenly spaced between
    zero and the goal time.
    """
    placed = [(a.start, footprint_from_size(a.footprint).size_scale)
              for a in scenario.agents if a.start is not None]
    resolved = []
    for a in scenario.agents:
        r = footprint_from_size(a.footprint).size_scale
        start, heading = a.start, a.heading
        if start is None:
            start = _draw_clear(
                rng, r, scenario,
                lambda c: all(np.linalg.norm(c - p) > r + pr + 0.2
                              for p, pr in placed), "spawn")
            heading = math.radians(float(rng.integers(0, 360)))
        placed.append((start, r))

        goal = a.goal
        if goal is None:
            goal = _draw_clear(rng, r, scenario,
                               lambda c: np.linalg.norm(c - start) >= 2.0,
                               "goal")

        gt = a.goal_time
        if gt is None:
            gt = _comfortable_arrival(start, goal, a.limits)
        resolved.append(replace(a, start=start, goal=goal, heading=heading,
                                goal_time=float(gt),
                                waypoints=a.stamped_waypoints(gt)))
    return resolved


# --- builtin scenarios ------------------------------------------------------

def builtin_names():
    return ("open", "antipodal", "intersection", "unstructured", "walled_in")


def builtin_scenario(name, seed=0, n_agents=None, duration=None):
    """Generate one of the bundled benchmark scenarios.

    open/antipodal: agents evenly spaced on a circle of radius 5 swapping
    with their antipodes (open defaults to the 2-agent head-on swap).
    intersection: two 4 m corridors crossed by six fourth-order agents, two
    of which exit at speed.  unstructured: ten seeded random obstacles and
    an agent at each of up to four corners (four by default), with two
    timed waypoints each.  walled_in: one agent sealed inside a box with
    waypoints it cannot all satisfy, exercising the fallback ladder.

    n_agents and duration left as None take the builtin's own count and
    duration.  A count below 1, a count above 4 for unstructured, or any
    count for intersection and walled_in, whose agents are fixed, raises
    ValueError.
    """
    if name not in builtin_names():
        raise ValueError(f"unknown builtin scenario {name!r}; "
                         f"choose from {builtin_names()}")
    if n_agents is not None:
        if name in ("intersection", "walled_in"):
            raise ValueError(f"{name} has a fixed agent count")
        if n_agents < 1:
            raise ValueError(f"agent count must be at least 1, "
                             f"got {n_agents!r}")
    rng = np.random.default_rng(seed)
    if name in ("open", "antipodal"):
        if n_agents is None:
            n_agents = 8 if name == "antipodal" else 2
        return _circle_swap(name, seed, rng, n_agents,
                            11.0 if duration is None else duration)
    if name == "intersection":
        return _intersection(seed, rng, 13.0 if duration is None else duration)
    if name == "unstructured":
        return _unstructured(seed, rng, 4 if n_agents is None else n_agents,
                             14.5 if duration is None else duration)
    return _walled_in(seed, 7.0 if duration is None else duration)


def _circle_swap(name, seed, rng, n, duration):
    radius = 5.0
    agents = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        p = radius * np.array([math.cos(ang), math.sin(ang)])
        # Centimeter-scale tangential jitter breaks the exact symmetry of
        # the formation deterministically per seed.
        tang = np.array([-math.sin(ang), math.cos(ang)])
        start = p + tang * rng.uniform(-0.02, 0.02)
        agents.append(AgentSpec(
            start=start, goal=-p, heading=math.atan2(-p[1], -p[0]),
            order=2, footprint=(0.3,), goal_time=9.0))
    return Scenario(agents=agents, name=name, seed=seed, duration=duration,
                    bounds=(-15.0, -15.0, 15.0, 15.0))


def _intersection(seed, rng, duration):
    walls = [
        axis_rectangle(2.0, 2.0, 12.0, 12.0),
        axis_rectangle(-12.0, 2.0, -2.0, 12.0),
        axis_rectangle(-12.0, -12.0, -2.0, -2.0),
        axis_rectangle(2.0, -12.0, 12.0, -2.0),
    ]
    routes = [
        # (start, goal, goal_time, end_velocity)
        ((-6.0, -1.0), (9.0, -1.0), 10.0, (1.5, 0.0)),
        ((-9.0, -1.0), (6.0, -1.0), 11.5, None),
        ((9.0, 1.0), (-9.0, 1.0), 12.0, None),
        ((-1.0, 9.0), (-1.0, -9.0), 12.0, None),
        ((1.0, -6.0), (1.0, 9.0), 10.0, (0.0, 1.5)),
        ((1.0, -9.0), (1.0, 6.0), 11.5, None),
    ]
    agents = []
    for start, goal, gt, vend in routes:
        start = np.asarray(start) + rng.uniform(-0.02, 0.02, 2)
        d = np.asarray(goal) - start
        agents.append(AgentSpec(
            start=start, goal=goal, heading=math.atan2(d[1], d[0]),
            order=4, footprint=(0.3,), goal_time=gt, end_velocity=vend))
    return Scenario(agents=agents, name="intersection", seed=seed,
                    duration=duration, bounds=(-15.0, -15.0, 15.0, 15.0),
                    obstacles=walls)


def _unstructured(seed, rng, n_agents, duration):
    corners = [(-6.0, -6.0), (6.0, 6.0), (-6.0, 6.0), (6.0, -6.0)]
    if n_agents > len(corners):
        raise ValueError(f"unstructured starts an agent at each of the "
                         f"corners {corners}: at most 4 agents, got {n_agents}")
    obstacles = []
    radii = []
    while len(obstacles) < 10:
        c = rng.uniform(-5.0, 5.0, 2)
        kind = rng.integers(0, 3)
        if kind == 0:
            r = rng.uniform(0.3, 0.8)
            shape = Circle(c, r)
        elif kind == 1:
            h = 0.5 * rng.uniform(0.6, 1.4)
            shape = Square([c + [-h, -h], c + [h, -h], c + [h, h], c + [-h, h]])
            r = h * math.sqrt(2.0)
        else:
            hx, hy = 0.5 * rng.uniform(0.6, 1.6), 0.5 * rng.uniform(0.5, 1.2)
            shape = axis_rectangle(c[0] - hx, c[1] - hy, c[0] + hx, c[1] + hy)
            r = math.hypot(hx, hy)
        # Boundary-to-boundary clearance of at least 1.5 m between obstacles.
        if all(np.linalg.norm(c - oc) >= r + orad + 1.5
               for oc, orad in radii):
            obstacles.append(shape)
            radii.append((c, r))

    goal_times = [11.5, 12.0, 12.5, 13.0]
    agents = []
    for i in range(n_agents):
        start = np.asarray(corners[i], dtype=float)
        goal = -start
        gt = goal_times[i]
        waypoints = []
        for frac in (1.0 / 3.0, 2.0 / 3.0):
            for _ in range(200):
                base = start + frac * (goal - start)
                cand = base + rng.uniform(-2.0, 2.0, 2)
                if _clear_of_obstacles(cand, 0.45, obstacles, 0.8):
                    break
            waypoints.append((gt * frac, cand))
        d = goal - start
        agents.append(AgentSpec(
            start=start, goal=goal, heading=math.atan2(d[1], d[0]),
            order=2, footprint=(0.3,), goal_time=gt, waypoints=waypoints))
    return Scenario(agents=agents, name="unstructured", seed=seed,
                    duration=duration, bounds=(-12.0, -12.0, 12.0, 12.0),
                    obstacles=obstacles)


def _walled_in(seed, duration):
    walls = [
        axis_rectangle(-3.0, -3.0, 3.0, -2.5),
        axis_rectangle(-3.0, 2.5, 3.0, 3.0),
        axis_rectangle(-3.0, -2.5, -2.5, 2.5),
        axis_rectangle(2.5, -2.5, 3.0, 2.5),
    ]
    # Velocity cap only: the first waypoint (1.45 m in 1 s from rest) needs
    # a speed spike the conservative control-point rows cannot express, so
    # those cycles run on the sampled-limit retry.  The second waypoint and
    # the goal sit outside the sealed box, so once it enters the horizon the
    # solver fails outright and the agent holds its last feasible plan.
    agent = AgentSpec(
        start=(0.0, 0.0), goal=(8.0, 0.0), heading=0.0, order=2,
        footprint=(0.3,), goal_time=6.5,
        waypoints=[(1.0, (1.3, 0.65)), (5.2, (6.0, 0.0))],
        limits={1: 2.0})
    return Scenario(agents=[agent], name="walled_in", seed=seed,
                    duration=duration, bounds=(-12.0, -12.0, 12.0, 12.0),
                    obstacles=walls)
