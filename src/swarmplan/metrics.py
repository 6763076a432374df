"""Run metrics: safety, tracking, and solver statistics for a finished run.

The geometric metrics are computed purely from the logged trajectory table
(agent, t, x, y, vx, vy, ax, ay sampled on the prediction grid), so anyone
holding the CSV can recompute them bit for bit.  Pairwise gaps use footprint
supports along the center line: exact for disk footprints, conservative for
square ones.  Obstacle clearance subtracts the footprint's `size_scale`, the
radius of the smallest disk about its center that covers it, from the
center-to-shape distance.  A collision event is a maximal run of
consecutive samples where a gap or clearance is nonpositive.
"""

import csv
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import footprint_from_size

__all__ = [
    "TRAJECTORY_COLUMNS", "RunMetrics", "write_trajectories",
    "read_trajectories", "compute_motion_metrics", "solve_time_stats",
]

TRAJECTORY_COLUMNS = ("agent", "t", "x", "y", "vx", "vy", "ax", "ay")

# A logged velocity or acceleration component counts as a limit violation
# only beyond its bound by more than this.
LIMIT_TOL = 1e-6


def write_trajectories(path, rows):
    """Write (agent, t, x, y, vx, vy, ax, ay) rows as CSV.

    Floats are written with repr so they round-trip exactly; metrics
    recomputed from the file match the originals bit for bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in rows:
            agent, rest = row[0], row[1:]
            writer.writerow([int(agent)] + [repr(float(v)) for v in rest])


def read_trajectories(path):
    """Read a trajectory CSV into {agent: (T, 7) array} keyed by agent id.

    Columns per row: t, x, y, vx, vy, ax, ay in logged order.
    """
    table = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise ValueError(f"unexpected trajectory header {header}")
        for row in reader:
            table.setdefault(int(row[0]), []).append(
                [float(v) for v in row[1:]])
    return {k: np.asarray(v) for k, v in sorted(table.items())}


def _runs(mask):
    """(first, last) inclusive index pairs of each True run in mask."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[s]), int(idx[e])) for s, e in zip(starts, ends)]


def compute_motion_metrics(table, *, footprints, goals, limits, obstacles):
    """Geometric metrics from a trajectory table.

    table: {agent: (T, 7) array} as produced by `read_trajectories`; all
    agents must share the same time grid.  footprints/goals/limits are
    per-agent (goal None skips that agent's goal error; limits maps
    derivative order to (lo, hi) component bounds, orders 1 and 2 checked,
    with LIMIT_TOL of slack).

    Returns a dict with min_pairwise_distance, min_obstacle_clearance,
    goal_errors, limit_violations, and collision_events.
    """
    ids = sorted(table)
    times = None
    for a in ids:
        t = table[a][:, 0]
        if times is None:
            times = t
        elif len(t) != len(times) or not np.array_equal(t, times):
            raise ValueError("agents logged on different time grids")
    fps = [footprint_from_size(footprints[a]) for a in ids]
    pos = {a: table[a][:, 1:3] for a in ids}

    events = []
    min_pair = math.inf
    for ii in range(len(ids)):
        for jj in range(ii + 1, len(ids)):
            a, b = ids[ii], ids[jj]
            d = pos[b] - pos[a]
            dist = np.hypot(d[:, 0], d[:, 1])
            units = d / np.maximum(dist, 1e-12)[:, None]
            gap = dist - fps[ii].support(units) - fps[jj].support(units)
            min_pair = min(min_pair, float(gap.min()))
            for s, e in _runs(gap <= 0.0):
                events.append({
                    "kind": "agent", "a": a, "b": b,
                    "t_start": float(times[s]), "t_end": float(times[e]),
                    "min_gap": float(gap[s:e + 1].min()),
                })

    min_clear = math.inf
    for ii, a in enumerate(ids):
        r = fps[ii].size_scale
        for oi, shape in enumerate(obstacles):
            clear = shape.distance(pos[a]) - r
            min_clear = min(min_clear, float(clear.min()))
            for s, e in _runs(clear <= 0.0):
                events.append({
                    "kind": "obstacle", "agent": a, "obstacle": oi,
                    "t_start": float(times[s]), "t_end": float(times[e]),
                    "min_gap": float(clear[s:e + 1].min()),
                })

    goal_errors = []
    for ii, a in enumerate(ids):
        g = goals[a]
        if g is None:
            goal_errors.append(None)
        else:
            goal_errors.append(float(np.linalg.norm(pos[a][-1] - np.asarray(g))))

    violations = 0
    for ii, a in enumerate(ids):
        lim = limits[a] or {}
        for order, cols in ((1, (3, 5)), (2, (5, 7))):
            if order not in lim:
                continue
            lo, hi = (np.asarray(v, dtype=float) for v in lim[order])
            vals = table[a][:, cols[0]:cols[1]]
            bad = np.any((vals < lo - LIMIT_TOL) | (vals > hi + LIMIT_TOL),
                         axis=1)
            violations += int(bad.sum())

    events.sort(key=lambda e: e["t_start"])
    return {
        "min_pairwise_distance": min_pair,
        "min_obstacle_clearance": min_clear,
        "goal_errors": goal_errors,
        "limit_violations": violations,
        "collision_events": events,
    }


def solve_time_stats(solve_times_us):
    """Median/p95/max/mean summary of per-cycle solve times (microseconds)."""
    if len(solve_times_us) == 0:
        return {"count": 0, "median_us": 0.0, "p95_us": 0.0,
                "max_us": 0.0, "mean_us": 0.0}
    arr = np.asarray(solve_times_us, dtype=float)
    # numpy's default (linear) median and p95, read off one sorted copy:
    # np.median and np.percentile would import numpy.ma on first use.
    ordered = np.sort(arr)
    median, p95 = np.interp((arr.size - 1) * np.array([0.5, 0.95]),
                            np.arange(arr.size), ordered)
    return {
        "count": int(arr.size),
        "median_us": float(median),
        "p95_us": float(p95),
        "max_us": float(ordered[-1]),
        "mean_us": float(arr.mean()),
    }


@dataclass
class RunMetrics:
    """Everything `metrics.json` holds about one run."""

    scenario: str
    seed: int
    duration: float
    n_agents: int
    min_pairwise_distance: float
    min_obstacle_clearance: float
    goal_errors: list
    limit_violations: int
    collision_events: list
    solve_times: dict
    cycle_times: dict = field(default_factory=dict)
    cycle_statuses: dict = field(default_factory=dict)
    flag_counts: dict = field(default_factory=dict)
    unrecovered_infeasibility: bool = False

    def to_dict(self):
        out = asdict(self)
        for key in ("min_pairwise_distance", "min_obstacle_clearance"):
            if not math.isfinite(out[key]):
                out[key] = None
        return out

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
