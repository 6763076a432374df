"""Closed-loop simulation: run a scenario and collect artifacts.

One run builds the world, the shared message bus, and one `Agent` per
`AgentSpec`, then steps a fixed planning-rate clock.  Each tick
delivers any completed LiDAR sweep (beams cast from the poses the agent
actually occupied during the sweep, each only at the obstacles its range
can reach), runs every agent's replanning cycle in
index order, and then fires due broadcasts — so a state sent at tick k is visible to peers from
tick k+1 at the earliest, as it would be over a real link.

Everything is seeded: bus drops draw from the second of the run seed's
two `SeedSequence` streams (the first goes unused, which keeps each seed's
drops those of earlier runs).  Identical scenario + seed gives
bitwise-identical logs.

Each agent's executed path is sampled on the prediction grid into a
trajectory table, with one whole-array read per agent (one basis pass per
degree and knot spacing of its commits); metrics are computed
from that table alone so they can be recomputed from the CSV bit for bit.
"""

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import (RunMetrics, compute_motion_metrics, solve_time_stats,
                      write_trajectories)
from .planner import TAU
from .runtime import Agent, AgentSpec, MessageBus, broadcast
from .scenario import resolve_agents
from .sensor import (SWEEP_RATE, World, n_beams, simulate_scan,
                     simulate_swept_scan)

__all__ = ["RunResult", "run_scenario", "build_agents"]

BROADCAST_RATE = 10.0   # peer broadcasts per second


@dataclass
class RunResult:
    """A finished run: metrics plus the raw material they came from."""

    metrics: RunMetrics
    table: dict      # agent -> (T, 7) array of t, x, y, vx, vy, ax, ay
    reports: dict    # agent -> list of CycleReport
    resolved: list   # the scenario's AgentSpec per agent


def build_agents(specs, bus):
    """One Agent per spec, indexed in list order."""
    return [Agent(i, spec, bus=bus) for i, spec in enumerate(specs)]


def _swept_poses(agent, stamps, bounds):
    pts = agent.path.positions(stamps)
    xmin, ymin, xmax, ymax = bounds
    pts[:, 0] = np.minimum(np.maximum(pts[:, 0], xmin), xmax)
    pts[:, 1] = np.minimum(np.maximum(pts[:, 1], ymin), ymax)
    return pts


def run_scenario(scenario, out_dir=None):
    """Simulate the scenario and return a RunResult.

    With out_dir set, writes metrics.json and trajectories.csv.  The run
    itself never aborts: per-stage failures inside an agent surface as
    report flags and fallback statuses, not exceptions.
    """
    _, bus_seed = np.random.SeedSequence(scenario.seed).spawn(2)
    resolved = resolve_agents(scenario)
    world = World(obstacles=list(scenario.obstacles),
                  bounds=tuple(scenario.bounds))
    bus = MessageBus(latency=scenario.bus_latency,
                     drop_probability=scenario.bus_drop,
                     rng=np.random.default_rng(bus_seed))
    agents = build_agents(resolved, bus)

    plan_rate = AgentSpec.plan_rate
    bcast_period = 1.0 / BROADCAST_RATE
    sweep_duration = 1.0 / SWEEP_RATE
    ticks_per_sweep = int(round(plan_rate / SWEEP_RATE))

    n_ticks = int(round(scenario.duration * plan_rate))
    next_due = 0.0
    for k in range(n_ticks):
        t = k / plan_rate
        if k == 0:
            # Startup sweep from the spawn pose so the first fold already
            # knows the nearby walls.
            for a in agents:
                a.receive_scan(simulate_scan(
                    world, a.path.position(t), a.config.heading, t))
        elif k % ticks_per_sweep == 0:
            t0 = t - sweep_duration
            stamps = t0 + sweep_duration * np.arange(n_beams()) / n_beams()
            for a in agents:
                poses = _swept_poses(a, stamps, world.bounds)
                a.receive_scan(simulate_swept_scan(
                    world, poses, a.config.heading, t0))
        for a in agents:
            a.agent_cycle(t)
        while next_due <= t + 1e-9:
            for a in agents:
                broadcast(a, t)
            next_due += bcast_period

    n_samples = int(round(scenario.duration / TAU)) + 1
    times = np.arange(n_samples) * TAU
    table = {a.index: np.column_stack(
                 [times, a.path.states(times, 3).reshape(n_samples, 6)])
             for a in agents}
    reports = {a.index: a.reports for a in agents}

    motion = compute_motion_metrics(
        table,
        footprints=[spec.footprint for spec in resolved],
        goals=[spec.goal for spec in resolved],
        limits=[spec.limits for spec in resolved],
        obstacles=list(scenario.obstacles))
    all_reports = [r for rs in reports.values() for r in rs]
    metrics = RunMetrics(
        scenario=scenario.name, seed=scenario.seed,
        duration=float(scenario.duration), n_agents=len(agents),
        solve_times=solve_time_stats([r.solve_time_us for r in all_reports]),
        cycle_times=solve_time_stats([r.cycle_time_us for r in all_reports]),
        cycle_statuses=dict(Counter(r.status for r in all_reports)),
        flag_counts=dict(Counter(f for r in all_reports for f in r.flags)),
        unrecovered_infeasibility=bool(any(
            rs and rs[-1].status == "fallback" for rs in reports.values())),
        **motion)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics.save(out / "metrics.json")
        write_trajectories(out / "trajectories.csv",
                           [(i, *row) for i, data in table.items()
                            for row in data])

    return RunResult(metrics=metrics, table=table, reports=reports,
                     resolved=resolved)
