"""What the benchmark measures: workloads, metrics, and expected effects.

This module is the single source of `BENCHMARK.json`
(`python3 perfbench/run.py --write-spec` regenerates it).  It also keeps
what that file has no room for: for every per-layer metric, the end-to-end
metrics and workloads a change to that layer is expected to move, so that a
performance change can cite its prediction by metric name.
"""

RUN_SECONDS = 30

# Every workload runs its builtin's default layout (layout seed 0, as in the
# ROADMAP baseline); the benchmark seed is the run seed `run_scenario` draws
# random spawns and message drops from.  These builtins use neither, so all
# seeds do the same work.  Varying the layout instead changes the work per
# run by up to 2x: centimetre start jitter decides how many QP solves stall
# at the iteration cap, and unstructured draws a new obstacle field.
LAYOUT_SEED = 0

# `window_s` is the simulated window at `RUN_SECONDS`; it scales with
# `--seconds`.  An untraced run measures it twice; one window took 8-15 s of
# wall time on a 2-core x86-64 VM with one BLAS thread.  The windows are
# the shortest that give every workload 200 or more cycles.  The corridor
# agents' meeting at the crossing (about 4 s) and the collisions of all
# three builtins lie beyond them; `--baseline` runs the builtins' full
# default durations and reports those.
WORKLOADS = {
    "swarm_swap": {
        "builtin": "antipodal",
        "window_s": 1.6,
        "why": "8 agents swap across a 5 m circle with no obstacles: peer "
               "tracking, bus polling and peer cuts dominate; sensing and "
               "mapping see nothing",
    },
    "corridor_cross": {
        "builtin": "intersection",
        "window_s": 1.4,
        "why": "6 fourth-order agents in walled corridors: the largest QPs, "
               "where solving and QP assembly dominate and some solves stall "
               "at the iteration cap",
    },
    "clutter_waypoints": {
        "builtin": "unstructured",
        "window_s": 2.0,
        "why": "4 agents with timed waypoints among 10 obstacles: sensing, "
               "mapping and region seeding dominate; most QPs end in "
               "certified infeasibility",
    },
}

# The timing metrics are in probe times (yardstick.py): `ref_ms` is the time
# the fixed probe took right before the cycle, `ref_s` a thousand mean probe
# times.  On the shared 2-core VM, wall-clock latencies spread 0.15-0.30
# between runs (quartiles over five to ten runs) as the host's speed changed,
# whatever the run length or estimator.  In two sets of ten runs per
# workload, the probe-time metrics spread 0.010-0.057 (real-time factor),
# 0.020-0.068 (cycle p50) and 0.030-0.063 (cycle p95), and their medians
# moved 4% or less between the sets.  Peak RSS spread 0.003 and set-up time
# 0.05-0.26.
# The wall-clock figures are printed and recorded next to them.
END_TO_END = [
    {"name": "realtime_factor_ref", "unit": "sim_s/ref_s", "better": "higher", "bound": 0.2},
    {"name": "cycle_p50_ref", "unit": "ref_ms", "better": "lower", "bound": 0.25},
    {"name": "cycle_p95_ref", "unit": "ref_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# Spans: (name, layer attribute it wraps).  Every wrapper sits at the module
# or class attribute its caller looks up, so nothing under src/ changes.
SPANS = [
    ("sensor.scan", "harness.simulate_scan, harness.simulate_swept_scan"),
    ("perception.segment", "runtime.segment_scan"),
    ("perception.compensate", "runtime.compensate_motion"),
    ("perception.classify", "runtime.classify_cluster"),
    ("perception.decompose", "runtime.decompose_boundary"),
    ("perception.map_insert", "perception.LocalMap.insert"),
    ("perception.volume", "runtime.build_moving_volume"),
    ("prediction.update", "runtime.update_tracks"),
    ("prediction.predict", "prediction.PeerTrack.predict_positions"),
    ("runtime.cycle", "runtime.Agent.agent_cycle"),
    ("runtime.bus_poll", "runtime.MessageBus.poll"),
    ("runtime.broadcast", "harness.broadcast"),
    ("regions.build", "runtime.build_safe_regions"),
    ("regions.seed", "regions.seed_region"),
    ("regions.peer_cut", "regions.contract_for_peer"),
    ("regions.deflate", "regions.deflate_for_ego"),
    ("regions.empty_test", "regions.region_is_empty"),
    ("planner.plan", "runtime.plan_with_fallback"),
    ("planner.admit", "runtime.admit_obstacles"),
    ("planner.assemble", "planner.assemble_qp"),
    ("planner.quadratize", "planner.quadratize_collision"),
    ("qp.solve", "planner.solve_qp"),
    ("bspline.eval", "bspline.TrajectorySpline.position, positions, "
                     "state_stack, derivative_value, derivative_values"),
    ("metrics.motion", "harness.compute_motion_metrics"),
    ("harness.table_sample", "runtime.ExecutedPath.state"),
    ("harness.build_agents", "harness.build_agents"),
    ("scenario.resolve", "harness.resolve_agents"),
    ("scenario.build", "scenario.builtin_scenario (called by the benchmark)"),
    ("harness.run", "harness.run_scenario (called by the benchmark)"),
]

# Spans with at least 200 calls on every workload get latency percentiles
# in BENCHMARK.json; the run's result file has them for every span with
# enough samples.
PERCENTILE_SPANS = [
    "runtime.cycle", "runtime.bus_poll", "planner.plan", "planner.assemble",
    "qp.solve", "regions.build", "regions.seed", "regions.peer_cut",
    "prediction.update", "perception.volume",
]

ITERATION_BINS = [(0, 0), (1, 9), (10, 99), (100, 999), (1000, None)]


def iteration_bin_name(lo, hi):
    return f"qp.solve.iters_{lo}-{'up' if hi is None else hi}"


COUNTERS = [
    ("qp.solve.iterations_p50", "count", "lower"),
    ("qp.solve.iterations_p95", "count", "lower"),
    ("qp.solve.rows_p50", "count", "lower"),
    ("qp.solve.vars_p50", "count", "lower"),
    ("qp.solve.optimal_frac", "ratio", "higher"),
    ("qp.solve.infeasible_frac", "ratio", "lower"),
    ("qp.solve.maxiter_frac", "ratio", "lower"),
    *[(iteration_bin_name(lo, hi), "count", "lower")
      for lo, hi in ITERATION_BINS],
    ("regions.peer_cut.infeasible_frac", "ratio", "lower"),
    ("regions.peer_cut.cut_frac", "ratio", "higher"),
    ("regions.seed.inside_obstacle_frac", "ratio", "lower"),
    ("regions.empty_test.empty_frac", "ratio", "lower"),
    ("regions.infeasible_slice_frac", "ratio", "lower"),
    ("regions.planes_per_slice_p50", "count", "lower"),
    ("prediction.update.new_track_frac", "ratio", "lower"),
    ("perception.classify.reject_frac", "ratio", "lower"),
    ("planner.assemble.relaxed_frac", "ratio", "lower"),
    ("planner.admit.admitted_frac", "ratio", "higher"),
    ("planner.fallback.no_slice", "count", "lower"),
    ("planner.fallback.infeasible", "count", "lower"),
    ("planner.fallback.maxiter", "count", "lower"),
    ("planner.fallback.exception", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def span_metric_names(name):
    """Per-span metric names: calls, self time, latency percentiles."""
    out = [(f"{name}.calls", "count"),
           (f"{name}.self_s" if name == "runtime.cycle" else f"{name}.busy_s",
            "s")]
    if name in PERCENTILE_SPANS:
        out += [(f"{name}.p50_ms", "ms"), (f"{name}.p95_ms", "ms")]
    return out


def per_layer():
    metrics = [{"name": m, "unit": u, "better": "lower"}
               for span, _ in SPANS for m, u in span_metric_names(span)]
    metrics += [{"name": m, "unit": u, "better": b} for m, u, b in COUNTERS]
    return metrics


# Which end-to-end metric each per-layer metric should move, on which
# workload, and where the prediction is "no change".  The first matching
# prefix wins.  `failed` is the share of failed cycles (fallback_frac).
EXPECTED_MOVES = [
    ("qp.", {"moves": ["cycle_p95_ref@corridor_cross",
                       "realtime_factor_ref@corridor_cross",
                       "failed@corridor_cross (through maxiter)"],
             "little": ["swarm_swap"]}),
    ("planner.fallback.", {"moves": ["failed@corridor_cross",
                                     "failed@clutter_waypoints",
                                     "failed@swarm_swap"],
                           "little": []}),
    ("regions.peer_cut.", {"moves": ["cycle_p50_ref@swarm_swap",
                                     "realtime_factor_ref@swarm_swap"],
                           "little": ["clutter_waypoints"]}),
    ("prediction.", {"moves": ["cycle_p50_ref@swarm_swap",
                               "realtime_factor_ref@swarm_swap"],
                     "little": ["clutter_waypoints"]}),
    ("runtime.bus_poll.", {"moves": ["cycle_p50_ref@swarm_swap",
                                     "realtime_factor_ref@swarm_swap"],
                           "little": ["clutter_waypoints"]}),
    ("runtime.cycle.", {"moves": ["cycle_p50_ref@swarm_swap",
                                  "cycle_p50_ref@corridor_cross",
                                  "cycle_p50_ref@clutter_waypoints"],
                        "little": []}),
    ("runtime.broadcast.", {"moves": ["realtime_factor_ref@swarm_swap"],
                            "little": ["cycle_p50_ref"]}),
    ("regions.build.", {"moves": ["cycle_p50_ref@swarm_swap",
                                  "cycle_p50_ref@clutter_waypoints"],
                        "little": []}),
    ("regions.deflate.", {"moves": ["cycle_p50_ref@swarm_swap"],
                          "little": []}),
    ("regions.", {"moves": ["cycle_p50_ref@clutter_waypoints"],
                  "little": ["swarm_swap"]}),
    ("perception.", {"moves": ["cycle_p50_ref@clutter_waypoints"],
                     "little": ["swarm_swap"]}),
    ("planner.", {"moves": ["cycle_p50_ref@corridor_cross",
                            "cycle_p50_ref@clutter_waypoints"],
                  "little": []}),
    ("sensor.", {"moves": ["realtime_factor_ref@clutter_waypoints",
                           "realtime_factor_ref@corridor_cross"],
                 "little": ["cycle_p50_ref", "cycle_p95_ref"]}),
    ("harness.table_sample.", {"moves": ["realtime_factor_ref"],
                               "little": ["cycle_p50_ref", "cycle_p95_ref"]}),
    ("metrics.", {"moves": ["realtime_factor_ref"],
                  "little": ["cycle_p50_ref", "cycle_p95_ref"]}),
    ("bspline.", {"moves": ["realtime_factor_ref@swarm_swap",
                            "realtime_factor_ref@corridor_cross",
                            "realtime_factor_ref@clutter_waypoints"],
                  "little": []}),
    ("harness.build_agents.", {"moves": ["setup_s"], "little": []}),
    ("scenario.", {"moves": ["setup_s"], "little": []}),
    ("harness.run.", {"moves": ["realtime_factor_ref"],
                      "little": ["cycle_p50_ref", "cycle_p95_ref"]}),
    ("trace.", {"moves": [], "little": []}),
]


def expected_moves(metric):
    for prefix, moves in EXPECTED_MOVES:
        if metric.startswith(prefix):
            return moves
    raise KeyError(metric)


def benchmark_json():
    for metric in per_layer():
        expected_moves(metric["name"])  # every per-layer metric has a prediction
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }
