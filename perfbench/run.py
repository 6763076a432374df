"""swarmplan benchmark: builtin scenarios in closed loop, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload swarm_swap --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --baseline          # ROADMAP baseline table
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

The load is a closed loop: `run_scenario` steps one simulated 25 Hz clock and
runs every agent's cycle serially in this process; the next tick waits for
all agents.  Each workload simulates a window of `window_s * seconds /
RUN_SECONDS` seconds (spec.py), and at least 200 agent cycles.  `--seed` is
the run seed; the layout is the builtin's default (see spec.LAYOUT_SEED).

`--trace 0` and `--trace 1` warm up on a two-tick run.  `--trace 0` then
runs the window twice, untraced.  Before every agent cycle it times a fixed
probe computation (yardstick.py), and it reports the end-to-end metrics:
the real-time factor in simulated seconds per `ref_s` over both windows,
the cycle latency percentiles in `ref_ms` (probe times, which the host's
changing speed leaves alone) over each cycle's faster repeat, peak RSS, and
the median set-up time of fresh interpreters started before each window and
after the last.  The wall-clock real-time factor and latencies are printed
beside them.  `--trace 1` runs the window untraced and then traced
(tracing.py) and reports the per-layer metrics; the difference of the two
wall times is the tracing overhead.  `--baseline` runs each workload once
over its builtin's full default duration.

Correctness gate: every table value is finite; the motion metrics
recomputed through the trajectory CSV equal the in-memory ones; and every
further run of the window (repeat or traced) gives a bit-identical
trajectory table, the same cycle outcomes and the same quality metrics.  A
failed check counts every cycle of the run as failed.

The last line of standard output is one JSON object with `correct`,
`attempted` (agent cycles), `failed` (cycles that ended in `fallback` or in
which a stage raised) and `metrics`.  Result records, the trajectory CSV and
the spans go to perfbench/out/.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
import yardstick  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PLAN_RATE = 25.0
MIN_CYCLES = 200
WINDOWS = 2
WARMUP_TICKS = 2
# Set-up runs in fresh interpreters before each window; one more follows
# the last window.
SETUPS_PER_GAP = 2


def execute(builtin, seed, ticks, tracer=None):
    """One run_scenario call; returns (scenario, result, wall seconds)."""
    from swarmplan.harness import run_scenario
    from swarmplan.scenario import builtin_scenario

    span = tracer.span if tracer else (lambda name: nullcontext())
    with tracer.installed() if tracer else nullcontext():
        with span("scenario.build"):
            scenario = replace(
                builtin_scenario(builtin, seed=spec.LAYOUT_SEED,
                                 duration=ticks / PLAN_RATE), seed=seed)
        t0 = time.perf_counter()
        with span("harness.run"):
            result = run_scenario(scenario)
        wall = time.perf_counter() - t0
    return scenario, result, wall


def setup_seconds(builtin, seed, ticks, count):
    """Cold set-up times of `count` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), builtin, str(seed),
             str(ticks / PLAN_RATE)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# --- correctness ---------------------------------------------------------------

def fingerprint(result):
    """Digests of the trajectory table and of per-cycle outcomes (no timings)."""
    table = hashlib.sha256()
    for agent in sorted(result.table):
        table.update(np.ascontiguousarray(result.table[agent]).tobytes())
    cycles = [(agent, [(r.status, r.iterations, repr(r.kkt_residual),
                        repr(r.continuity_error), r.n_tracks, r.stale_tracks,
                        r.scan_processed, r.flags) for r in reports])
              for agent, reports in sorted(result.reports.items())]
    return {"table": table.hexdigest(),
            "cycles": hashlib.sha256(repr(cycles).encode()).hexdigest()}


def csv_roundtrip_errors(scenario, result, path):
    """Differences between in-memory metrics and those recomputed from CSV."""
    from swarmplan.metrics import (compute_motion_metrics, read_trajectories,
                                   write_trajectories)

    write_trajectories(path, [(agent, *row) for agent in sorted(result.table)
                              for row in result.table[agent]])
    table = read_trajectories(path)
    errors = [f"table of agent {a} changed through the CSV"
              for a in result.table if not np.array_equal(table[a],
                                                          result.table[a])]
    motion = compute_motion_metrics(
        table, footprints=[s.footprint for s in result.resolved],
        goals=[s.goal for s in result.resolved],
        limits=[s.limits for s in result.resolved],
        obstacles=list(scenario.obstacles))
    for key, value in motion.items():
        if repr(value) != repr(getattr(result.metrics, key)):
            errors.append(f"{key} recomputed from the CSV differs")
    return errors


def check_run(scenario, result, csv_path):
    errors = [f"non-finite table value for agent {a}"
              for a, data in result.table.items()
              if not np.all(np.isfinite(data))]
    return errors + csv_roundtrip_errors(scenario, result, csv_path)


# --- metrics -------------------------------------------------------------------

def quality(result):
    """The deterministic quality contract, from RunMetrics."""
    m = result.metrics
    clearance = m.min_obstacle_clearance
    return {
        "collision_events": len(m.collision_events),
        "min_agent_gap_m": m.min_pairwise_distance,
        "min_obstacle_clearance_m": (clearance if math.isfinite(clearance)
                                     else None),
        "worst_goal_err_m": max(m.goal_errors),
        "limit_violations": m.limit_violations,
    }


def cycle_outcomes(result):
    """(cycles, failed cycles, status counts).  A cycle fails when it ends
    in `fallback` or a stage raised (a flag such as `plan:ValueError`)."""
    reports = [r for rs in result.reports.values() for r in rs]
    failed = sum(r.status == "fallback" or any(":" in f for f in r.flags)
                 for r in reports)
    statuses = {s: sum(r.status == s for r in reports)
                for s in ("optimal", "relaxed", "fallback")}
    return len(reports), failed, statuses


def cycle_times_ms(result):
    return np.array([r.cycle_time_us for rs in result.reports.values()
                     for r in rs]) / 1e3


def baseline_row(workload, builtin, n_agents, sim_s, wall, cycle_ms, statuses,
                 q):
    clearance = q["min_obstacle_clearance_m"]
    return (f"| {workload} ({builtin}) | {n_agents} | {sim_s:g} | {wall:.1f} | "
            f"{np.percentile(cycle_ms, 50):.1f} / "
            f"{np.percentile(cycle_ms, 95):.1f} | "
            f"{statuses['optimal']} / {statuses['relaxed']} / "
            f"{statuses['fallback']} | {q['collision_events']} | "
            f"{q['min_agent_gap_m']:.3f} / "
            f"{'—' if clearance is None else f'{clearance:.3f}'} | "
            f"{q['worst_goal_err_m']:.2f} |")


BASELINE_HEADER = (
    "| workload (builtin) | agents | sim s | wall s | cycle p50 / p95 ms | "
    "optimal / relaxed / fallback | collision events | "
    "min agent gap / obstacle clearance m | worst goal err m |\n"
    "|---|---|---|---|---|---|---|---|---|")


def environment():
    import scipy

    blas = (np.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- one workload --------------------------------------------------------------

def window(workload, seconds, baseline=False):
    """(builtin name, agent count, ticks) of the workload's window."""
    from swarmplan.scenario import builtin_scenario

    builtin = spec.WORKLOADS[workload]["builtin"]
    scenario = builtin_scenario(builtin, seed=spec.LAYOUT_SEED)
    n_agents = len(scenario.agents)
    if baseline:
        return builtin, n_agents, round(scenario.duration * PLAN_RATE)
    ticks = round(spec.WORKLOADS[workload]["window_s"] * PLAN_RATE
                  * seconds / spec.RUN_SECONDS)
    return builtin, n_agents, max(ticks, math.ceil(MIN_CYCLES / n_agents))


def run_workload(workload, seed, seconds, trace, baseline=False):
    """Run one workload; returns (correct, attempted, failed, metrics,
    baseline table row)."""
    builtin, n_agents, ticks = window(workload, seconds, baseline)
    sim_s = ticks / PLAN_RATE
    tag = f"{workload}_seed{seed}_{'baseline' if baseline else f'trace{trace}'}"
    OUT.mkdir(exist_ok=True)

    measure = not (trace or baseline)
    if not baseline:
        # Lazy imports and first-call set-up finish before any timing.
        execute(builtin, seed, WARMUP_TICKS)
    setup_runs, walls, window_cycle_ms, window_probe_ms = [], [], [], []
    errors = []
    scenario = result = None
    for _ in range(WINDOWS if measure else 1):
        if measure:
            # Set-up runs between the windows see the host at as many
            # moments as the windows do.
            setup_runs += setup_seconds(builtin, seed, ticks, SETUPS_PER_GAP)
        # Every window starts from the same heap: only the first run's
        # result stays alive, and nothing is left for the collector.
        gc.collect()
        with yardstick.interleaved() if measure else nullcontext() as probes:
            run_scenario_, run_result, wall = execute(builtin, seed, ticks)
        window_cycle_ms.append(cycle_times_ms(run_result))
        if measure:
            window_probe_ms.append(np.concatenate(
                [probes[agent] for agent in run_result.reports]))
            wall -= window_probe_ms[-1].sum() / 1e3
        walls.append(wall)
        if result is None:
            scenario, result = run_scenario_, run_result
            outcome = (fingerprint(result), quality(result))
        elif (fingerprint(run_result), quality(run_result)) != outcome:
            errors.append("a repeated run of the seed gave another outcome")
        del run_scenario_, run_result
    errors += check_run(scenario, result, OUT / f"{tag}_trajectories.csv")
    cycles, failed, statuses = cycle_outcomes(result)
    # The windows repeat identical work: every one of them counts, and each
    # cycle's fastest repeat is the one the host disturbed least.
    attempted, failed = cycles * len(walls), failed * len(walls)
    cycle_ms = np.min(window_cycle_ms, axis=0)
    q = outcome[1]
    record = {"workload": workload, "builtin": builtin, "seed": seed,
              "layout_seed": spec.LAYOUT_SEED, "seconds": seconds,
              "trace": trace, "sim_s": sim_s, "ticks": ticks,
              "n_agents": n_agents, "wall_s": walls, "cycles": cycles,
              "windows": len(walls),
              "statuses": statuses, "quality": q,
              "fingerprint": outcome[0]}

    if trace:
        tracer = Tracer()
        _, traced, traced_wall = execute(builtin, seed, ticks, tracer)
        if (fingerprint(traced), quality(traced)) != outcome:
            errors.append("the traced run differs from the untraced run")
        tracer.save(OUT / f"{tag}_spans.npz")
        layers, samples = tracer.layer_metrics()
        layers["trace.overhead_s"] = traced_wall - walls[0]
        counts = json.dumps(tracer.deterministic_counts(), sort_keys=True)
        record.update(traced_wall_s=traced_wall, span_samples=samples,
                      per_layer=layers,
                      trace_counts_digest=hashlib.sha256(
                          counts.encode()).hexdigest())
        # A span that never ran has no latency percentiles: reported as 0.
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec.per_layer()}
    elif baseline:
        # The baseline table row carries everything this mode reports.
        metrics = {}
    else:
        setup_runs += setup_seconds(builtin, seed, ticks, 1)
        setup = statistics.median(setup_runs)
        # Each cycle in probe times (ref_ms), at its fastest repeat, and each
        # window's wall time in its mean probe time (seconds over ms: ref_s);
        # see yardstick.py.
        cycle_ref = np.min(np.divide(window_cycle_ms, window_probe_ms), axis=0)
        ref_s = sum(wall / probe.mean()
                    for wall, probe in zip(walls, window_probe_ms))
        values = {
            "realtime_factor_ref": sim_s * len(walls) / ref_s,
            "cycle_p50_ref": float(np.percentile(cycle_ref, 50)),
            "cycle_p95_ref": float(np.percentile(cycle_ref, 95)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup,
        }
        # Wall-clock figures, printed and kept in the record; they carry the
        # host's changing speed.
        wall_clock = {
            "realtime_factor": sim_s * len(walls) / sum(walls),
            "cycle_p50_ms": float(np.percentile(cycle_ms, 50)),
            "cycle_p95_ms": float(np.percentile(cycle_ms, 95)),
            "probe_p50_ms": float(np.median(np.concatenate(window_probe_ms))),
        }
        record.update(setup_runs_s=setup_runs, end_to_end=values,
                      wall_clock=wall_clock)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec.END_TO_END}

    if errors:
        failed = attempted
    record.update(errors=errors, failed=failed,
                  fallback_frac=failed / attempted,
                  environment=environment(),
                  baseline_row=baseline_row(workload, builtin, n_agents, sim_s,
                                            min(walls), cycle_ms, statuses, q))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    report(record, metrics)
    return not errors, attempted, failed, metrics, record["baseline_row"]


def report(record, metrics):
    print(f"== {record['workload']} ({record['builtin']}), seed "
          f"{record['seed']}: {record['windows']} windows of "
          f"{record['sim_s']:g} simulated s, {record['cycles']} cycles of "
          f"{record['n_agents']} agents each")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in record.get("wall_clock", {}).items():
        unit = "sim_s/s" if name == "realtime_factor" else "ms"
        print(f"{name} = {value:.6g} {unit} (wall clock)")
    print(f"fallback_frac = {record['fallback_frac']:.4f} "
          f"(failed cycles / {record['cycles'] * record['windows']} cycles)")
    for name, value in record["quality"].items():
        unit = "m" if name.endswith("_m") else "count"
        print(f"{name} = {'n/a (no obstacles)' if value is None else value} "
              f"{'' if value is None else unit}".rstrip())
    if "per_layer" in record:
        print(f"tracing overhead = {record['per_layer']['trace.overhead_s']:.3f} s "
              f"({record['traced_wall_s']:.2f} s traced, "
              f"{record['wall_s'][0]:.2f} s untraced)")
    print(f"environment = {json.dumps(record['environment'])}")
    print(BASELINE_HEADER)
    print(record["baseline_row"])
    for error in record["errors"]:
        print(f"CHECK FAILED: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="run every workload once at its builtin's "
                             "default duration and print the baseline table")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "swarmplan").is_dir():
        print(f"swarmplan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = (list(spec.WORKLOADS) if args.workload == "all" or args.baseline
                 else [args.workload])
    correct, attempted, failed, metrics, rows = True, 0, 0, {}, []
    for workload in workloads:
        try:
            ok, n, bad, values, row = run_workload(
                workload, args.seed, args.seconds, args.trace, args.baseline)
            rows.append(row)
        except Exception:
            # A run that raises fails every cycle it was meant to run.
            traceback.print_exc()
            _, n_agents, ticks = window(workload, args.seconds, args.baseline)
            ok, n, bad, values = False, n_agents * ticks, n_agents * ticks, {}
        correct &= ok
        attempted += n
        failed += bad
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update({f"{workload}.{k}": v for k, v in values.items()})
    if len(rows) > 1:
        print(BASELINE_HEADER)
        print("\n".join(rows))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
