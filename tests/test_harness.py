"""Closed-loop runs end to end: determinism and the CSV round trip.

Each builtin runs at its default seed and, unless DURATIONS shortens it,
its default duration.  `walled_in` exercises obstacles, the relaxed retry
and the fallback ladder; `open` is the plain two-agent swap; `antipodal`
is eight agents over the 1.6 s swarm_swap bench window, where every agent
tracks seven peers and dozens of tracks open on one-state bootstraps;
`intersection` is the 1.4 s corridor_cross bench window, where the region
seeds meet long corridor walls; `unstructured` is the 2.0 s
clutter_waypoints bench window, where a cluttered map fills the moving
volume's slice x shape mask and obstacle admission decides between shapes.
`test_command_writes_the_run` runs `swarmplan run open` for 1 s through
`cli.main` and holds its CSV to an in-process run of the same builtin and
its `metrics.json` to the motion metrics recomputed from that CSV.
`test_run_seed_changes_nothing_on_a_lossless_bus` runs 0.4 s of
intersection at run seeds 0 and 1 and holds the two to the same tables
and cycle outcomes.
`test_sixteen_agents_cut_as_the_chain` runs sixteen antipodal agents for
0.4 s and holds every peer cut to the track-by-track chain of
`test_regions.old_peer_cuts`.  `test_solves_end_in_a_definite_answer`
holds every QP solve of 0.8 s of each builtin to `optimal` or
`infeasible`, never the iteration cap's `maxiter`.
`test_static_regions_keep_out_every_member_shape` holds every static
region of 0.8 s of intersection and unstructured to the property the
regions are built for: a row of the region keeps out each shape its slice
holds.  `test_cycles_start_on_free_space` holds the same two windows to
the seeding's premise: no cycle starts with the robot inside a shape of
its map, and no slice of a moving volume is seeded inside a shape.  `test_admission_is_the_shapes_that_own_a_row` holds every
cycle's obstacle admission to the shapes that own one of those rows, over
the same unstructured run and 4.0 s of intersection at layout seed 1,
where the old stacked-support rule admits other shapes.

The package memoizes B-spline bases, difference matrices, Grams, QP
equality eliminations and factors, limit blocks and emptiness-test index
tables across runs;
`test_runs_do_not_depend_on_the_memos` finds every memo of the package,
runs one window from all of them empty and again from memos another
scenario filled.

`test_the_cycle_calls_no_python_level_helper` counts, over 0.4 s of
intersection and antipodal, the package's calls inside `Agent.agent_cycle`
of numpy helpers that run Python code before their C loop (np.stack,
np.ndim, np.clip, ...); every count must be 0 but the one np.errstate of
the peer cut.

The table is read from each agent's executed path in one array pass;
`test_table_equals_per_sample_reads` holds it to one `state` read per
sample.
"""

import importlib
import json
import pkgutil
import sys
from collections import Counter
from dataclasses import replace

import pytest

import numpy as np

import swarmplan
from swarmplan import cli, harness, planner, regions, runtime
from swarmplan.harness import build_agents, run_scenario
from swarmplan.metrics import (RunMetrics, compute_motion_metrics,
                               read_trajectories)
from swarmplan.planner import TAU
from swarmplan.scenario import builtin_scenario
from test_regions import assert_same_cut, old_peer_cuts

# Wall-clock fields of RunMetrics; every other field is deterministic.
TIMING_FIELDS = ("solve_times", "cycle_times")

# Simulated seconds of the builtins run shorter than their default.
DURATIONS = {"antipodal": 1.6, "intersection": 1.4, "unstructured": 2.0}


def outcomes(result):
    return {agent: [(r.status, r.iterations, r.flags) for r in reports]
            for agent, reports in result.reports.items()}


def deterministic(metrics):
    d = metrics.to_dict()
    for key in TIMING_FIELDS:
        del d[key]
    return d


def check_run(scenario, tmp_path):
    """Run the scenario twice, the first time writing its CSV: both runs
    must agree bit for bit, no stage may raise, and the motion metrics
    recomputed from the CSV must equal the run's.  Returns the first run."""
    first = run_scenario(scenario, out_dir=tmp_path)
    second = run_scenario(scenario)

    assert first.table.keys() == second.table.keys()
    for agent in first.table:
        assert np.array_equal(first.table[agent], second.table[agent])
    assert outcomes(first) == outcomes(second)
    assert deterministic(first.metrics) == deterministic(second.metrics)
    # Flags of the form "<stage>:<exception>" mean a stage raised.
    assert not [f for reports in first.reports.values() for r in reports
                for f in r.flags if ":" in f]
    check_written(tmp_path, first, scenario.obstacles,
                  first.metrics.to_dict())
    return first


def check_written(out_dir, run, obstacles, saved):
    """The CSV in out_dir must hold the run's table bit for bit, and the
    motion metrics recomputed from it must equal those of `saved`, a
    metrics dict as `metrics.json` holds it."""
    table = read_trajectories(out_dir / "trajectories.csv")
    assert table.keys() == run.table.keys()
    for agent in table:
        assert np.array_equal(table[agent], run.table[agent])
    motion = compute_motion_metrics(
        table, footprints=[s.footprint for s in run.resolved],
        goals=[s.goal for s in run.resolved],
        limits=[s.limits for s in run.resolved],
        obstacles=list(obstacles))
    recomputed = RunMetrics(**{**saved, **motion}).to_dict()
    for key in motion:
        assert repr(recomputed[key]) == repr(saved[key]), key


def test_command_writes_the_run(tmp_path, capsys):
    # `swarmplan run` writes what an in-process run of the builtin holds.
    assert cli.main(["run", "open", "--duration", "1",
                     "--out", str(tmp_path)]) == 0
    run = run_scenario(builtin_scenario("open", duration=1.0))
    saved = json.loads((tmp_path / "metrics.json").read_text())
    check_written(tmp_path, run, [], saved)
    assert {k: v for k, v in saved.items()
            if k not in TIMING_FIELDS} == deterministic(run.metrics)
    statuses = run.metrics.cycle_statuses
    assert capsys.readouterr().out == (
        f"{tmp_path}: " + ", ".join(f"{n} {status}" for status, n
                                    in sorted(statuses.items())) + "\n")


def test_command_rejects_an_unbuildable_scenario(tmp_path, capsys):
    # intersection's six agents are fixed, and unstructured has four
    # corner starts: either count is a usage error.  So is an unstructured
    # layout with a waypoint no draw keeps clear of the obstacles.
    for name, option, message in (
            ("intersection", ["--agents", "3"], "fixed agent count"),
            ("unstructured", ["--agents", "5"], "at most 4 agents"),
            ("unstructured", ["--seed", "672"],
             "unstructured seed 672: no draw of agent")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", name, *option, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["open", "walled_in", "antipodal",
                                  "intersection", "unstructured"])
def test_builtin_runs_are_bitwise_reproducible(name, tmp_path):
    first = check_run(builtin_scenario(name, duration=DURATIONS.get(name)),
                      tmp_path)
    if name == "walled_in":
        statuses = first.metrics.cycle_statuses
        assert statuses.get("relaxed", 0) > 0 and statuses.get("fallback", 0) > 0


def test_run_seed_changes_nothing_on_a_lossless_bus():
    # The run seed draws only bus drops, so on a lossless bus every run
    # seed does the same work: equal tables and cycle outcomes, and the
    # run flies the scenario's own specs.
    scenario = builtin_scenario("intersection", duration=0.4)
    runs = [run_scenario(replace(scenario, seed=s)) for s in (0, 1)]
    assert runs[0].table.keys() == runs[1].table.keys()
    for agent in runs[0].table:
        assert runs[0].table[agent].tobytes() == runs[1].table[agent].tobytes()
    assert outcomes(runs[0]) == outcomes(runs[1])
    for run in runs:
        assert len(run.resolved) == len(scenario.agents)
        assert all(spec is agent
                   for spec, agent in zip(run.resolved, scenario.agents))


def test_sixteen_agents_cut_as_the_chain(tmp_path, monkeypatch):
    # Sixteen agents swap across the antipodal circle for 0.4 s.  Each
    # robot holds 15 tracks from its second cycle on (30 in the last, where
    # every peer opens a second track), about twice the most any other
    # test drives.  Every peer cut of both runs must equal the write-once
    # track-by-track chain bit for bit.
    tracks = []

    def checked(*args):
        got = peer_cuts(*args)
        assert_same_cut(args[0], got, old_peer_cuts(*args))
        tracks.append(len(args[2]))
        return got

    peer_cuts = regions._peer_cuts
    monkeypatch.setattr(regions, "_peer_cuts", checked)
    check_run(builtin_scenario("antipodal", n_agents=16, duration=0.4),
              tmp_path)
    assert max(tracks) >= 15


@pytest.mark.parametrize("name", ["open", "walled_in", "antipodal",
                                  "intersection", "unstructured"])
def test_solves_end_in_a_definite_answer(name, monkeypatch):
    statuses = Counter()

    def counted(problem):
        solution = solve_qp(problem)
        statuses[solution.status] += 1
        return solution

    solve_qp = planner.solve_qp
    monkeypatch.setattr(planner, "solve_qp", counted)
    run_scenario(builtin_scenario(name, duration=0.8))
    assert sum(statuses.values()) >= 20
    assert set(statuses) <= {"optimal", "infeasible"}, statuses


@pytest.mark.parametrize("name", ["intersection", "unstructured"])
def test_static_regions_keep_out_every_member_shape(name, monkeypatch):
    # Each shape a slice holds lies beyond one row of the slice's static
    # region, so no static region meets a shape it holds.  A slice whose
    # seed is inside one of its shapes, or within the distance kernels'
    # 1e-12 of one, is skipped.
    # The agent turns an exception in a stage into a flag, so the wrapper
    # records the shapes no row keeps out and the test asserts afterwards.
    held, missed = [], []

    def checked(volume, *args, **kwargs):
        region = build(volume, *args, **kwargs)
        for k, seed in enumerate(volume.centers):
            shapes = [volume.shapes[j]
                      for j in np.flatnonzero(volume.member[k])]
            if any(s.distance(seed) <= 1e-12 for s in shapes):
                continue
            static = region.static.polytope(k)
            missed.extend((k, seed, s) for s in shapes
                          if (static.offsets
                              + s.support(-static.normals)).min() > 1e-9)
            held.append(len(shapes))
        return region

    build = runtime.build_safe_regions
    monkeypatch.setattr(runtime, "build_safe_regions", checked)
    result = run_scenario(builtin_scenario(name, duration=0.8))
    assert not [f for reports in result.reports.values() for r in reports
                for f in r.flags if ":" in f]
    assert sum(held) > 1000
    assert not missed, f"{len(missed)} shapes no row keeps out: {missed[:3]}"


@pytest.mark.parametrize("name", ["intersection", "unstructured"])
def test_cycles_start_on_free_space(name, monkeypatch):
    # The map drops every shape over the robot when it recenters, before
    # the moving volume is built, and each slice seeds on the last free
    # row of the old plan, so no cycle starts with the robot inside a
    # shape of its map and no volume center lies inside a shape.  Without
    # the carve and the re-seeding, 2.0 s of unstructured start 21 cycles
    # with a robot inside a map shape and seed 885 slices inside one.
    volumes, inside = [], []

    def build(local_map, *args, **kwargs):
        volume = real_build(local_map, *args, **kwargs)
        robot = local_map.origin
        inside.extend((robot, s) for s in local_map.shapes()
                      if s.contains(robot))
        inside.extend(volume.centers[(volume.distances == 0.0).any(axis=1)])
        volumes.append(volume)
        return volume

    real_build = runtime.build_moving_volume
    monkeypatch.setattr(runtime, "build_moving_volume", build)
    result = run_scenario(builtin_scenario(name, duration=DURATIONS[name]))
    assert not [f for reports in result.reports.values() for r in reports
                for f in r.flags if ":" in f]
    assert len(volumes) == sum(len(r) for r in result.reports.values())
    assert sum(v.member.sum() for v in volumes) > 10000
    assert not inside, f"{len(inside)} inside: {inside[:3]}"


# (layout seed, seconds) of each admission run.  Until intersection's
# agents near the crossing, each cycle offers only the walls beside it and
# the old stacked-support rule admits what the record admits; at layout
# seed 1, 4.0 s take in three cycles where the two rules part, and 0.8 s of
# unstructured hold many.
ADMISSION_RUNS = {"intersection": (1, 4.0), "unstructured": (0, 0.8)}


@pytest.mark.parametrize("name", ["intersection", "unstructured"])
def test_admission_is_the_shapes_that_own_a_row(name, monkeypatch):
    # Every cycle admits to the obstacle cost the volume columns j whose
    # row n = -u[k, j], o = n.seed + d[k, j] is, bit for bit, one of the
    # static rows of some slice k whose seed lies in none of its shapes:
    # the shapes that bound the regions, recomputed from the stack alone.
    built, checked, wrong = [], [], []

    def build(volume, *args, **kwargs):
        region = real_build(volume, *args, **kwargs)
        built.append((volume, region))
        return region

    def admit(shapes, region):
        got = real_admit(shapes, region)
        volume, own = built[-1]
        assert own is region and volume.shapes is shapes
        want = set()
        for k, seed in enumerate(volume.centers):
            held = np.flatnonzero(volume.member[k])
            if (volume.distances[k, held] == 0.0).any():
                continue
            c = region.static.counts[k]
            normals = region.static.normals[k, :c]
            offsets = region.static.offsets[k, :c]
            for j in held:
                n = -volume.gradients[k, j]
                o = float(n @ seed) + volume.distances[k, j]
                if ((normals == n).all(axis=1) & (offsets == o)).any():
                    want.add(int(j))
        if got != sorted(want):
            wrong.append((len(checked), got, sorted(want)))
        checked.append((len(shapes), len(got)))
        return got

    real_build, real_admit = runtime.build_safe_regions, runtime.admit_obstacles
    monkeypatch.setattr(runtime, "build_safe_regions", build)
    monkeypatch.setattr(runtime, "admit_obstacles", admit)
    seed, seconds = ADMISSION_RUNS[name]
    result = run_scenario(builtin_scenario(name, seed=seed, duration=seconds))
    assert not [f for reports in result.reports.values() for r in reports
                for f in r.flags if ":" in f]
    assert len(checked) == sum(len(r) for r in result.reports.values())
    assert not wrong, f"{len(wrong)} cycles admit other shapes: {wrong[:3]}"
    offered, admitted = np.sum(checked, axis=0)
    assert 0 < admitted <= offered


def package_memos():
    """Every functools cache defined at module level in the package."""
    memos = []
    for info in pkgutil.iter_modules(swarmplan.__path__):
        module = importlib.import_module(f"swarmplan.{info.name}")
        memos += [obj for obj in vars(module).values()
                  if hasattr(obj, "cache_clear")
                  and obj.__module__ == module.__name__]
    return memos


def test_runs_do_not_depend_on_the_memos():
    scenario = builtin_scenario("antipodal", duration=DURATIONS["antipodal"])
    memos = package_memos()
    assert {f"{m.__module__}.{m.__name__}" for m in memos} >= {
        "swarmplan.bspline._memo_basis", "swarmplan.bspline.difference_matrix",
        "swarmplan.bspline.derivative_gram", "swarmplan.qp._eliminate",
        "swarmplan.qp._factor", "swarmplan.planner._limit_block",
        "swarmplan.regions._index_tables"}
    for memo in memos:
        memo.cache_clear()
    cold = run_scenario(scenario)
    run_scenario(builtin_scenario("unstructured",
                                  duration=DURATIONS["unstructured"]))
    assert all(memo.cache_info().currsize for memo in memos)
    warm = run_scenario(scenario)

    assert cold.table.keys() == warm.table.keys()
    for agent in cold.table:
        assert cold.table[agent].tobytes() == warm.table[agent].tobytes()
    assert outcomes(cold) == outcomes(warm)
    assert deterministic(cold.metrics) == deterministic(warm.metrics)


# numpy's Python-level helpers that the agent cycle no longer calls: each
# has a ufunc, array-method or np.array form that gives the same bits
# without the Python frames.  `regions._peer_cuts` keeps its np.errstate,
# whose NaN lanes feed its later masks.
PYTHON_LEVEL = ("stack", "hstack", "column_stack", "tile", "broadcast_to",
                "atleast_1d", "atleast_2d", "take_along_axis", "diff",
                "clip", "ndim", "flatnonzero", "nonzero", "argsort",
                "argmin", "argmax", "searchsorted", "all", "any", "max", "sum",
                "median", "errstate")
KEPT = {("errstate", "_peer_cuts")}


@pytest.mark.parametrize("name", ["intersection", "antipodal"])
def test_the_cycle_calls_no_python_level_helper(name, monkeypatch):
    calls = Counter()
    inside = [False]

    def counted(helper, fn):
        def call(*args, **kwargs):
            caller = sys._getframe(1)
            if inside[0] and caller.f_globals["__name__"].startswith(
                    "swarmplan."):
                calls[helper, caller.f_code.co_name] += 1
            return fn(*args, **kwargs)
        return call

    for helper in PYTHON_LEVEL:
        monkeypatch.setattr(np, helper, counted(helper, getattr(np, helper)))
    cycle = runtime.Agent.agent_cycle

    def watched(agent, now):
        inside[0] = True
        try:
            return cycle(agent, now)
        finally:
            inside[0] = False

    monkeypatch.setattr(runtime.Agent, "agent_cycle", watched)
    result = run_scenario(builtin_scenario(name, duration=0.4))
    reports = [r for rs in result.reports.values() for r in rs]
    assert any(r.scan_processed for r in reports)
    if name == "intersection":
        assert any(r.status == "relaxed" for r in reports)
    assert not set(calls) - KEPT, calls


def per_sample_table(path, times):
    """An agent's table as one `state` read per sample."""
    data = np.empty((len(times), 7))
    data[:, 0] = times
    for s, t in enumerate(times):
        stack = path.state(t, 3)
        data[s, 1:3] = stack[0]
        data[s, 3:5] = stack[1]
        data[s, 5:7] = stack[2]
    return data


@pytest.mark.parametrize("name", ["walled_in", "unstructured"])
def test_table_equals_per_sample_reads(name, monkeypatch):
    built = []

    def keep(*args):
        built.extend(build_agents(*args))
        return built

    monkeypatch.setattr(harness, "build_agents", keep)
    scenario = builtin_scenario(name, duration=DURATIONS.get(name))
    result = run_scenario(scenario)
    times = np.arange(int(round(scenario.duration / TAU)) + 1) * TAU
    assert [a.index for a in built] == list(result.table)
    for a in built:
        want = per_sample_table(a.path, times)
        assert result.table[a.index].tobytes() == want.tobytes()
