"""Tests for scenario construction checks, spawn resolution, and builtins."""

import math
from dataclasses import replace

import numpy as np
import pytest

from swarmplan.geometry import Circle, Rectangle
from swarmplan.harness import run_scenario
from swarmplan.scenario import (
    AgentSpec,
    Scenario,
    builtin_names,
    builtin_scenario,
    resolve_agents,
)
from swarmplan.scenario import _comfortable_arrival


def boundary_samples(shape, per_edge=32):
    if isinstance(shape, Circle):
        ang = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        return shape.center + shape.radius * np.stack(
            [np.cos(ang), np.sin(ang)], axis=1)
    pts = []
    corners = shape.corners
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        for s in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            pts.append((1 - s) * a + s * b)
    return np.asarray(pts)


class TestParsing:
    """Values that building an `AgentSpec` or a `Scenario` takes in,
    normalizes or rejects."""

    def test_empty_agent_list_rejected(self):
        with pytest.raises(ValueError, match="at least one agent"):
            Scenario(agents=[])

    def test_overlapping_fixed_starts_rejected(self):
        # Two 0.3 m footprints 0.5 m apart: reported at the later agent.
        agents = [AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0)),
                  AgentSpec(start=(0.5, 0.0), goal=(3.0, 2.0))]
        with pytest.raises(ValueError) as exc:
            Scenario(agents=agents)
        assert str(exc.value) == ("agents 0 and 1 start overlap after "
                                  "footprint inflation (gap -0.100 m)")

    def test_waypoint_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            AgentSpec(start=(0, 0), goal=(5, 0),
                      waypoints=[(2.0, (1, 0)), (1.0, (2, 0))])

    def test_partly_stamped_waypoints_out_of_order_rejected(self):
        # Resolution would stamp the first waypoint 3.0 of a 9 s goal time,
        # after the second's 1.0.
        with pytest.raises(ValueError, match="increasing"):
            AgentSpec(start=(0, 0), goal=(5, 0), goal_time=9.0,
                      waypoints=[(None, (2, 0)), (1.0, (3, 0))])

    def test_partly_stamped_waypoints_need_a_goal_time(self):
        with pytest.raises(ValueError, match="goal time"):
            AgentSpec(start=(0, 0), goal=(5, 0),
                      waypoints=[(1.0, (2, 0)), (None, (3, 0))])

    def test_partly_stamped_waypoints_in_order_accepted(self):
        spec = AgentSpec(start=(0, 0), goal=(5, 0), goal_time=9.0,
                         waypoints=[(1.0, (2, 0)), (None, (3, 0))])
        assert [t for t, _ in spec.waypoints] == [1.0, None]
        assert [t for t, _ in spec.stamped_waypoints(9.0)] == [1.0, 6.0]

    @pytest.mark.parametrize("seed, order", [(1.0, 2), (0, 2.0)],
                             ids=["seed", "order"])
    def test_integral_floats_run(self, seed, order):
        # An integral float seed or order reaches the run as an int.
        sc = Scenario(agents=[AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0),
                                        order=order)],
                      seed=seed, duration=0.2)
        assert type(sc.seed) is int and type(sc.agents[0].order) is int
        result = run_scenario(sc)
        assert all(np.isfinite(t).all() for t in result.table.values())

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Scenario(agents=[AgentSpec()], seed=0.5)

    @pytest.mark.parametrize("field, value, match", [
        ("duration", math.nan, "duration must be finite"),
        ("duration", math.inf, "duration must be finite"),
        ("bus_latency", math.nan, "latency must be finite"),
        ("bus_latency", math.inf, "latency must be finite"),
        ("bus_drop", math.nan, r"drop_probability must be in \[0, 1\]"),
    ], ids=["duration_nan", "duration_inf", "bus_latency_nan",
            "bus_latency_inf", "bus_drop_nan"])
    def test_non_finite_run_values_rejected(self, field, value, match):
        # Unchecked, these reached the run: a NaN bus latency ran with no
        # peer ever heard, and a NaN or infinite duration failed in
        # run_scenario's tick count.
        with pytest.raises(ValueError, match=match):
            replace(builtin_scenario("open", duration=1.0), **{field: value})

    def test_start_touching_obstacle_rejected(self):
        # Clearance exactly 0 is a collision, as compute_motion_metrics
        # counts it; a hair more is not.
        wall = Circle([0.0, 0.0], 1.0)
        touching = AgentSpec(start=(1.5, 0.0), goal=(3.0, 0.0),
                             footprint=(0.5,))
        clear = AgentSpec(start=(-1.50001, 0.0), goal=(-3.0, 0.0),
                          footprint=(0.5,))
        bounds = (-5.0, -5.0, 5.0, 5.0)
        with pytest.raises(ValueError) as exc:
            Scenario(agents=[clear, touching], bounds=bounds,
                     obstacles=[wall])
        assert str(exc.value) == ("start [1.5, 0.0] collides with obstacle 0 "
                                  "(clearance 0.000 m)")
        Scenario(agents=[clear], bounds=bounds, obstacles=[wall])

    def test_first_bad_start_reported(self):
        # Starts outside the bounds come first, then starts in an obstacle,
        # then overlapping pairs, each in agent order.
        wall = Circle([0.0, 0.0], 1.0)
        inside = AgentSpec(start=(0.5, 0.0), goal=(3.0, 0.0))
        outside = AgentSpec(start=(6.0, 0.0), goal=(3.0, 2.0))
        near = AgentSpec(start=(3.2, 0.0), goal=(-3.0, 2.0))
        bounds = (-5.0, -5.0, 5.0, 5.0)
        for agents, msg in (
                ([near, inside, near, outside],
                 "start [6.0, 0.0] outside world bounds (-5.0, -5.0, 5.0, 5.0)"),
                ([near, near, inside],
                 "start [0.5, 0.0] collides with obstacle 0 "
                 "(clearance -0.300 m)"),
                ([near, near],
                 "agents 0 and 1 start overlap after footprint inflation "
                 "(gap -0.600 m)")):
            with pytest.raises(ValueError) as exc:
                Scenario(agents=agents, bounds=bounds, obstacles=[wall])
            assert str(exc.value) == msg


class TestScenarioWorld:
    def test_non_finite_world_rejected(self):
        # Unchecked, a NaN obstacle built and ran without ever being
        # counted (min_obstacle_clearance inf), and an infinite bound
        # built.
        agents = [AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0))]
        with pytest.raises(ValueError, match="radius must be positive and "
                                             "finite, got nan"):
            Scenario(agents=agents, obstacles=[Circle([5.0, 5.0], math.nan)],
                     duration=0.4)
        with pytest.raises(ValueError, match="world bounds must be finite"):
            Scenario(agents=agents, bounds=(-5.0, -5.0, 5.0, math.inf))

    @pytest.mark.parametrize("world, msg", [
        (dict(bounds=(5.0, 5.0, -5.0, -5.0)),
         "degenerate world bounds (5.0, 5.0, -5.0, -5.0)"),
        (dict(bounds=(-5.0, -5.0, 5.0, 5.0),
              obstacles=[Circle([8.0, 0.0], 0.5)]),
         "obstacle center (8.0, 0.0) outside bounds")])
    def test_rejected_at_construction(self, world, msg):
        # The checks run_scenario's World would make, made before any run.
        with pytest.raises(ValueError) as exc:
            Scenario(agents=[AgentSpec(start=[0.0, 0.0], goal=[1.0, 0.0])],
                     **world)
        assert str(exc.value) == msg


    def test_start_inside_obstacle_rejected_at_construction(self):
        with pytest.raises(ValueError, match="collides with obstacle 0"):
            Scenario(agents=[AgentSpec(start=[0.2, 0.0], goal=[3.0, 0.0])],
                     obstacles=[Circle([0.0, 0.0], 1.0)])

    def test_start_outside_bounds_rejected_at_construction(self):
        with pytest.raises(ValueError) as exc:
            Scenario(agents=[AgentSpec(start=[0.0, 0.0], goal=[1.0, 0.0]),
                             AgentSpec(start=[6.0, 0.0], goal=[1.0, 2.0])],
                     bounds=(-5.0, -5.0, 5.0, 5.0))
        assert str(exc.value) == ("start [6.0, 0.0] outside world bounds "
                                  "(-5.0, -5.0, 5.0, 5.0)")


class TestSpawnResolution:
    def test_draws_stay_in_spawn_range(self):
        sc = Scenario(agents=[AgentSpec() for _ in range(4)])
        rng = np.random.default_rng(11)
        pts = []
        for _ in range(250):
            for a in resolve_agents(sc, rng):
                pts.append(a.start)
                pts.append(a.goal)
        pts = np.asarray(pts)
        assert np.all(np.abs(pts) <= 10.0)

    def test_draws_stay_in_small_world_and_runs_start(self):
        # The spawn square is clipped to bounds smaller than it; unclipped,
        # four of these five seeds drew a start the scanner rejects.
        for seed in range(5):
            sc = Scenario(agents=[AgentSpec()], seed=seed, duration=0.08,
                          bounds=(-4.0, -4.0, 4.0, 4.0))
            result = run_scenario(sc)
            a, = result.resolved
            assert np.all(np.abs(a.start) <= 4.0)
            assert np.all(np.abs(a.goal) <= 4.0)

    def test_spawn_square_missing_the_bounds_raises(self):
        sc = Scenario(agents=[AgentSpec()], bounds=(20.0, 20.0, 30.0, 30.0))
        with pytest.raises(RuntimeError, match="could not place a random spawn"):
            resolve_agents(sc, np.random.default_rng(0))

    def test_headings_are_integer_degrees(self):
        sc = Scenario(agents=[AgentSpec() for _ in range(3)])
        res = resolve_agents(sc, np.random.default_rng(2))
        for a in res:
            deg = math.degrees(a.heading)
            assert abs(deg - round(deg)) < 1e-9
            assert 0 <= deg < 360

    def test_deterministic_per_seed(self):
        sc = Scenario(agents=[AgentSpec() for _ in range(5)])
        r1 = resolve_agents(sc, np.random.default_rng(9))
        r2 = resolve_agents(sc, np.random.default_rng(9))
        r3 = resolve_agents(sc, np.random.default_rng(10))
        for a, b in zip(r1, r2):
            assert np.array_equal(a.start, b.start)
            assert a.heading == b.heading
        assert any(not np.array_equal(a.start, c.start)
                   for a, c in zip(r1, r3))

    def test_spawns_avoid_obstacles_and_each_other(self):
        obstacles = [Circle((0.0, 0.0), 4.0)]
        sc = Scenario(agents=[AgentSpec() for _ in range(6)],
                      obstacles=obstacles)
        rng = np.random.default_rng(4)
        for _ in range(50):
            res = resolve_agents(sc, rng)
            starts = [a.start for a in res]
            for s in starts:
                assert obstacles[0].distance(s) >= 0.3 + 0.3
            for i in range(len(starts)):
                for j in range(i + 1, len(starts)):
                    assert np.linalg.norm(starts[i] - starts[j]) > 0.6

    def test_goal_at_least_two_meters_out(self):
        sc = Scenario(agents=[AgentSpec()])
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, = resolve_agents(sc, rng)
            assert np.linalg.norm(a.goal - a.start) >= 2.0

    def test_draws_start_heading_then_goal(self):
        # Per agent: spawn draws until one is accepted, then the heading,
        # then goal draws until one lies 2 m out.
        a, = resolve_agents(Scenario(agents=[AgentSpec()]),
                            np.random.default_rng(5))
        ref = np.random.default_rng(5)
        start = ref.uniform(-10.0, 10.0, 2)
        heading = math.radians(float(ref.integers(0, 360)))
        goal = ref.uniform(-10.0, 10.0, 2)
        while np.linalg.norm(goal - start) < 2.0:
            goal = ref.uniform(-10.0, 10.0, 2)
        assert np.array_equal(a.start, start) and a.heading == heading
        assert np.array_equal(a.goal, goal)

    def test_fixed_start_kept_verbatim(self):
        sc = Scenario(agents=[AgentSpec(start=(1.5, -2.0), goal=(4.0, 4.0),
                                        heading=0.25)])
        a, = resolve_agents(sc, np.random.default_rng(0))
        assert np.array_equal(a.start, [1.5, -2.0])
        assert a.heading == 0.25

    def test_unstamped_waypoints_spread_evenly(self):
        spec = AgentSpec(start=(0, 0), goal=(9, 0), goal_time=6.0,
                         waypoints=[(None, (3, 0)), (None, (6, 0))])
        sc = Scenario(agents=[spec])
        a, = resolve_agents(sc, np.random.default_rng(0))
        assert a.waypoints[0][0] == pytest.approx(2.0)
        assert a.waypoints[1][0] == pytest.approx(4.0)

    def test_unset_goal_time_resolves_to_comfortable_arrival(self):
        specs = [AgentSpec(start=(0, 0), goal=(6, 0)),
                 AgentSpec(start=(0, 3), goal=(4, 5), order=3,
                           limits={1: 1.5, 2: 3.0}),
                 AgentSpec(start=(0, -3), goal=(4, -3), goal_time=7)]
        resolved = resolve_agents(Scenario(agents=specs),
                                  np.random.default_rng(0))
        for spec, a in zip(specs[:2], resolved):
            want = _comfortable_arrival(a.start, a.goal, a.limits)
            assert type(a.goal_time) is float and a.goal_time == want
            assert spec.goal_time is None
        assert type(resolved[2].goal_time) is float
        assert resolved[2].goal_time == 7.0

    def test_unstamped_waypoints_without_goal_time_get_stamps(self):
        spec = AgentSpec(start=(0, 0), goal=(6, 0),
                         waypoints=[(None, (3, 0))])
        sc = Scenario(agents=[spec])
        a, = resolve_agents(sc, np.random.default_rng(0))
        t = a.waypoints[0][0]
        assert t is not None and t > 0


class TestBuiltins:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_scenario("motorway")

    def test_open_default_is_head_on_pair(self):
        sc = builtin_scenario("open")
        assert len(sc.agents) == 2
        a, b = sc.agents
        assert np.allclose(a.goal, -b.goal)
        assert np.linalg.norm(a.goal) == pytest.approx(5.0)

    def test_antipodal_ring(self):
        sc = builtin_scenario("antipodal", seed=1)
        assert len(sc.agents) == 8
        for a in sc.agents:
            assert np.linalg.norm(a.start) == pytest.approx(5.0, abs=0.05)
            assert np.linalg.norm(a.goal) == pytest.approx(5.0)
            assert np.linalg.norm(a.start + a.goal) < 0.05
            assert a.goal_time == 9.0 and a.order == 2

    def test_antipodal_jitter_varies_with_seed(self):
        s1 = builtin_scenario("antipodal", seed=1)
        s2 = builtin_scenario("antipodal", seed=2)
        assert any(not np.array_equal(a.start, b.start)
                   for a, b in zip(s1.agents, s2.agents))
        for a, b in zip(s1.agents, s2.agents):
            assert np.array_equal(a.goal, b.goal)
            assert np.linalg.norm(a.start - b.start) < 0.1

    def test_agent_count_override(self):
        sc = builtin_scenario("open", n_agents=5)
        assert len(sc.agents) == 5

    @pytest.mark.parametrize("name, n_agents, match", [
        ("open", 0, "at least 1"),
        ("antipodal", 0, "at least 1"),
        ("unstructured", -1, "at least 1"),
        pytest.param("unstructured", 5,
                     r"corners \[\(-6.0, -6.0\), \(6.0, 6.0\), "
                     r"\(-6.0, 6.0\), \(6.0, -6.0\)\]: at most 4 agents, "
                     r"got 5", id="unstructured-5-at most 4"),
        ("intersection", 16, "fixed agent count"),
        ("intersection", 6, "fixed agent count"),
        ("walled_in", 3, "fixed agent count")])
    def test_agent_count_rejected(self, name, n_agents, match):
        # Unchecked, 0 agents ran the builtin's default count,
        # intersection and walled_in ignored the count they were given, and
        # unstructured's fifth agent started on the first one's corner.
        with pytest.raises(ValueError, match=match):
            builtin_scenario(name, n_agents=n_agents)

    @pytest.mark.parametrize("name", builtin_names())
    def test_zero_duration_kept(self, name):
        assert builtin_scenario(name, duration=0.0).duration == 0.0

    def test_intersection_layout(self):
        sc = builtin_scenario("intersection", seed=0)
        assert len(sc.agents) == 6
        assert all(a.order == 4 for a in sc.agents)
        assert sum(a.end_velocity is not None for a in sc.agents) == 2
        assert len(sc.obstacles) == 4
        assert all(isinstance(o, Rectangle) for o in sc.obstacles)
        # The crossing itself and both corridors stay free of walls.
        for o in sc.obstacles:
            assert o.distance((0.0, 0.0)) >= 2.0
            for x in np.linspace(-11, 11, 23):
                assert o.distance((x, 0.0)) >= 1.5
                assert o.distance((0.0, x)) >= 1.5

    def test_unstructured_obstacle_spacing(self):
        sc = builtin_scenario("unstructured", seed=6)
        assert len(sc.obstacles) == 10
        rings = [boundary_samples(o) for o in sc.obstacles]
        for i in range(10):
            for j in range(i + 1, 10):
                gap = min(sc.obstacles[j].distance(p) for p in rings[i])
                assert gap >= 1.5 - 1e-6

    def test_unstructured_waypoints_clear_obstacles(self):
        for seed in (0, 3, 12):
            sc = builtin_scenario("unstructured", seed=seed)
            for a in sc.agents:
                assert len(a.waypoints) == 2
                t_prev = 0.0
                for t, p in a.waypoints:
                    assert t > t_prev and t < a.goal_time
                    t_prev = t
                    for o in sc.obstacles:
                        assert o.distance(p) >= 0.45

    @pytest.mark.parametrize("name", builtin_names())
    def test_fixed_starts_clear_every_obstacle(self, name):
        for seed in range(3):
            # Building checks the starts; a rebuild from the parts does too.
            sc = builtin_scenario(name, seed=seed)
            Scenario(agents=sc.agents, bounds=sc.bounds,
                     obstacles=sc.obstacles)

    @pytest.mark.parametrize("name", builtin_names())
    def test_limits_fit_the_plan_splines(self, name):
        # Building checks it too: AgentSpec rejects a limit on an order
        # above its plan spline's degree, order + 1.
        for seed in range(3):
            sc = builtin_scenario(name, seed=seed)
            assert all(k <= a.order + 1 for a in sc.agents for k in a.limits)

    def test_walled_in_box_seals_the_agent(self):
        sc = builtin_scenario("walled_in")
        agent = sc.agents[0]
        assert np.array_equal(agent.start, [0.0, 0.0])
        assert np.array_equal(agent.goal, [8.0, 0.0])
        # Every ray out of the box crosses a wall.
        for ang in np.linspace(0, 2 * math.pi, 72, endpoint=False):
            probe = 4.0 * np.array([math.cos(ang), math.sin(ang)])
            hit = any(o.contains(probe * s) for o in sc.obstacles
                      for s in np.linspace(0.3, 1.0, 40))
            assert hit
        # Second waypoint sits outside the box, first inside.
        (t1, p1), (t2, p2) = agent.waypoints
        assert t1 == 1.0 and t2 == 5.2
        assert all(not o.contains(p1) for o in sc.obstacles)
        assert np.linalg.norm(p1, np.inf) < 2.5
        assert p2[0] > 3.0
