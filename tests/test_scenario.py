"""Tests for scenario construction checks and the builtins."""

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
)
from swarmplan.scenario import _clear_of_obstacles


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
        agents = [AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0), goal_time=4.0),
                  AgentSpec(start=(0.5, 0.0), goal=(3.0, 2.0), goal_time=4.0)]
        with pytest.raises(ValueError) as exc:
            Scenario(agents=agents)
        assert str(exc.value) == ("agents 0 and 1 start overlap after "
                                  "footprint inflation (gap -0.100 m)")

    def test_waypoint_times_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            AgentSpec(start=(0, 0), goal=(5, 0), goal_time=9.0,
                      waypoints=[(2.0, (1, 0)), (1.0, (2, 0))])

    @pytest.mark.parametrize("seed, order", [(1.0, 2), (0, 2.0)],
                             ids=["seed", "order"])
    def test_integral_floats_run(self, seed, order):
        # An integral float seed or order reaches the run as an int.
        sc = Scenario(agents=[AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0),
                                        goal_time=3.5, order=order)],
                      seed=seed, duration=0.2)
        assert type(sc.seed) is int and type(sc.agents[0].order) is int
        result = run_scenario(sc)
        assert all(np.isfinite(t).all() for t in result.table.values())

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Scenario(agents=[AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0),
                                       goal_time=4.0)], seed=0.5)

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
                             goal_time=4.0, footprint=(0.5,))
        clear = AgentSpec(start=(-1.50001, 0.0), goal=(-3.0, 0.0),
                          goal_time=4.0, footprint=(0.5,))
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
        inside = AgentSpec(start=(0.5, 0.0), goal=(3.0, 0.0), goal_time=4.0)
        outside = AgentSpec(start=(6.0, 0.0), goal=(3.0, 2.0), goal_time=4.0)
        near = AgentSpec(start=(3.2, 0.0), goal=(-3.0, 2.0), goal_time=4.0)
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
        agents = [AgentSpec(start=(0.0, 0.0), goal=(3.0, 0.0), goal_time=4.0)]
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
            Scenario(agents=[AgentSpec(start=[0.0, 0.0], goal=[1.0, 0.0],
                                       goal_time=4.0)], **world)
        assert str(exc.value) == msg


    def test_start_inside_obstacle_rejected_at_construction(self):
        with pytest.raises(ValueError, match="collides with obstacle 0"):
            Scenario(agents=[AgentSpec(start=[0.2, 0.0], goal=[3.0, 0.0],
                                       goal_time=4.0)],
                     obstacles=[Circle([0.0, 0.0], 1.0)])

    def test_start_outside_bounds_rejected_at_construction(self):
        with pytest.raises(ValueError) as exc:
            Scenario(agents=[AgentSpec(start=[0.0, 0.0], goal=[1.0, 0.0],
                                       goal_time=4.0),
                             AgentSpec(start=[6.0, 0.0], goal=[1.0, 2.0],
                                       goal_time=4.0)],
                     bounds=(-5.0, -5.0, 5.0, 5.0))
        assert str(exc.value) == ("start [6.0, 0.0] outside world bounds "
                                  "(-5.0, -5.0, 5.0, 5.0)")


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
        # Layout seeds 0-45 each place every waypoint on a draw that the
        # loop's own rule passes; 46 is the first that has none.
        for seed in range(46):
            sc = builtin_scenario("unstructured", seed=seed)
            for a in sc.agents:
                assert len(a.waypoints) == 2
                t_prev = 0.0
                for t, p in a.waypoints:
                    assert t > t_prev and t < a.goal_time
                    t_prev = t
                    assert _clear_of_obstacles(p, 0.45, sc.obstacles, 0.8)

    @pytest.mark.parametrize("seed", [46, 672])
    def test_unstructured_waypoint_that_never_clears_raises(self, seed):
        # No draw of 200 clears; the last one, at seed 672, lies inside an
        # obstacle, so keeping it would fly the robot into one.
        with pytest.raises(ValueError, match=rf"unstructured seed {seed}: "
                           r"no draw of agent \d's waypoint \d cleared"):
            builtin_scenario("unstructured", seed=seed)

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
