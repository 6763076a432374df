"""Tests for scenario parsing, validation, spawn resolution, and builtins."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from swarmplan.geometry import Circle, Rectangle
from swarmplan.harness import run_scenario
from swarmplan.scenario import (
    AgentSpec,
    Scenario,
    ScenarioError,
    builtin_names,
    builtin_scenario,
    index_json_lines,
    load_scenario,
    parse_scenario,
    resolve_agents,
    save_scenario,
    scenario_to_dict,
)
from swarmplan.scenario import _comfortable_arrival, _start_errors

MINIMAL = {"agents": [{"start": [0.0, 0.0], "goal": [3.0, 0.0]}]}


def limits_equal(a, b):
    return (a.keys() == b.keys()
            and all(np.allclose(a[k][0], b[k][0])
                    and np.allclose(a[k][1], b[k][1]) for k in a))


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
    def test_minimal_document_defaults(self):
        sc = parse_scenario(json.dumps(MINIMAL))
        assert sc.duration == 10.0
        assert sc.seed == 0
        assert sc.bus_latency == 0.0 and sc.bus_drop == 0.0
        assert sc.bounds == (-15.0, -15.0, 15.0, 15.0)
        a = sc.agents[0]
        assert a.order == 2 and a.footprint == (0.3,)
        assert np.allclose(a.start, [0, 0]) and np.allclose(a.goal, [3, 0])
        assert set(a.limits) == {1, 2}
        assert np.array_equal(a.limits[1][1], [2.0, 2.0])
        assert np.array_equal(a.limits[2][0], [-4.0, -4.0])

    def test_unset_agent_keys_take_the_dataclass_defaults(self):
        # The parser states no default of its own: an agent entry that
        # sets only a random spawn equals AgentSpec() field for field.
        doc = {"agents": [{"start": {"spawn": "random"}}]}
        a, = parse_scenario(json.dumps(doc)).agents
        want = AgentSpec()
        for f in fields(AgentSpec):
            if f.name != "limits":
                assert getattr(a, f.name) == getattr(want, f.name), f.name
        assert limits_equal(a.limits, want.limits)

    def test_full_document(self):
        doc = {
            "name": "demo", "seed": 7, "duration": 5.0,
            "bus": {"latency": 0.1, "drop_probability": 0.25},
            "world": {
                "bounds": [-8, -8, 8, 8],
                "obstacles": [
                    {"type": "circle", "center": [1, 1], "radius": 0.5},
                    {"type": "box", "xmin": -2, "ymin": -2,
                     "xmax": -1, "ymax": -1},
                    {"type": "square", "center": [3, -3], "side": 1.0},
                    {"type": "triangle",
                     "corners": [[0, 0], [1, 0], [0, 1]]},
                ],
            },
            "agents": [{
                "start": [-5, 0], "heading_deg": 90, "order": 3,
                "footprint": [0.2, 0.2, 0.4], "goal": [5, 0],
                "goal_time": 4.0, "end_velocity": [1, 0],
                "waypoints": [{"t": 1.5, "pos": [0, 1]},
                              {"pos": [2, 1]}],
                "limits": {"1": 3.0,
                           "2": [[-5, -4], [5, 4]]},
            }],
        }
        sc = parse_scenario(json.dumps(doc))
        assert sc.name == "demo" and sc.bus_drop == 0.25
        assert len(sc.obstacles) == 4
        a = sc.agents[0]
        assert a.heading == pytest.approx(math.pi / 2)
        assert a.order == 3 and len(a.footprint) == 3
        assert a.waypoints[0][0] == 1.5 and a.waypoints[1][0] is None
        assert np.array_equal(a.limits[1][0], [-3.0, -3.0])
        assert np.array_equal(a.limits[1][1], [3.0, 3.0])
        assert np.array_equal(a.limits[2][0], [-5.0, -4.0])
        assert np.array_equal(a.limits[2][1], [5.0, 4.0])

    def test_syntax_error_reports_line(self):
        bad = '{\n  "agents": [\n    {"start": [0, 0],}\n  ]\n}'
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad, source="broken.json")
        (line, path, msg), = exc.value.errors
        assert line == 3
        assert "broken.json" in str(exc.value)

    def test_schema_errors_collect_lines(self):
        text = json.dumps({
            "duration": -1,
            "agents": [
                {"start": [0, 0], "order": 9},
                {"start": "north"},
            ],
        }, indent=2)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        errors = exc.value.errors
        assert len(errors) == 3
        by_path = {path: line for line, path, _ in errors}
        lines = text.split("\n")
        assert '"order": 9' in lines[by_path["agents.0.order"] - 1]
        assert '"north"' in lines[by_path["agents.1.start"] - 1]
        assert '"duration": -1' in lines[by_path["duration"] - 1]

    def test_unknown_keys_rejected(self):
        doc = {"agents": [{"start": [0, 0], "colour": "red"}]}
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))

    def test_empty_agent_list_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps({"agents": []}))

    def test_overlapping_fixed_starts_rejected(self):
        doc = {"agents": [
            {"start": [0.0, 0.0], "footprint": [0.3]},
            {"start": [0.5, 0.0], "footprint": [0.3]},
        ]}
        with pytest.raises(ScenarioError, match="overlap"):
            parse_scenario(json.dumps(doc))

    def test_overlapping_starts_report_later_start_line(self):
        # Two 0.3 m footprints 0.5 m apart: reported at agent 1's start.
        text = ('{\n  "agents": [\n    {"start": [0.0, 0.0], "goal": [3, 0]},\n'
                '    {"goal": [3, 2],\n     "start": [0.5, 0.0]}\n  ]\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, source="bad.json")
        (line, path, msg), = exc.value.errors
        assert (line, path) == (5, "agents.1.start")
        assert msg == ("agents 0 and 1 start overlap after footprint "
                       "inflation (gap -0.100 m)")

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

    def agent_error(self, bad_agent):
        """Parse a document whose second agent, on line 4, is `bad_agent`;
        returns the one error's line and message."""
        text = ('{\n  "agents": [\n    ' + json.dumps(MINIMAL["agents"][0])
                + ',\n    ' + json.dumps(bad_agent) + '\n  ]\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, source="bad.json")
        (line, path, msg), = exc.value.errors
        assert path == "agents.1" and "bad.json" in str(exc.value)
        return line, msg

    def test_limit_box_without_rest_reports_agent_line(self):
        # The velocity box [1, 0] x [1, 0] excludes rest: its tightest bound
        # is 0, which the arrival-time heuristic would divide by.
        line, msg = self.agent_error({"start": [5.0, 0.0], "goal": [8.0, 0.0],
                                      "limits": {"1": [[1, 1], [0, 0]]}})
        assert line == 4 and "lo < 0 < hi" in msg

    def test_infinite_limit_reports_agent_line(self):
        # Python's JSON reader takes the literal Infinity; an unbounded
        # order is written by leaving it out.
        line, msg = self.agent_error({"start": [5.0, 0.0], "goal": [8.0, 0.0],
                                      "limits": {"1": math.inf}})
        assert line == 4 and "finite" in msg

    @pytest.mark.parametrize("limits", [{"1": 2, "3": 0.5}, {"1": 2, "7": 1}],
                             ids=["jerk", "seventh"])
    def test_limit_above_spline_degree_reports_agent_line(self, limits):
        # An order-1 robot plans a quadratic spline: its third derivative is
        # zero between knots, and no difference matrix of order 7 exists.
        line, msg = self.agent_error({"start": [5.0, 0.0], "goal": [8.0, 0.0],
                                      "order": 1, "limits": limits})
        assert line == 4 and "must lie in 1..2;" in msg

    @pytest.mark.parametrize("doc, path", [
        ({"agents": [{"start": [0.0, 0.0], "goal": [math.inf, 0.0]}]},
         "agents.0.goal.0"),
        ({"agents": [{"start": [0.0, math.nan], "goal": [3.0, 0.0]}]},
         "agents.0.start.1"),
        ({"agents": [{"start": [0.0, 0.0], "goal": [3.0, 0.0],
                      "waypoints": [{"pos": [math.nan, 0.0]}]}]},
         "agents.0.waypoints.0.pos.0"),
        ({"agents": [{"start": [0.0, 0.0], "goal": [3.0, 0.0],
                      "waypoints": [{"t": math.inf, "pos": [1.0, 0.0]}]}]},
         "agents.0.waypoints.0.t"),
        ({"agents": [{"start": [0.0, 0.0], "goal": [3.0, 0.0],
                      "goal_time": math.nan}]}, "agents.0.goal_time"),
        ({"duration": math.inf, **MINIMAL}, "duration"),
        ({"world": {"obstacles": [{"type": "circle", "center": [5.0, 5.0],
                                   "radius": math.inf}]}, **MINIMAL},
         "world.obstacles.0.radius"),
        ({"world": {"bounds": [-5.0, -5.0, 5.0, math.inf]}, **MINIMAL},
         "world.bounds.3"),
        ({"bus": {"latency": 0.0, "drop_probability": math.nan}, **MINIMAL},
         "bus.drop_probability"),
    ], ids=["goal", "start", "waypoint_pos", "waypoint_time", "goal_time",
            "duration", "obstacle", "bounds", "bus"])
    def test_non_finite_number_reports_its_line(self, doc, path):
        # Python's JSON reader takes the literals Infinity and NaN.
        text = json.dumps(doc, indent=2)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, source="bad.json")
        (line, got, msg), = exc.value.errors
        assert got == path and "finite" in msg
        literal = text.split("\n")[line - 1].strip().rstrip(",")
        assert literal.split(": ")[-1] in ("Infinity", "NaN")

    @pytest.mark.parametrize("doc", [
        {"seed": 1.0, **MINIMAL},
        {"agents": [{"start": [0.0, 0.0], "goal": [3.0, 0.0], "order": 2.0}]}],
        ids=["seed", "order"])
    def test_integral_floats_run(self, doc):
        # A JSON schema's "integer" takes 1.0 and 2.0; both reach the run as
        # ints.
        sc = replace(parse_scenario(json.dumps(doc)), duration=0.2)
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
        # Built in code rather than parsed from JSON, these reached the run:
        # a NaN bus latency ran with no peer ever heard, and a NaN or
        # infinite duration failed in run_scenario's tick count.
        with pytest.raises(ValueError, match=match):
            replace(builtin_scenario("open", duration=1.0), **{field: value})

    def test_decreasing_waypoint_stamps_report_agent_line(self):
        line, msg = self.agent_error({
            "start": [5.0, 0.0], "goal": [8.0, 0.0],
            "waypoints": [{"t": 2.0, "pos": [6, 0]}, {"t": 1.0, "pos": [7, 0]}]})
        assert line == 4 and "increasing" in msg

    def test_mixed_waypoint_stamps_report_agent_line(self):
        # Parsed, this document would make run_scenario raise when it
        # stamps the unstamped waypoint.
        line, msg = self.agent_error({
            "start": [5.0, 0.0], "goal": [8.0, 0.0], "goal_time": 9,
            "waypoints": [{"pos": [2, 0]}, {"t": 1.0, "pos": [3, 0]}]})
        assert line == 4 and "increasing" in msg

    def obstacle_error(self, bad_obstacle):
        """Parse a document whose second obstacle, on line 5, is
        `bad_obstacle`; returns the one error's line and message."""
        text = ('{\n  "world": {"obstacles": [\n'
                '    {"type": "circle", "center": [5, 5], "radius": 1},\n'
                '\n    ' + json.dumps(bad_obstacle) + '\n  ]},\n'
                '  "agents": [' + json.dumps(MINIMAL["agents"][0]) + ']\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, source="bad.json")
        (line, path, msg), = exc.value.errors
        assert path == "world.obstacles.1" and "bad.json" in str(exc.value)
        return line, msg

    def test_three_corner_rectangle_reports_obstacle_line(self):
        line, msg = self.obstacle_error(
            {"type": "rectangle", "corners": [[0, 0], [1, 0], [0, 1]]})
        assert (line, msg) == (5, "rectangle needs exactly 4 corners")

    def test_self_intersecting_rectangle_rejected(self):
        line, msg = self.obstacle_error(
            {"type": "rectangle", "corners": [[0, 0], [1, 1], [1, 0], [0, 1]]})
        assert line == 5 and "strictly convex" in msg

    def test_collinear_triangle_rejected(self):
        line, msg = self.obstacle_error(
            {"type": "triangle", "corners": [[0, 0], [1, 0], [2, 0]]})
        assert line == 5 and "strictly convex" in msg

    def test_obstacle_center_outside_bounds_reports_obstacle_line(self):
        # The default bounds are +-15; run_scenario's World would raise
        # for this circle with no line at all.
        line, msg = self.obstacle_error(
            {"type": "circle", "center": [20, 0], "radius": 1})
        assert line == 5 and "outside bounds" in msg

    def test_start_outside_bounds_reports_start_line(self):
        # The scanner cannot run outside the bounds; run_scenario would
        # raise on this start with no line at all.
        text = ('{\n  "world": {"bounds": [-5, -5, 5, 5]},\n  "agents": [\n'
                '    {"goal": [0, 0],\n     "start": [6, 0]}\n  ]\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [
            (5, "agents.0.start",
             "start [6.0, 0.0] outside world bounds (-5, -5, 5, 5)")]

    def test_start_inside_obstacle_reports_start_line(self):
        # Left in, this start would fall back on nearly every cycle and
        # collide from t = 0.
        text = ('{\n  "world": {"obstacles": [\n'
                '    {"type": "circle", "center": [0, 0], "radius": 1}]},\n'
                '  "agents": [\n    {"goal": [3, 0],\n'
                '     "start": [0.2, 0]}\n  ]\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [
            (6, "agents.0.start",
             "start [0.2, 0.0] collides with obstacle 0 (clearance -0.300 m)")]

    def test_start_touching_obstacle_rejected(self):
        # Clearance exactly 0 is a collision, as compute_motion_metrics
        # counts it; a hair more is not.
        wall = Circle([0.0, 0.0], 1.0)
        touching = AgentSpec(start=(1.5, 0.0), goal=(3.0, 0.0),
                             footprint=(0.5,))
        clear = AgentSpec(start=(-1.50001, 0.0), goal=(-3.0, 0.0),
                          footprint=(0.5,))
        bounds = (-5.0, -5.0, 5.0, 5.0)
        [(j, msg)] = _start_errors([clear, touching], bounds, [wall])
        assert j == 1 and "collides with obstacle 0" in msg
        assert _start_errors([clear], bounds, [wall]) == []

    @pytest.mark.parametrize("obstacles", [
        [], [{"type": "circle", "center": [0, 0], "radius": 1}]])
    def test_degenerate_bounds_report_bounds_line(self, obstacles):
        # xmin >= xmax: reported once, at world.bounds; the obstacles are
        # not checked against bounds that enclose nothing.
        text = ('{\n  "world": {\n    "obstacles": ' + json.dumps(obstacles)
                + ',\n    "bounds": [5, 5, -5, -5]\n  },\n'
                '  "agents": [' + json.dumps(MINIMAL["agents"][0]) + ']\n}\n')
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [
            (4, "world.bounds", "degenerate world bounds (5, 5, -5, -5)")]


class TestScenarioWorld:
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


class TestLineIndex:
    def test_paths_map_to_their_lines(self):
        text = ('{\n'
                '  "name": "x",\n'
                '  "agents": [\n'
                '    {\n'
                '      "start": [1, 2]\n'
                '    },\n'
                '    {"start": [3, 4]}\n'
                '  ]\n'
                '}\n')
        lines = index_json_lines(text)
        assert lines[("name",)] == 2
        assert lines[("agents",)] == 3
        assert lines[("agents", 0)] == 4
        assert lines[("agents", 0, "start")] == 5
        assert lines[("agents", 1)] == 7
        assert lines[("agents", 1, "start")] == 7

    def test_strings_with_braces_do_not_confuse(self):
        text = '{\n  "name": "a{[,]}b",\n  "seed": 3\n}'
        lines = index_json_lines(text)
        assert lines[("seed",)] == 3

    def test_nesting_beyond_the_parser_still_raises_scenario_error(self):
        # json.loads takes 300 levels; Python's parser stops near 200, so
        # the schema error for "name" is reported at line 1.
        doc = dict(MINIMAL, name=json.loads("[" * 300 + "]" * 300))
        text = json.dumps(doc, indent=1)
        assert index_json_lines(text) == {(): 1}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        (line, path, msg), = exc.value.errors
        assert (line, path) == (1, "name") and "not of type 'string'" in msg


class TestRoundTrip:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_survives_serialization(self, name):
        sc = builtin_scenario(name, seed=5)
        sc2 = parse_scenario(json.dumps(scenario_to_dict(sc)))
        assert len(sc2.agents) == len(sc.agents)
        assert len(sc2.obstacles) == len(sc.obstacles)
        assert sc2.duration == sc.duration and sc2.seed == sc.seed
        for a, b in zip(sc.agents, sc2.agents):
            assert np.allclose(a.start, b.start)
            assert np.allclose(a.goal, b.goal)
            assert a.order == b.order and a.goal_time == b.goal_time
            assert limits_equal(a.limits, b.limits)
            assert len(a.waypoints) == len(b.waypoints)
            for (ta, pa), (tb, pb) in zip(a.waypoints, b.waypoints):
                assert ta == tb and np.allclose(pa, pb)

    def test_file_round_trip(self, tmp_path):
        sc = builtin_scenario("walled_in")
        path = tmp_path / "scene.json"
        save_scenario(sc, path)
        sc2 = load_scenario(path)
        assert sc2.name == "walled_in"
        assert len(sc2.obstacles) == 4
        assert sc2.agents[0].waypoints[0][0] == 1.0

    def test_random_spawn_round_trips_as_random(self):
        sc = Scenario(agents=[AgentSpec(), AgentSpec(start=(1, 1),
                                                     goal=(2, 2))])
        d = scenario_to_dict(sc)
        assert d["agents"][0]["start"] == {"spawn": "random"}
        sc2 = parse_scenario(json.dumps(d))
        assert sc2.agents[0].start is None and sc2.agents[0].goal is None


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
            sc = builtin_scenario(name, seed=seed)
            assert _start_errors(sc.agents, sc.bounds, sc.obstacles) == []

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
