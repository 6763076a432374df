"""Agent cycle, the executed path, and message-bus delivery semantics."""

from dataclasses import fields

import numpy as np
import pytest

from swarmplan import runtime
from swarmplan.bspline import TrajectorySpline, plan_knot_layout
from swarmplan.geometry import Circle
from swarmplan.harness import run_scenario
from swarmplan.planner import constant_spline
from swarmplan.prediction import PeerState
from swarmplan.runtime import (Agent, AgentSpec, BusMessage, ExecutedPath,
                               MessageBus, broadcast, symmetric_limits)
from swarmplan.scenario import builtin_scenario
from swarmplan.sensor import Scan, World, simulate_scan


# A task for tests that check one other field of the spec.
TASK = dict(start=(0.0, 0.0), goal=(3.0, 0.0), goal_time=4.0)


def make_agent(start, goal, goal_time, *, bus=None, index=0, **spec_kw):
    """An Agent of the spec with this task."""
    spec = AgentSpec(start=start, goal=goal, goal_time=goal_time, **spec_kw)
    return Agent(index, spec, bus=bus)


def run_cycles(agent, n_ticks, rate=25.0):
    """Drive an agent alone through n_ticks cycles."""
    reports = []
    for k in range(n_ticks + 1):
        t = k / rate
        reports.append(agent.agent_cycle(t))
    return reports


class TestLimitsAndConfig:
    def test_symmetric_expansion(self):
        lim = symmetric_limits({1: 2.0, 2: 4.0})
        assert np.allclose(lim[1][0], [-2, -2]) and np.allclose(lim[1][1], [2, 2])
        assert np.allclose(lim[2][0], [-4, -4]) and np.allclose(lim[2][1], [4, 4])

    def test_tuple_passthrough(self):
        lim = symmetric_limits({1: ([-1, -2], [3, 4])})
        assert np.allclose(lim[1][0], [-1, -2]) and np.allclose(lim[1][1], [3, 4])

    def test_boxes_must_hold_rest(self):
        assert list(symmetric_limits({"2": 1.0})) == [2]
        for box in (([1, 1], [2, 2]), ([-1, -1], [0, 3]), ([-1, 0], [1, 1]),
                    ([-1, -1], [-0.5, 1])):
            with pytest.raises(ValueError, match="lo < 0 < hi"):
                symmetric_limits({1: box})
        with pytest.raises(ValueError):
            symmetric_limits({2: 0.0})

    @pytest.mark.parametrize("box", [
        np.inf, np.nan, ([-np.inf, -1.0], [1.0, 1.0]),
        ([-1.0, -1.0], [1.0, np.inf]), ([-1.0, np.nan], [1.0, 1.0])])
    def test_non_finite_bounds_rejected(self, box):
        # An unbounded order is left out; an infinite bound would give the
        # QP an infinite row.
        with pytest.raises(ValueError, match="finite"):
            symmetric_limits({1: box})

    def test_spec_holds_the_task_and_what_tells_robots_apart(self):
        # Every other tuning value is a module constant; the plan rate is
        # shared by all robots.
        assert [f.name for f in fields(AgentSpec)] == [
            "start", "goal", "heading", "order", "footprint", "goal_time",
            "end_velocity", "waypoints", "limits"]
        assert AgentSpec.plan_rate == 25.0

    @pytest.mark.parametrize("field", ["start", "goal", "goal_time"])
    def test_task_is_required(self, field):
        # Nothing fills a missing start, goal or goal time; an integral
        # goal time is taken as a float.
        with pytest.raises(TypeError, match=field):
            AgentSpec(**{k: v for k, v in TASK.items() if k != field})
        spec = AgentSpec(**{**TASK, "goal_time": 7})
        assert type(spec.goal_time) is float and spec.goal_time == 7.0

    def test_footprint_length_checked(self):
        with pytest.raises(ValueError):
            AgentSpec(**TASK, footprint=(1, 2, 3, 4))

    @pytest.mark.parametrize("size", [(-0.1,), (0.0,), (0.3, -0.2)])
    def test_nonpositive_footprint_rejected_at_construction(self, size):
        with pytest.raises(ValueError, match="positive"):
            AgentSpec(**TASK, footprint=size)

    def test_order_checked(self):
        with pytest.raises(ValueError, match="order"):
            AgentSpec(**TASK, order=0)

    def test_integral_order_becomes_an_int(self):
        # An integral float such as 2.0 is taken; the planner sizes arrays
        # by the order, so a float order would raise there.
        spec = AgentSpec(**TASK, order=2.0)
        assert spec.order == 2 and type(spec.order) is int
        with pytest.raises(ValueError, match="integer"):
            AgentSpec(**TASK, order=2.5)

    def test_heading_must_be_finite(self):
        # A NaN heading makes every beam of the agent's scanner NaN.
        with pytest.raises(ValueError, match="heading"):
            AgentSpec(**TASK, heading=np.nan)

    @pytest.mark.parametrize("goal_time", [np.nan, np.inf, -1.0, 0.0])
    def test_goal_time_must_be_finite_and_positive(self, goal_time):
        # Each ran as if the goal time had already passed.
        with pytest.raises(ValueError, match="finite and positive"):
            AgentSpec(**{**TASK, "goal_time": goal_time})

    @pytest.mark.parametrize("stamp", [np.nan, np.inf, -1.0, 0.0])
    def test_waypoint_times_must_be_finite_and_positive(self, stamp):
        # A waypoint stamped so never enters a horizon.
        with pytest.raises(ValueError, match="finite and positive"):
            AgentSpec(**TASK, waypoints=[(stamp, (1.0, 0.0))])

    @pytest.mark.parametrize("order, limits", [
        (1, {1: 2.0, 3: 0.5}), (1, {1: 2.0, 7: 1.0}), (2, {4: 1.0}),
        (4, {"6": 1.0}), (2, {0: 1.0, 1: 2.0}), (2, {-1: 1.0})])
    def test_limit_order_outside_the_spline_rejected(self, order, limits):
        # The plan spline has degree order + 1; a higher derivative is zero
        # between knots, so no QP row can bound it.  Order 0 would box the
        # position, and a negative order is no derivative.
        with pytest.raises(ValueError, match=rf"1\.\.{order + 1};"):
            AgentSpec(**TASK, order=order, limits=limits)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_limit_at_spline_degree_accepted(self, order):
        spec = AgentSpec(**TASK, order=order, limits={1: 2.0, order + 1: 1.0})
        assert sorted(spec.limits) == sorted({1, order + 1})

    @pytest.mark.parametrize("spec", [
        dict(start=(np.nan, 0.0)),
        dict(goal=(3.0, np.inf)),
        dict(end_velocity=(np.nan, 0.0)),
        dict(waypoints=[(1.0, (1.0, 0.0)), (2.0, (-np.inf, 0.0))])],
        ids=["start", "goal", "end_velocity", "waypoint"])
    def test_spec_points_must_be_finite(self, spec):
        # An agent's state comes from its spawn point and committed plans,
        # so a finite spec keeps every state finite.
        with pytest.raises(ValueError, match="finite"):
            AgentSpec(**{**TASK, **spec})


class TestMessageBus:
    def payload(self, t, pos=(0, 0)):
        return PeerState(stamp=t, position=pos, velocity=(0, 0),
                         acceleration=(0, 0), size=(0.3,))

    def test_delivery_cannot_precede_send(self):
        with pytest.raises(ValueError):
            BusMessage(payload=None, send_stamp=1.0, delivery_stamp=0.5,
                       dropped=False, sender=0)

    def test_zero_latency_next_poll_sees_payload(self):
        bus = MessageBus()
        p = self.payload(0.0)
        bus.post(sender=1, payload=p, now=0.0)
        got = bus.poll(consumer=0, now=0.04)
        assert got == [p]

    def test_sender_never_hears_itself(self):
        bus = MessageBus()
        bus.post(sender=1, payload=self.payload(0.0), now=0.0)
        assert bus.poll(consumer=1, now=1.0) == []

    def test_latency_delays_delivery(self):
        bus = MessageBus(latency=0.5)
        p = self.payload(0.0)
        bus.post(sender=1, payload=p, now=0.0)
        assert bus.poll(consumer=0, now=0.4) == []
        assert bus.poll(consumer=0, now=0.5) == [p]

    def test_each_message_seen_once(self):
        bus = MessageBus()
        bus.post(sender=1, payload=self.payload(0.0), now=0.0)
        assert len(bus.poll(consumer=0, now=1.0)) == 1
        assert bus.poll(consumer=0, now=2.0) == []

    def test_drop_probability_one_starves(self):
        bus = MessageBus(drop_probability=1.0, rng=np.random.default_rng(3))
        for k in range(20):
            bus.post(sender=1, payload=self.payload(0.1 * k), now=0.1 * k)
        assert bus.poll(consumer=0, now=10.0) == []

    def test_drops_deterministic_per_seed(self):
        def pattern(seed):
            bus = MessageBus(drop_probability=0.5,
                             rng=np.random.default_rng(seed))
            for k in range(50):
                bus.post(sender=1, payload=self.payload(0.1 * k), now=0.1 * k)
            return [m.dropped for m in bus.log]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    @pytest.mark.parametrize("latency", [np.nan, np.inf, -0.1],
                             ids=["nan", "inf", "negative"])
    def test_latency_must_be_finite_and_nonnegative(self, latency):
        # A NaN latency used to pass the sign check and deliver nothing,
        # since no poll time reaches a NaN delivery stamp.
        with pytest.raises(ValueError, match="latency must be finite"):
            MessageBus(latency=latency)

    def test_send_order_preserved(self):
        bus = MessageBus()
        ps = [self.payload(0.0, pos=(k, 0)) for k in range(5)]
        for p in ps:
            bus.post(sender=1, payload=p, now=0.0)
        assert bus.poll(consumer=0, now=0.1) == ps


def random_spline(rng, t0, degree=3, dt=1.0, horizon=4.0):
    layout = plan_knot_layout(t0, horizon, dt, degree)
    return TrajectorySpline.from_layout(layout, rng.normal(size=(layout.m, 2)))


class TestExecutedPath:
    def test_state_is_the_trajectory_stack_on_its_domain(self):
        traj = random_spline(np.random.default_rng(5), 0.0)
        path = ExecutedPath([(0.0, traj)])
        lo, hi = traj.domain
        for t in (0.5 * (lo + hi), hi + 1e-9):
            assert np.allclose(path.state(t, 2),
                               traj.state_stack(min(t, hi), 2))

    def test_states_equal_state_on_random_commits(self):
        # Byte for byte at the times where the lookup rule turns: just
        # before and at each stamp, before the first commit, within the
        # 1e-9 tolerance past a domain end, and parked beyond it.
        rng = np.random.default_rng(11)
        for _ in range(20):
            stamps = np.cumsum(rng.choice([1 / 25, 0.3, 2.5], size=6))
            stamps -= stamps[0] - rng.uniform(-1.0, 1.0)
            commits = [(float(t), random_spline(
                rng, float(t), degree=int(rng.integers(2, 6)),
                dt=float(rng.choice([0.25, 1.0])),
                horizon=float(rng.choice([1.0, 4.0])))) for t in stamps]
            path = ExecutedPath(commits)
            ends = np.array([tr.domain[1] for _, tr in commits])
            ts = np.concatenate([
                stamps - 1e-12, stamps, stamps[0] - rng.uniform(0.0, 2.0, 5),
                ends, ends + 1e-9, ends + 0.5e-9, ends + 1e-6,
                ends + rng.uniform(0.0, 3.0, len(ends)),
                rng.uniform(stamps[0] - 1.0, ends.max() + 2.0, 100)])
            for n in (1, 2, 3, 4):
                want = np.stack([path.state(t, n) for t in ts])
                assert path.states(ts, n).tobytes() == want.tobytes()
            want = np.stack([path.position(t) for t in ts])
            assert path.positions(ts).tobytes() == want.tobytes()

    def test_table_read_of_a_long_path_with_a_parked_tail(self):
        # A full-duration table: 150 commits 1/25 s apart, each on its own
        # grid (its own origin, and a goal extension now and then, so the
        # control counts differ too), read on the 0.1 s grid past the last
        # domain end, where the robot is parked.
        rng = np.random.default_rng(13)
        commits = []
        for k in range(150):
            t = k / 25.0
            layout = plan_knot_layout(t, 2.0, 0.25, 3,
                                      goal_time=t + 2.0 if k % 7 == 0 else None)
            commits.append((t, TrajectorySpline.from_layout(
                layout, rng.normal(size=(layout.m, 2)))))
        path = ExecutedPath(commits)
        assert len({tr.m for _, tr in commits}) == 2
        times = np.arange(121) * 0.1
        end = commits[-1][1].domain[1]
        assert (times > end + 1e-9).sum() > 20
        for n in (1, 3):
            want = np.stack([path.state(t, n) for t in times])
            assert path.states(times, n).tobytes() == want.tobytes()
        assert not path.states(times, 3)[times > end + 1e-9, 1:].any()

    def test_reads_after_commit_see_the_new_trajectory(self):
        tr0 = constant_spline(plan_knot_layout(0.0, 4.0, 1.0, 3), (0.0, 0.0))
        tr1 = constant_spline(plan_knot_layout(1.0, 4.0, 1.0, 3), (5.0, 0.0))
        path = ExecutedPath([(0.0, tr0)])
        assert np.allclose(path.position(2.0), [0, 0])
        path.commit(1.0, tr1)
        assert path.latest is tr1
        ts = np.array([0.5, 1.0, 2.0])
        want = [[0, 0], [5, 0], [5, 0]]
        assert np.allclose(path.positions(ts), want)
        assert np.allclose(path.states(ts, 2)[:, 0], want)
        assert np.allclose(path.state(2.0, 2), [[5, 0], [0, 0]])

    def test_lookup_spans_commits(self):
        l0 = plan_knot_layout(0.0, 4.0, 1.0, 3)
        l1 = plan_knot_layout(1.0, 4.0, 1.0, 3)
        tr0 = constant_spline(l0, (0.0, 0.0))
        tr1 = constant_spline(l1, (5.0, 0.0))
        path = ExecutedPath([(0.0, tr0), (1.0, tr1)])
        assert np.allclose(path.position(0.5), [0, 0])
        assert np.allclose(path.position(1.0), [5, 0])
        assert np.allclose(path.position(3.0), [5, 0])
        # Before the first commit the earliest trajectory governs.
        assert np.allclose(path.position(-1.0), [0, 0])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        tr0, tr1 = random_spline(rng, 0.0), random_spline(rng, 2.0)
        path = ExecutedPath([(0.0, tr0), (2.0, tr1)])
        ts = np.linspace(0.0, 5.0, 41)
        batch = path.positions(ts)
        single = np.stack([path.position(t) for t in ts])
        assert np.max(np.abs(batch - single)) < 1e-12

    def test_one_lookup_rule_at_commit_stamps(self):
        # Commits at k/25 s, as the agents make them; t = stamp - 1e-12
        # lands exactly on the stamp once the lookup adds its 1e-12, so
        # both lookups must take the commit made at that stamp.
        stamps = [k / 25.0 for k in range(200)]
        commits = [(t, constant_spline(plan_knot_layout(t, 4.0, 1.0, 3),
                                       (float(k), 0.0)))
                   for k, t in enumerate(stamps)]
        path = ExecutedPath(commits)
        ties = np.array(stamps[1:]) - 1e-12
        assert np.array_equal(ties + 1e-12, stamps[1:])
        rng = np.random.default_rng(4)
        for ts in (ties, np.array(stamps), rng.uniform(-1.0, 9.0, 300)):
            batch = path.positions(ts)
            assert batch.tobytes() == np.stack(
                [path.position(t) for t in ts]).tobytes()
        assert np.rint(path.positions(ties)[:, 0]).tolist() == list(range(1, 200))

    def test_state_past_last_commit_is_parked(self):
        rng = np.random.default_rng(7)
        traj = random_spline(rng, 0.0)
        path = ExecutedPath([(0.0, traj)])
        end = traj.domain[1]
        for t in (end + 1e-6, end + 1.5):
            st = path.state(t, 3)
            assert np.allclose(st[0], traj.position(end))
            assert np.all(st[1:] == 0.0)


class TestIdealTrack:
    """The ideal track: an agent's state read off its one committed plan."""

    def setup_method(self):
        self.traj = random_spline(np.random.default_rng(5), 0.0)
        self.path = ExecutedPath([(0.0, self.traj)])

    def test_zero_length_interval(self):
        t0 = self.traj.domain[0]
        assert np.allclose(self.path.state(t0, 2),
                           self.traj.state_stack(t0, 2))

    def test_full_segment_matches_evaluation(self):
        hi = self.traj.domain[1]
        assert np.allclose(self.path.state(hi, 2),
                           self.traj.state_stack(hi, 2))

    def test_past_domain_end_reports_parked(self):
        hi = self.traj.domain[1]
        st = self.path.state(hi + 2.5, 3)
        assert st.shape == (3, 2)
        assert np.allclose(st[0], self.traj.position(hi))
        assert np.all(st[1:] == 0.0)


class TestAgentCycle:
    def test_open_world_reaches_goal(self):
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.5)
        reports = run_cycles(agent, 100)
        final = agent.path.position(4.0)
        assert np.linalg.norm(final - [3.0, 0.0]) < 0.1
        assert all(r.status == "optimal" for r in reports)

    def test_replan_continuity_every_cycle(self):
        agent = make_agent((0.0, 0.0), (3.0, 2.0), 4.10555127546399)
        reports = run_cycles(agent, 100)
        worst = max(r.continuity_error for r in reports)
        assert worst <= 1e-6

    def test_goal_error_non_increasing_after_first_second(self):
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.5)
        run_cycles(agent, 125)
        ts = np.arange(0.0, 5.0 + 1e-9, 0.1)
        errs = np.linalg.norm(agent.path.positions(ts) - [3.0, 0.0], axis=1)
        after = errs[ts >= 1.0 - 1e-9]
        # Monotone up to sub-millimeter settle chatter around the goal.
        assert np.all(np.diff(after) <= 1e-3)

    def test_stamped_goal_arrives_and_holds(self):
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.5)
        run_cycles(agent, 150)
        for t in (3.5, 4.0, 5.0, 6.0):
            err = np.linalg.norm(agent.path.position(t) - [3.0, 0.0])
            assert err < 0.05, f"error {err:.4f} at t={t}"

    def test_end_velocity_realized_at_stamp(self):
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.0,
                           end_velocity=(1.0, 0.0))
        run_cycles(agent, 75)
        vel = agent.path.state(3.0, 2)[1]
        assert np.linalg.norm(vel - [1.0, 0.0]) < 0.05

    def test_staged_shapes_fold_next_cycle(self):
        world = World(obstacles=[Circle((3.0, 1.0), 0.5)])
        agent = make_agent((0.0, 0.0), (0.0, 0.0), 2.0)
        scan = simulate_scan(world, (0.0, 0.0), 0.0, stamp=0.0)
        agent.receive_scan(scan)
        agent.agent_cycle(0.0)
        assert len(agent.staged) > 0 and len(agent.local_map) == 0
        agent.agent_cycle(0.04)
        assert len(agent.staged) == 0 and len(agent.local_map) > 0

    def test_peer_broadcast_contracts_regions(self):
        bus = MessageBus()
        agent = make_agent((0.0, 0.0), (4.0, 0.0), 4.5, bus=bus)
        baseline = make_agent((0.0, 0.0), (4.0, 0.0), 4.5)
        peer = PeerState(stamp=0.0, position=(2.0, 0.0), velocity=(0, 0),
                         acceleration=(0, 0), size=(0.4,))
        bus.post(sender=9, payload=peer, now=0.0)
        agent.agent_cycle(0.04)
        baseline.agent_cycle(0.04)
        assert len(agent.tracks) == 1
        # One bootstrap sample: constant-acceleration extrapolation in use.
        assert len(agent.tracks[0].states) == 1
        cut = agent.regions.slices[0].polytope
        free = baseline.regions.slices[0].polytope
        assert len(cut.normals) == len(free.normals) + 1

    def test_starved_agent_plans_with_stale_tracks(self):
        bus = MessageBus()
        agent = make_agent((0.0, 0.0), (4.0, 0.0), 4.5, bus=bus)
        peer = PeerState(stamp=0.0, position=(2.0, 1.0), velocity=(0, 0),
                         acceleration=(0, 0), size=(0.3,))
        bus.post(sender=9, payload=peer, now=0.0)
        agent.agent_cycle(0.04)
        # Starvation: no further broadcasts for longer than the staleness gate.
        # The track is flagged stale once, then dropped so the planner stops
        # constraining against a ghost.
        flagged = []
        report = None
        for k in range(2, 26):
            report = agent.agent_cycle(k / 25.0)
            if "stale_tracks" in report.flags:
                flagged.append(report)
        assert report.status == "optimal"
        assert len(flagged) == 1
        assert flagged[0].stale_tracks == 1
        assert report.n_tracks == 0

    def test_bad_scan_degrades_not_crashes(self):
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.5)
        broken = Scan(stamp=0.0, angle_start=0.0,
                      angle_increment=np.deg2rad(1.0),
                      ranges=np.full(360, 2.0), origins=None)
        agent.receive_scan(broken)
        report = agent.agent_cycle(0.0)
        assert any(f.startswith("perception:") for f in report.flags)
        assert report.status == "optimal"

    def test_planner_exception_reports_fallback(self, monkeypatch):
        # The report of a cycle whose planner raised: the fields the
        # benchmark fingerprint reprs keep their values.
        def broken(req):
            raise ZeroDivisionError("broken planner")

        monkeypatch.setattr(runtime, "plan_with_fallback", broken)
        agent = make_agent((0.0, 0.0), (3.0, 0.0), 3.5)
        prev = agent.path.latest
        report = agent.agent_cycle(0.0)
        assert (report.status, report.iterations, repr(report.kkt_residual),
                report.solve_time_us, repr(report.continuity_error)) == (
            "fallback", 0, "nan", 0.0, "0.0")
        assert report.flags == ("plan:ZeroDivisionError",)
        assert agent.path.latest is prev

    def test_admission_exception_reports_fallback(self, monkeypatch):
        # Admission runs inside the planning stage's guard: a raise there
        # is that stage's fallback, and the run goes on.
        def broken(shapes, regions):
            raise ValueError("broken admission")

        monkeypatch.setattr(runtime, "admit_obstacles", broken)
        result = run_scenario(builtin_scenario("intersection", duration=0.4))
        reports = [r for rs in result.reports.values() for r in rs]
        assert len(reports) == 60
        assert all(r.status == "fallback" and r.flags == ("plan:ValueError",)
                   for r in reports)

    def test_kept_regions_admit_no_shape(self, monkeypatch):
        # When the regions stage raises, the cycle plans against the
        # regions it kept, whose record indexes an older volume's shapes:
        # it admits none of them, and nothing raises.
        calls, requests = [], []
        real_build, real_plan = (runtime.build_safe_regions,
                                 runtime.plan_with_fallback)

        def build(volume, *args, **kwargs):
            calls.append(volume)
            if len(calls) == 13:        # agent 0's third cycle
                raise ValueError("broken regions")
            return real_build(volume, *args, **kwargs)

        def plan(req):
            requests.append(req)
            return real_plan(req)

        monkeypatch.setattr(runtime, "build_safe_regions", build)
        monkeypatch.setattr(runtime, "plan_with_fallback", plan)
        result = run_scenario(builtin_scenario("intersection", duration=0.4))
        flagged = [(i, k) for i, rs in result.reports.items()
                   for k, r in enumerate(rs) if r.flags]
        assert flagged == [(0, 2)]
        assert result.reports[0][2].flags == ("regions:ValueError",)
        before, kept, after = requests[6], requests[12], requests[18]
        assert kept.regions is before.regions is not None
        assert kept.volume is not before.volume
        assert kept.near_obstacles == []
        assert before.near_obstacles and after.near_obstacles


    def test_agent_hands_the_planner_its_own_spec(self, monkeypatch):
        # Every cycle's request carries the agent's spec itself,
        # not copies of its fields.
        seen, cycling = [], []
        real_cycle, real_plan = Agent.agent_cycle, runtime.plan_with_fallback

        def cycle(agent, now):
            cycling.append(agent)
            return real_cycle(agent, now)

        def plan(req):
            seen.append((cycling[-1], req))
            return real_plan(req)

        monkeypatch.setattr(Agent, "agent_cycle", cycle)
        monkeypatch.setattr(runtime, "plan_with_fallback", plan)
        result = run_scenario(builtin_scenario("intersection", duration=0.4))
        assert len(seen) == len(cycling) == sum(
            len(r) for r in result.reports.values()) > 0
        for agent, req in seen:
            assert req.spec is agent.config
            assert agent.config is result.resolved[agent.index]


class TestBroadcast:
    def test_stationary_payload_is_zero_motion(self):
        bus = MessageBus()
        agent = make_agent((2.0, -1.0), (2.0, -1.0), 2.0, bus=bus,
                           index=3)
        agent.agent_cycle(0.0)
        msg = broadcast(agent, 0.0)
        assert np.allclose(msg.payload.position, [2.0, -1.0], atol=1e-9)
        assert np.allclose(msg.payload.velocity, 0.0, atol=1e-9)
        assert np.allclose(msg.payload.acceleration, 0.0, atol=1e-9)
        assert msg.payload.size == (0.3,)

    def test_payload_carries_no_identity(self):
        fields = set(PeerState.__dataclass_fields__)
        assert fields == {"stamp", "position", "velocity", "acceleration", "size"}

    def test_moving_agent_reports_current_velocity(self):
        bus = MessageBus()
        agent = make_agent((0.0, 0.0), (4.0, 0.0), 4.5, bus=bus)
        for k in range(26):
            agent.agent_cycle(k / 25.0)
        msg = broadcast(agent, 1.0)
        expect = agent.path.latest.state_stack(1.0, 2)
        assert np.allclose(msg.payload.position, expect[0], atol=1e-12)
        assert np.allclose(msg.payload.velocity, expect[1], atol=1e-12)
        assert np.linalg.norm(msg.payload.velocity) > 0.1
