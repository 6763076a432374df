"""Span tracing of swarmplan from outside the package.

`Tracer.installed()` replaces the public functions of each layer with
wrappers at the attribute their caller looks up (for example
`swarmplan.planner.solve_qp`, which the planner calls, rather than
`swarmplan.qp.solve_qp`), and restores the originals on exit.  Each wrapper
records one span: name, start, end, parent span, and the cycle it ran in as
(agent, tick).  Spans stay in flat arrays in memory until `save` writes them.

A call nested directly in a span of the same name (`state_stack` calling
`derivative_value`, both `bspline.eval`) is folded into its parent.

Some wrappers also count outcomes where the work happens: QP status,
iterations and size; peer cuts that changed nothing; seeds inside obstacles;
and why a `plan_with_fallback` call ended in `fallback`.
"""

from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from spec import ITERATION_BINS, iteration_bin_name, span_metric_names, SPANS

# Percentiles need this many samples: p95 then has ten beyond it.
MIN_P50_SAMPLES = 20
MIN_P95_SAMPLES = 200


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.agent = array("i")
        self.tick = array("i")
        self._stack = []
        self._cycle = (-1, -1)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._plan_events = []
        self._plan_cause = None

    # -- span recording ---------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.agent.append(self._cycle[0])
        self.tick.append(self._cycle[1])
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def close(self, idx):
        self.t1[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, before=None, after=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            if self._stack and self.name_id[self._stack[-1]] == nid:
                return fn(*args, **kwargs)
            token = before(self, args) if before else None
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if after:
                    after(self, token, args, kwargs, None, exc)
                raise
            self.close(idx)
            if after:
                after(self, token, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, before, after in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, before, after))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def span_arrays(self):
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = t1 - t0
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return np.frombuffer(self.name_id, dtype=np.int32), dur, dur - covered

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=float),
            t1=np.frombuffer(self.t1, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            agent=np.frombuffer(self.agent, dtype=np.int32),
            tick=np.frombuffer(self.tick, dtype=np.int32))

    def layer_metrics(self):
        """Every per-layer metric, plus sample counts for the percentiles."""
        name_id, dur, self_time = self.span_arrays()
        out = {}
        samples = {}
        for name, _ in SPANS:
            nid = self._ids.get(name, -1)
            sel = name_id == nid
            d_ms = 1e3 * dur[sel]
            names = [m for m, _ in span_metric_names(name)]
            out[names[0]] = int(sel.sum())
            out[names[1]] = float(self_time[sel].sum())
            samples[name] = len(d_ms)
            if len(d_ms) >= MIN_P50_SAMPLES:
                out[f"{name}.p50_ms"] = float(np.percentile(d_ms, 50))
            if len(d_ms) >= MIN_P95_SAMPLES:
                out[f"{name}.p95_ms"] = float(np.percentile(d_ms, 95))
        c, s = self.counts, self.samples
        solves = out["qp.solve.calls"]
        iters = np.array(s["qp.iterations"], dtype=float)
        out.update({
            "qp.solve.iterations_p50": _pct(iters, 50),
            "qp.solve.iterations_p95": _pct(iters, 95),
            "qp.solve.rows_p50": _pct(s["qp.rows"], 50),
            "qp.solve.vars_p50": _pct(s["qp.vars"], 50),
            "qp.solve.optimal_frac": _frac(c["qp.optimal"], solves),
            "qp.solve.infeasible_frac": _frac(c["qp.infeasible"], solves),
            "qp.solve.maxiter_frac": _frac(c["qp.maxiter"], solves),
            "regions.peer_cut.infeasible_frac": _frac(
                c["peer_cut.infeasible"], out["regions.peer_cut.calls"]),
            "regions.peer_cut.cut_frac": _frac(
                c["peer_cut.cut"], out["regions.peer_cut.calls"]),
            "regions.seed.inside_obstacle_frac": _frac(
                c["seed.inside"], out["regions.seed.calls"]),
            "regions.empty_test.empty_frac": _frac(
                c["empty"], out["regions.empty_test.calls"]),
            "regions.infeasible_slice_frac": _frac(
                c["slices.infeasible"], c["slices"]),
            "regions.planes_per_slice_p50": _pct(s["planes"], 50),
            "prediction.update.new_track_frac": _frac(
                c["track.new"], out["prediction.update.calls"]),
            "perception.classify.reject_frac": _frac(
                c["classify.reject"], out["perception.classify.calls"]),
            "planner.assemble.relaxed_frac": _frac(
                c["assemble.relaxed"], out["planner.assemble.calls"]),
            "planner.admit.admitted_frac": _frac(
                c["admit.admitted"], c["admit.offered"]),
        })
        for lo, hi in ITERATION_BINS:
            top = np.inf if hi is None else hi
            out[iteration_bin_name(lo, hi)] = int(
                ((iters >= lo) & (iters <= top)).sum())
        for cause in ("no_slice", "infeasible", "maxiter", "exception"):
            out[f"planner.fallback.{cause}"] = c[f"fallback.{cause}"]
        out["trace.spans"] = len(self.t0)
        return out, samples

    def deterministic_counts(self):
        """Counters that must repeat exactly for a seed (no timings)."""
        name_id, _, _ = self.span_arrays()
        calls = Counter(self.names[i] for i in name_id.tolist())
        return {"calls": dict(sorted(calls.items())),
                "counts": dict(sorted(self.counts.items())),
                "qp_iterations": list(self.samples["qp.iterations"])}


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _frac(num, den):
    return num / den if den else 0.0


# --- outcome observers --------------------------------------------------------
# before(tracer, args) -> token; after(tracer, token, args, kwargs, result, exc)

def _cycle_before(tr, args):
    agent, now = args[0], args[1]
    tr._cycle = (agent.index, int(round(now * agent.config.plan_rate)))
    tr._plan_cause = None


def _cycle_after(tr, token, args, kwargs, result, exc):
    tr._cycle = (-1, -1)
    if result is not None and result.status == "fallback":
        # No plan outcome means plan_with_fallback never returned normally.
        tr.counts[f"fallback.{tr._plan_cause or 'exception'}"] += 1


def _plan_after(tr, token, args, kwargs, result, exc):
    events, tr._plan_events = tr._plan_events, []
    if exc is not None:
        tr._plan_cause = "exception"
    elif result[1].status == "fallback":
        # The last solve decided the outcome unless no slice was usable.
        tr._plan_cause = ("no_slice" if "no_slice" in events or not events
                          else events[-1])


def _assemble_after(tr, token, args, kwargs, result, exc):
    if kwargs.get("relaxed", args[4] if len(args) > 4 else False):
        tr.counts["assemble.relaxed"] += 1
    if exc is not None and type(exc).__name__ == "AllSlicesInfeasible":
        tr._plan_events.append("no_slice")


def _solve_after(tr, token, args, kwargs, result, exc):
    if result is None:
        return
    problem = args[0]
    tr.counts[f"qp.{result.status}"] += 1
    tr.samples["qp.iterations"].append(result.iterations)
    tr.samples["qp.rows"].append(
        0 if problem.A_in is None else len(problem.A_in))
    tr.samples["qp.vars"].append(problem.n)
    tr._plan_events.append(result.status)


def _seed_after(tr, token, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "SeedInsideObstacle":
        tr.counts["seed.inside"] += 1


def _peer_cut_after(tr, token, args, kwargs, result, exc):
    if result is None:
        return
    poly, feasible = result
    if not feasible:
        tr.counts["peer_cut.infeasible"] += 1
    elif poly is not args[0]:
        tr.counts["peer_cut.cut"] += 1


def _empty_after(tr, token, args, kwargs, result, exc):
    if result:
        tr.counts["empty"] += 1


def _regions_after(tr, token, args, kwargs, result, exc):
    if result is None:
        return
    for sl in result.slices:
        tr.counts["slices"] += 1
        tr.counts["slices.infeasible"] += not sl.feasible
        tr.samples["planes"].append(len(sl.polytope))


def _tracks_before(tr, args):
    return len(args[0])


def _tracks_after(tr, n_before, args, kwargs, result, exc):
    if result is not None and len(args[0]) > n_before:
        tr.counts["track.new"] += 1


def _classify_after(tr, token, args, kwargs, result, exc):
    if isinstance(exc, ValueError):
        tr.counts["classify.reject"] += 1


def _admit_after(tr, token, args, kwargs, result, exc):
    if result is not None:
        tr.counts["admit.offered"] += len(args[0])
        tr.counts["admit.admitted"] += len(result)


def _targets():
    """(owner, attribute, span name, before, after) for every wrapper."""
    from swarmplan import bspline, harness, perception, planner, prediction
    from swarmplan import regions, runtime

    spline = bspline.TrajectorySpline
    return [
        (harness, "simulate_scan", "sensor.scan", None, None),
        (harness, "simulate_swept_scan", "sensor.scan", None, None),
        (runtime, "segment_scan", "perception.segment", None, None),
        (runtime, "compensate_motion", "perception.compensate", None, None),
        (runtime, "classify_cluster", "perception.classify", None,
         _classify_after),
        (runtime, "decompose_boundary", "perception.decompose", None, None),
        (perception.LocalMap, "insert", "perception.map_insert", None, None),
        (runtime, "build_moving_volume", "perception.volume", None, None),
        (runtime, "update_tracks", "prediction.update", _tracks_before,
         _tracks_after),
        (prediction.PeerTrack, "predict_positions", "prediction.predict",
         None, None),
        (runtime.Agent, "agent_cycle", "runtime.cycle", _cycle_before,
         _cycle_after),
        (runtime.MessageBus, "poll", "runtime.bus_poll", None, None),
        (harness, "broadcast", "runtime.broadcast", None, None),
        (runtime, "build_safe_regions", "regions.build", None,
         _regions_after),
        (regions, "seed_region", "regions.seed", None, _seed_after),
        (regions, "contract_for_peer", "regions.peer_cut", None,
         _peer_cut_after),
        (regions, "deflate_for_ego", "regions.deflate", None, None),
        (regions, "region_is_empty", "regions.empty_test", None,
         _empty_after),
        (runtime, "plan_with_fallback", "planner.plan", None, _plan_after),
        (runtime, "admit_obstacles", "planner.admit", None, _admit_after),
        (planner, "assemble_qp", "planner.assemble", None, _assemble_after),
        (planner, "quadratize_collision", "planner.quadratize", None, None),
        (planner, "solve_qp", "qp.solve", None, _solve_after),
        *[(spline, m, "bspline.eval", None, None)
          for m in ("position", "positions", "state_stack",
                    "derivative_value", "derivative_values")],
        (harness, "compute_motion_metrics", "metrics.motion", None, None),
        (runtime.ExecutedPath, "state", "harness.table_sample", None, None),
        (harness, "build_agents", "harness.build_agents", None, None),
        (harness, "resolve_agents", "scenario.resolve", None, None),
    ]
