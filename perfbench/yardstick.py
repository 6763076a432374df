"""A fixed reference computation timed right before every agent cycle.

The benchmark host shares its cores with other machines, and its speed
changes by up to 1.8x from one second to the next and from one minute to
the next.  Wall-clock cycle latencies carry all of that.  `interleaved()`
wraps `Agent.agent_cycle` so that, before each cycle, `probe_ms` times a
small fixed mix of Python arithmetic and small numpy linear algebra, like
the planner's own mix, on the same core a moment before the cycle runs.
A cycle's time divided by its probe's time is its latency in `ref_ms`: the
number of probe times it took.  That ratio stays put when the host slows
down, and it halves when the cycle does half the work.

The probe runs outside `agent_cycle`, so `CycleReport.cycle_time_us` does
not include it; its total is subtracted from a run's wall time.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_M = np.random.default_rng(0).standard_normal((16, 16))
_M = _M @ _M.T + 16 * np.eye(16)
WARMUP_PROBES = 20


def probe_ms():
    """Milliseconds of one fixed probe computation (about 1.4 ms on a
    2-core x86-64 VM)."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(80):
        x = np.linalg.solve(_M, _M[i % 16])
        y = _M @ x
        acc += float(y.dot(y))
        acc += sum(a * b for a, b in zip(x.tolist(), y.tolist()) if a > b)
    return (perf_counter() - t0) * 1e3


@contextmanager
def interleaved():
    """Probe before every agent cycle in the block.  Yields a mapping of
    agent index to its probe times in ms, in the order of its reports."""
    from swarmplan.runtime import Agent

    probes = defaultdict(list)
    cycle = Agent.agent_cycle

    def probed_cycle(agent, *args, **kwargs):
        probes[agent.index].append(probe_ms())
        return cycle(agent, *args, **kwargs)

    for _ in range(WARMUP_PROBES):
        probe_ms()
    Agent.agent_cycle = probed_cycle
    try:
        yield probes
    finally:
        Agent.agent_cycle = cycle
