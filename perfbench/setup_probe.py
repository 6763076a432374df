"""Time one cold set-up of a builtin scenario in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <builtin> <seed> <duration>

Prints the seconds spent importing swarmplan, building the scenario, and
resolving and building its agents, the way `run_scenario` starts a run.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from swarmplan.harness import build_agents  # noqa: E402
from swarmplan.runtime import MessageBus  # noqa: E402
from swarmplan.scenario import builtin_scenario, resolve_agents  # noqa: E402


def main(builtin, seed, duration):
    scenario = builtin_scenario(builtin, seed=seed, duration=duration)
    spawn_seed, bus_seed = np.random.SeedSequence(scenario.seed).spawn(2)
    resolved = resolve_agents(scenario, np.random.default_rng(spawn_seed))
    bus = MessageBus(latency=scenario.bus_latency,
                     drop_probability=scenario.bus_drop,
                     rng=np.random.default_rng(bus_seed))
    build_agents(resolved, bus)
    print(time.perf_counter() - T_START)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
