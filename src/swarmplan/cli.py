"""The `swarmplan` command: simulate a builtin world and keep its artifacts.

    swarmplan run <builtin> --out DIR [--seed N] [--agents N] [--duration S]

builds `scenario.builtin_scenario(builtin, seed, agents, duration)`, runs
it with `harness.run_scenario`, which writes `metrics.json` and
`trajectories.csv` into DIR, and prints DIR with the run's cycle status
counts.  A scenario that cannot be built is a usage error (exit status 2).
"""

import argparse

from .harness import run_scenario
from .scenario import builtin_names, builtin_scenario

__all__ = ["main"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swarmplan",
        description="Decentralized multi-robot planning in simulated worlds.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="simulate a builtin world",
        description="Simulate a builtin world; write metrics.json and "
                    "trajectories.csv into the output directory.")
    run.add_argument("builtin", choices=builtin_names())
    run.add_argument("--out", required=True, metavar="DIR",
                     help="output directory, created if missing")
    run.add_argument("--seed", type=int, default=0,
                     help="layout and run seed (default 0)")
    run.add_argument("--agents", type=int, metavar="N",
                     help="agent count (default: the builtin's own)")
    run.add_argument("--duration", type=float, metavar="S",
                     help="simulated seconds (default: the builtin's own)")
    args = parser.parse_args(argv)
    try:
        scenario = builtin_scenario(args.builtin, seed=args.seed,
                                    n_agents=args.agents,
                                    duration=args.duration)
    except ValueError as exc:
        run.error(str(exc))
    result = run_scenario(scenario, out_dir=args.out)
    counts = ", ".join(f"{n} {status}" for status, n
                       in sorted(result.metrics.cycle_statuses.items()))
    print(f"{args.out}: {counts or 'no cycles'}")
    return 0
