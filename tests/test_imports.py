"""Import-level guards: no plotting, scipy or schema code at run time, and
every name that packaging and the benchmark tracer refer to exists and works.

scipy is a test-only dependency (spline and LP oracles) and matplotlib is
not a dependency at all; importing either at run time would cost set-up
time and memory in every simulation.  jsonschema is needed only to parse a
scenario file, which builtin scenarios never do.  `pyproject.toml` console
scripts and the functions `perfbench/tracing.py` wraps are looked up by
name, so a rename or deletion would only show when someone runs them.
The tracer's observers also read arguments and results of the functions
they wrap (`agent.config.plan_rate`, the track list, `problem.A_in`), so a
short traced run checks that they still can.
"""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_harness_and_scenario_import_without_scipy_or_matplotlib():
    code = ("import sys, swarmplan.harness, swarmplan.scenario; "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'matplotlib', 'jsonschema'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_console_scripts_resolve():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_bench_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert targets
    for owner, attr, span, *_ in targets:
        assert hasattr(owner, attr), f"{span}: {owner.__name__}.{attr}"


def outcomes(result):
    return {agent: [(r.status, r.iterations, r.flags) for r in reports]
            for agent, reports in result.reports.items()}


def test_bench_tracer_observes_runs_unchanged(monkeypatch):
    from swarmplan.harness import run_scenario
    from swarmplan.scenario import builtin_scenario

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    for name in ("intersection", "antipodal"):
        scenario = builtin_scenario(name, duration=0.4)
        plain = run_scenario(scenario)
        with tracer.installed():
            traced = run_scenario(scenario)
        assert outcomes(traced) == outcomes(plain), name
        # A stage that raised, in the tracer or in the program, leaves a
        # "<stage>:<exception>" flag.
        flags = {f for reports in traced.reports.values()
                 for r in reports for f in r.flags}
        assert not [f for f in flags if ":" in f], name
    calls = tracer.deterministic_counts()["calls"]
    for span in ("qp.solve", "regions.build", "prediction.update",
                 "perception.classify"):
        assert calls.get(span, 0) > 0, span
