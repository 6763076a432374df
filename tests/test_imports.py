"""Import-level guards: no plotting or scipy code at run time, and every
name that packaging and the benchmark tracer refer to exists.

scipy is a test-only dependency (spline and LP oracles) and matplotlib is
not a dependency at all; importing either at run time would cost set-up
time and memory in every simulation.  `pyproject.toml` console scripts and
the functions `perfbench/tracing.py` wraps are looked up by name, so a
rename or deletion would only show when someone runs them.
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
            " & {'scipy', 'matplotlib'}))")
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
