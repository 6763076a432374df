"""The simulation imports no plotting or scipy code.

scipy is a test-only dependency (spline and LP oracles) and matplotlib is
not a dependency at all; importing either at run time would cost set-up
time and memory in every simulation.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_harness_and_scenario_import_without_scipy_or_matplotlib():
    code = ("import sys, swarmplan.harness, swarmplan.scenario; "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'matplotlib'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
