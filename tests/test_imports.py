"""Import-level guards: no plotting or scipy code at run time,
every name that packaging, the benchmark tracer and `__all__` refer to
exists and works, `src/` defines no function that nothing refers to and
no module constant that nothing reads, and no module imports a name it
never uses.

scipy is a test-only dependency (spline and LP oracles) and matplotlib is
not a dependency at all; importing either at run time would cost set-up
time and memory in every simulation, the `swarmplan` command's included.
`pyproject.toml` console scripts and the functions `perfbench/tracing.py`
wraps are looked up by name, so a rename or deletion would only show when
someone runs them.
The tracer's observers also read arguments and results of the functions
they wrap (`agent.config.plan_rate`, the track list, `problem.A_in`, the
admitted list), so a short traced run checks that they still can.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_harness_and_scenario_import_without_scipy_or_matplotlib():
    code = ("import sys, swarmplan.cli, swarmplan.harness, "
            "swarmplan.scenario; "
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'matplotlib'}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_a_run_leaves_numpy_ma_unimported():
    # numpy.ma costs about 10 ms to import, and np.unique, np.median and
    # np.percentile import it on first use; a run calls none of them.
    code = ("import sys; from swarmplan.harness import run_scenario; "
            "from swarmplan.scenario import builtin_scenario; "
            "run_scenario(builtin_scenario('unstructured', duration=0.4)); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


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
        if name == "intersection":
            # The admission observer reads len(shapes) and len(result).
            counts = tracer.deterministic_counts()["counts"]
            assert (counts["admit.offered"] >= counts["admit.admitted"]
                    > 0), counts
    calls = tracer.deterministic_counts()["calls"]
    for span in ("qp.solve", "regions.build", "prediction.update",
                 "perception.classify", "planner.admit"):
        assert calls.get(span, 0) > 0, span


def test_all_exports_resolve():
    """Every name in a module's `__all__` exists on that module: `import *`
    fails on a stale export, and the scan below counts exports as uses."""
    for path in sorted((SRC / "swarmplan").glob("*.py")):
        module = importlib.import_module(
            "swarmplan" if path.stem == "__init__" else f"swarmplan.{path.stem}")
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, f"{path.name}: {missing}"


# Names the scan would flag, each with why it stays.
UNREFERENCED_ALLOWED = {
    # Read, not wrapped, by the tracer's regions observer
    # (perfbench/tracing.py:_regions_after).
    "slices",
}


def test_no_unreferenced_definitions(monkeypatch):
    """Every function, class and method that `src/swarmplan/*.py` defines is
    referred to somewhere in `src/` (as a name, an attribute or an import),
    exported in a module's `__all__`, wrapped by the benchmark tracer, or a
    `[project.scripts]` target.  A helper that only tests call belongs in
    the tests.

    The scan matches by name only: a definition that shares its name with
    another that is used passes (a per-shape method named like its group's,
    say), and dunder methods are skipped.
    """
    defined, used, exported = {}, set(), set()
    for path in sorted((SRC / "swarmplan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    traced = {attr for _, attr, *_ in
              importlib.import_module("tracing")._targets()}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    targets = {t.partition(":")[2] for t in scripts.values()}
    keep = used | exported | traced | targets | UNREFERENCED_ALLOWED
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in keep
                    and not (name.startswith("__") and name.endswith("__")))
    assert not unused, f"defined in src/ but referred to nowhere: {unused}"


def test_no_unread_constants():
    """Every module-level UPPER_CASE constant that `src/swarmplan/*.py`
    assigns is read somewhere in `src/` (loaded as a name or an attribute)
    or exported in a module's `__all__`.  The constants' twin of the scan
    above: a deleted mechanism must not leave its tuning values behind.
    Assigning a name, or importing it, does not count as reading it.
    """
    constants, read = {}, set()
    for path in sorted((SRC / "swarmplan").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for name in (n for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                    constants.setdefault(name.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    unread = sorted(f"{name} ({where})" for name, where in constants.items()
                    if name not in read)
    assert constants and not unread, f"assigned in src/ but never read: {unread}"


def test_no_unused_imports():
    """Every name a `src/swarmplan/*.py` module imports is used in that
    module, as a name or the root of an attribute chain, or is listed in
    its `__all__`.  The import-side twin of the scan above: a deletion
    leaves the imports it needed behind, and no linter runs on `src/`.
    """
    unused = []
    for path in sorted((SRC / "swarmplan").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"
