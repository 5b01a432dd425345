import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_import_loads_no_scipy():
    # scipy.signal alone once took most of the package's import time, and
    # concurrent.futures adds about 5 ms; the pool's threads, which run the
    # group step and matching, start only inside reconstruct
    code = """
import json, os, sys, threading, hsrecon, hsrecon.cli
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({
    "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"],
    "futures": "concurrent.futures" in sys.modules,
    "multiprocessing": [m for m in sys.modules if m.split(".")[0] == "multiprocessing"],
    "threads": threading.active_count(),
    "children": children,
}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert json.loads(out.stdout) == {
        "scipy": [],
        "futures": False,
        "multiprocessing": [],
        "threads": 1,
        "children": False,
    }


def _workflow_names() -> set[tuple[str, str]]:
    # (module, name) for each name the CI workflow's scripts reach: every
    # "from M import a, b", "python -m hsrecon.x", and "m.attr" of each
    # submodule m of "from hsrecon import m"
    text = WORKFLOW.read_text()
    names, submodules = set(), set()
    for module, imported in re.findall(r"from ([\w.]+) import ([\w, ]+)", text):
        found = {n.strip() for n in imported.split(",")}
        names.update((module, n) for n in found)
        if module == "hsrecon":
            submodules |= found
    names.update(re.findall(r"-m\W+(hsrecon)\.(\w+)", text))
    names.update(
        (f"hsrecon.{m}", attr) for m, attr in re.findall(r"\b(\w+)\.(\w+)", text) if m in submodules
    )
    return names


def test_every_name_the_workflow_reaches_exists():
    # CI's probes call private names such as patches._match, and nothing
    # runs them before a push: a rename that leaves them behind fails here
    names = _workflow_names()
    assert {
        ("hsrecon.patches", "_match_plan"),
        ("hsrecon.patches", "_match"),
        ("hsrecon.solver", "WORKERS"),
        ("conftest", "make_tucker_scene"),
        ("test_acceptance", "DESK_PARAMS"),
    } <= names
    missing = []
    for module, name in sorted(names):
        mod = importlib.import_module(module)
        package = hasattr(mod, "__path__")  # a submodule of a package is imported by name
        if not hasattr(mod, name) and not (package and importlib.util.find_spec(f"{module}.{name}")):
            missing.append(f"{module}.{name}")
    assert missing == []
