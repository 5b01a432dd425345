import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
