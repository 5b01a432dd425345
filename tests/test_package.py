import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # scipy.signal alone once took most of the package's import time, and
    # concurrent.futures adds about 5 ms; the group step's threads start
    # only inside reconstruct
    code = (
        "import json, sys, threading, hsrecon, hsrecon.cli; "
        "print(json.dumps({"
        "'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy'], "
        "'futures': 'concurrent.futures' in sys.modules, "
        "'threads': threading.active_count()}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert json.loads(out.stdout) == {"scipy": [], "futures": False, "threads": 1}
