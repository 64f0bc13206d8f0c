"""The library runs on the Python standard library alone.

Every module under ``src/repro`` is imported in a fresh interpreter, and
each top-level module that the imports newly load must be part of the
standard library (or ``repro`` itself).  The snapshot comes first because
``site`` may preload third-party helpers before any library code runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_library_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                            capture_output=True, text=True, check=True)
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "repro" in loaded
    outside = [name for name in loaded
               if name != "repro" and name not in sys.stdlib_module_names]
    assert outside == []
