"""The benchmark's traced setup still finds every entry point it wraps.

``perfbench/tracing.py`` wraps methods through their class ``__dict__``
and ``perfbench/workloads.py`` patches a few more by name, so deleting,
renaming or inheriting one of them breaks the traced benchmark run.
This repeats ``perfbench/worker.py``'s traced setup in a fresh
interpreter, so such a change fails here, in tier-1.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_SETUP = """
import sys
sys.path.insert(0, "perfbench")
import tracing
import workloads
tracer = tracing.Tracer()
tracer.install()
observer = workloads.Observer(tracer)
observer.install()
observer.label_packages()
"""


def test_traced_setup_installs_every_hook():
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, "-c", TRACED_SETUP], cwd=ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
