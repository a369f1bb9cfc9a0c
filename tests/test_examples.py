"""The examples are product code: each runs to completion.

``examples/*.py`` is where the library API is shown in use, and the
surface scan counts it as a caller (it is the only one of some kernel
parameters).  Each script runs here as its own process, the way a reader
runs it, from the repo root with ``src`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=100)
    assert done.returncode == 0, done.stderr[-2000:]
