"""Entry point: ``python -m benchmarks.spine …`` or, as BENCHMARK.json
names it, ``python3 benchmarks/spine/__main__.py …`` from the repo root.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
# run as a script, sys.path[0] is this directory: drop it so the package's
# modules are only importable under their package name
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
for path in (_ROOT / "src", _ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from benchmarks.spine.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
