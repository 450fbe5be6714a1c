"""Script entry point: ``python3 benchmarks/perf/run.py ...``.

The driver runs the benchmark by file path from the root of a checkout, so
neither the repository root (for ``benchmarks.perf``) nor ``src`` (for
``repro``) is on ``sys.path`` yet.  In a directory without ``src/repro``
this exits non-zero before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{ROOT}/src/repro not found: nothing to benchmark")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf.cli import main

    sys.exit(main())
