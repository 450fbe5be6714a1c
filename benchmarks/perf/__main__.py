"""``PYTHONPATH=src python -m benchmarks.perf`` (see :mod:`benchmarks.perf.cli`)."""

import sys

from benchmarks.perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
