#!/usr/bin/env python3
"""Re-run the paper's full measurement study on a synthetic trace.

Generates one trace (like the paper's October 2012 log set) and prints
every table and figure of the evaluation — the same runners ``repro run``
and the shape checks in ``tests/test_experiments.py`` use.  This is how
EXPERIMENTS.md is produced.

Run:  python examples/measurement_study.py [--scale small|standard|mobility]

``standard`` takes a minute or two; ``small`` runs in seconds.
"""

import argparse
import importlib
import sys
import time

from repro.experiments import ALL_EXPERIMENTS, effective_scale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=("small", "standard", "mobility"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment names (e.g. exp_offload)")
    args = parser.parse_args()

    chosen = ALL_EXPERIMENTS
    if args.only:
        wanted = set(args.only.split(","))
        chosen = [m for m in ALL_EXPERIMENTS if m in wanted]
        if not chosen:
            print(f"no experiments match {args.only!r}", file=sys.stderr)
            return 2

    for name in chosen:
        module = importlib.import_module(f"repro.experiments.{name}")
        scale = effective_scale(name, args.scale)
        started = time.time()
        output = module.run(scale, args.seed)
        took = time.time() - started
        print(f"\n{'#' * 72}")
        print(f"# {name}  (scale={scale}, {took:.1f}s)")
        print(f"{'#' * 72}")
        print(output.text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
