"""Both digest halves of every benchmark panel trace: the "same trace?" check.

``PYTHONPATH=src:. python -m tests.panel_digests --seed 42 --seed 7`` runs
every ``benchmarks.perf.workloads.panel_seeds(seed)`` trace of every
``WORKLOADS`` entry and prints one row per trace::

    <workload> <trace seed> <record digest> <event digest>

Run it from the root of each of two checkouts and ``diff`` the outputs: a
refactor keeps both halves, a perf-only change keeps the record half
(what the analysis reads) and may move the event half (heap pushes,
settles, RPC counts).  ``--json`` prints the rows as the JSON list that
``tests/golden/panel_digests.json`` pins (seed 42; the ``slow`` test in
``tests/test_panel_digests.py`` re-runs it).

Beyond ``repro`` it imports only the frozen ``benchmarks.perf`` package,
so the same file runs unchanged in any checkout that has
``repro.runner.digest``.
"""

from __future__ import annotations

import argparse
import json

from benchmarks.perf.harness import scrub_env
from benchmarks.perf.workloads import WORKLOADS, panel_seeds

__all__ = ["panel_rows"]


def panel_rows(seed: int) -> list[list]:
    """``[workload, trace seed, record digest, event digest]`` for every
    panel trace of ``seed``, in ``WORKLOADS`` then panel order."""
    from repro.runner import event_digest, record_digest, run_scenario_artifact

    rows = []
    for name, workload in WORKLOADS.items():
        for trace_seed in panel_seeds(seed):
            artifact = run_scenario_artifact(workload.config(trace_seed))
            rows.append([name, trace_seed, record_digest(artifact),
                         event_digest(artifact)])
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m tests.panel_digests", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="a panel's first scenario seed (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="print the rows as one JSON list")
    args = parser.parse_args(argv)
    scrub_env()  # the shipped defaults, not the caller's REPRO_* variables
    rows = [row for seed in args.seed for row in panel_rows(seed)]
    if args.json:
        print("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]")
    else:
        for row in rows:
            print(*row)


if __name__ == "__main__":
    main()
