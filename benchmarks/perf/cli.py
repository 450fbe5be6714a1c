"""Command line of the benchmark.

Four ways in, one parser:

* ``--workload W --seed N --seconds S --trace 0|1`` — the driver's form.
  Runs that one workload in *this* process (the caller made it fresh) and
  prints one JSON object as the last line of stdout.
* no ``--trace`` — the whole benchmark: each selected workload in its own
  fresh subprocess, untraced then traced, one after the other; prints
  every metric by name with unit and direction and writes ``--out``.
* ``--selfcheck`` — all four workloads at 1/20 size, < 60 s, asserting the
  benchmark's own plumbing.
* ``--compare A.json B.json`` — two ``--out`` files, row by row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.workloads import PANEL, SCALE, WORKLOADS

__all__ = ["main"]

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: ``run_seconds`` of ``BENCHMARK.json``; the default measuring budget.
RUN_SECONDS = 30
SELFCHECK_SCALE = 1 / 20


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=42,
                   help="ScenarioConfig.seed of the first of the run's "
                        f"{PANEL} traces; the others are derived from it")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="measuring budget: passes over the traces that fit "
                        "(at least one)")
    p.add_argument("--reps", type=int,
                   help="exactly this many passes instead")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run --workload here: 0 end-to-end, 1 per-layer")
    p.add_argument("--detail", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--trace-file", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path,
                   help="write the summary (and trace-<workload>.jsonl beside it)")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    return p


# ------------------------------------------------------- one workload, here

def _run_here(args) -> int:
    """The driver's form: this process is the workload's subprocess."""
    from benchmarks.perf import harness

    dropped = harness.scrub_env()
    workload = WORKLOADS[args.workload]
    modes = harness.resolved_modes()
    print(f"# {workload.name} seed={args.seed} scale={SCALE:g} "
          f"trace={args.trace} env dropped={dropped} auto={modes}")
    if args.trace:
        result = harness.trace(workload, args.seed, trace_path=args.trace_file)
    else:
        result = harness.measure(workload, args.seed, seconds=args.seconds,
                                 reps=args.reps)
    result["modes"] = modes
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"# correctness {verdict}  "
          f"digest={result['digests'][str(args.seed)][:16]} "
          f"traces={len(result['digests'])} "
          f"events={result['events']} downloads={result['downloads']} "
          f"offload={result['offload_fraction']:.4f} "
          f"completion={result['completion_rate']:.4f} reps={result['reps']}")
    for failure in result["failures"]:
        print(f"# FAIL {failure}")
    if args.detail is not None:
        args.detail.write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


# ------------------------------------------------ the whole benchmark, forked

def _spawn(workload: str, args, trace: int, detail: Path) -> dict:
    """Run one workload in a fresh subprocess; returns its full result."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--detail", str(detail)]
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    if trace and args.out is not None:
        cmd += ["--trace-file",
                str(args.out.with_name(f"trace-{workload}.jsonl"))]
    detail.unlink(missing_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not detail.exists():
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} (trace={trace}) exited "
                         f"{proc.returncode} without a result")
    return json.loads(detail.read_text())


def _host() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def _print_rows(title: str, rows: list[tuple]) -> None:
    print(f"  {title}")
    for name, value, unit, better, extra in rows:
        print(f"    {name:<42} {value:>14.6g} {unit:<6} {better:<6} {extra}")


def _run_all(args) -> int:
    from benchmarks.perf.harness import scratch_dir

    names = [args.workload] if args.workload else list(WORKLOADS)
    summary = {"seed": args.seed, "scale": SCALE, "panel": PANEL,
               "host": _host(),
               "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "workloads": {}}
    ok = True
    for name in names:
        with scratch_dir() as scratch:
            detail = Path(scratch) / "detail.json"
            untraced = _spawn(name, args, 0, detail)
            traced = _spawn(name, args, 1, detail)

        failures = untraced["failures"] + traced["failures"]
        if any(untraced["digests"].get(seed) != digest
               for seed, digest in traced["digests"].items()):
            failures.append("traced and untraced subprocesses disagree on "
                            "trace_digest")
        correct = not failures
        ok &= correct
        attempted = untraced["attempted"]
        entry = {
            "why": WORKLOADS[name].why,
            "modes": untraced["modes"],
            "correct": correct,
            "failures": failures,
            "attempted": attempted,
            "failed": 0 if correct else attempted,
            "failed_share": 0.0 if correct else 1.0,
            "digests": untraced["digests"],
            "events": untraced["events"],
            "downloads": untraced["downloads"],
            "offload_fraction": untraced["offload_fraction"],
            "completion_rate": untraced["completion_rate"],
            "failed_outcome_share": untraced["failed_outcome_share"],
            "end_to_end": {
                m.name: {**untraced["samples"][m.name], "unit": m.unit}
                for m in END_TO_END
            },
            "per_layer": {m.name: traced["metrics"][m.name]["value"]
                          for m in PER_LAYER},
        }
        summary["workloads"][name] = entry

        print(f"{name}: {'PASS' if correct else 'FAIL'}  "
              f"digest={entry['digests'][str(args.seed)][:16]} "
              f"traces={len(entry['digests'])} events={entry['events']} "
              f"downloads={entry['downloads']} "
              f"failed_share={entry['failed_share']:.4f} "
              f"failed_outcome_share={entry['failed_outcome_share']:.4f} "
              f"auto={entry['modes']}")
        for failure in failures:
            print(f"  FAIL {failure}")
        _print_rows("end-to-end (per trace; median over passes)", [
            (m.name, entry["end_to_end"][m.name]["median"], m.unit, m.better,
             "q1 {q1:.4g} q3 {q3:.4g} min {min:.4g} max {max:.4g} n={n} "
             "bound {b:+.0%}".format(
                 b=m.bound if m.better == "lower" else -m.bound,
                 **entry["end_to_end"][m.name]))
            for m in END_TO_END
        ])
        _print_rows(f"per-layer (one traced repetition of seed {args.seed})", [
            (m.name, entry["per_layer"][m.name], m.unit, m.better,
             f"-> {m.moves}")
            for m in PER_LAYER
        ])
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


# ------------------------------------------------------------------ selfcheck

def _selfcheck(args) -> int:
    from benchmarks.perf import harness

    harness.scrub_env()
    started = time.perf_counter()
    problems: list[str] = []
    for workload in WORKLOADS.values():
        untraced = harness.measure(workload, args.seed, seconds=0,
                                   scale=SELFCHECK_SCALE, reps=1)
        traced = harness.trace(workload, args.seed, scale=SELFCHECK_SCALE)
        for result, registry in ((untraced, END_TO_END), (traced, PER_LAYER)):
            problems += [f"{workload.name}: {f}" for f in result["failures"]]
            for metric in registry:
                got = result["metrics"].get(metric.name)
                if got is None:
                    problems.append(f"{workload.name}: {metric.name} missing")
                    continue
                value = got["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(
                        f"{workload.name}: {metric.name}={value!r} not a finite number")
                if got["unit"] != metric.unit:
                    problems.append(f"{workload.name}: {metric.name} unit {got['unit']!r}")
            extra = set(result["metrics"]) - {m.name for m in registry}
            if extra:
                problems.append(f"{workload.name}: unregistered {sorted(extra)}")
        seed = str(args.seed)
        if untraced["digests"][seed] != traced["digests"][seed]:
            problems.append(f"{workload.name}: traced digest differs")
        gap = abs(traced["span_self_sum_s"] / traced["traced_wall_s"] - 1)
        if gap > 0.05:
            problems.append(
                f"{workload.name}: span self times sum to "
                f"{traced['span_self_sum_s']:.3f}s vs traced wall "
                f"{traced['traced_wall_s']:.3f}s ({gap:.1%} apart)")
        print(f"selfcheck {workload.name}: digest={traced['digests'][seed][:16]} "
              f"spans={traced['spans']} "
              f"attributed={traced['metrics']['trace.attributed_share']['value']:.3f}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"selfcheck took {elapsed:.1f}s (budget 60s)")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selfcheck {'FAIL' if problems else 'PASS'} in {elapsed:.1f}s")
    return 1 if problems else 0


# -------------------------------------------------------------------- compare

def compare_rows(a: dict, b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both summaries,
    then the two rows that say whether B simulated what A simulated."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            ratio = sb["median"] / sa["median"]
            lower = metric.better == "lower"
            worse_by = ratio - 1 if lower else 1 - ratio
            b_all_better = sb["max"] < sa["min"] if lower else sb["min"] > sa["max"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            if worse_by > metric.bound:
                status = "worse"
            elif spread > metric.bound and not b_all_better:
                status = "unresolved"
            else:
                status = "ok"
            rows.append({"workload": name, "metric": metric.name,
                         "unit": metric.unit, "a": sa["median"],
                         "b": sb["median"], "ratio": ratio,
                         "bound": metric.bound, "status": status})
        # Simulated failures are exact at a fixed seed: any increase counts.
        fa, fb = wa["failed_outcome_share"], wb["failed_outcome_share"]
        rows.append({"workload": name, "metric": "failed_outcome_share",
                     "unit": "ratio", "a": fa, "b": fb, "bound": 0.0,
                     "status": "worse" if fb > fa else "ok"})
        same = all(wa[key] == wb[key] for key in
                   ("digests", "events", "downloads", "failed_share"))
        rows.append({"workload": name, "metric": "trace_digest",
                     "status": "ok" if same else "differs"})
    return rows


def _compare(args) -> int:
    a, b = (json.loads(path.read_text()) for path in args.compare)
    rows = compare_rows(a, b)
    print(f"A = {args.compare[0]} (base)   B = {args.compare[1]}")
    print(f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6}  status")
    for row in rows:
        if row["metric"] == "trace_digest":
            print(f"{row['workload']:<16} {'trace_digest':<20} "
                  f"{'(digests, events, downloads, failed_share)':>42}  "
                  f"{row['status']}")
            continue
        ratio = f"{row['ratio']:.3f}" if "ratio" in row else "-"
        print(f"{row['workload']:<16} {row['metric']:<20} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {ratio:>7} {row['bound']:>6.0%}  "
              f"{row['status']} ({row['unit']}, base A)")
    bad = sorted({r["status"] for r in rows} & {"worse", "differs"})
    if bad:
        print(f"not clean: some rows are {' / '.join(bad)}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return _compare(args)
    if args.selfcheck:
        return _selfcheck(args)
    if args.trace is not None:
        if args.workload is None:
            raise SystemExit("--trace needs --workload")
        return _run_here(args)
    return _run_all(args)
