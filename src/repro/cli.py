"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiments (one per paper table/figure).
``run <experiment ...>``
    Run one or more experiments and print their paper-style tables.
    ``--jobs N`` fans the scenario runs out across a process pool (the
    tables render serially afterwards, so output is byte-identical for
    every job count); ``--cache-dir``/``--no-cache`` control the on-disk
    result cache.  ``--json`` prints one JSON list instead, one
    ``{name, scale, seed, metrics}`` object per experiment (for CI
    artifacts, e.g. the ``exp_vod_policies`` and ``exp_device_tiers``
    sweeps).
``study``
    Run the whole measurement study (all experiments).  Takes the same
    ``--jobs``/``--cache-dir``/``--no-cache`` flags as ``run``.
``trace``
    Generate a synthetic trace and export it, anonymized, as JSON lines —
    the shape of the data set the paper's authors worked from.
``faults``
    Run one fault-injection drill from the scenario library and print its
    report; with ``--list``, show the available scenarios; with ``--all``,
    run the whole library (``--jobs N`` runs drills scenario-parallel,
    reports print in library order regardless).  Each drill is a scripted
    :class:`~repro.workload.ScenarioConfig` run by the runner, so the same
    ``--scenario``/``--seed`` pair prints byte-identical output on every
    run — and the same bytes again from a pool worker.
``perf``
    Run the standard scenario once and print the simulator/allocation
    counters (:class:`~repro.core.system.SystemStats`); with ``--profile``,
    wrap the run in :mod:`cProfile` and print the hottest functions.
    ``run``/``study`` accept ``--perf`` to append the same counter table
    after the normal experiment output.
``audit``
    Run the standard scenario (or, with ``--scenario``, a fault drill)
    with the invariant sanitizer on and print the audit report — every
    recorded :class:`~repro.invariants.InvariantViolation`, deduplicated.
    Observe mode by default; ``--strict`` raises on the first error and
    exits non-zero, which is what CI wants.
``scale``
    Measure the peers-vs-wall scaling curve: lean scenarios at increasing
    population sizes under the columnar store, ``active_peer_cap`` session
    scheduling, and region-sharded execution.  Merges the measurements
    into ``BENCH_scale.json`` (same trajectory shape as
    ``BENCH_simcore.json``; gate with ``benchmarks/gate.py``).
``cache <ls|clear|verify>``
    Inspect the on-disk result cache: list entries with their scenario
    labels and staleness, clear everything, or verify payload digests
    (``verify`` exits 1 when corruption is found).

Examples
--------
::

    python -m repro list
    python -m repro run exp_offload exp_fig6 --scale small
    python -m repro run exp_table1 --perf
    python -m repro study --scale standard --jobs 4
    python -m repro trace --out ./trace --scale small
    python -m repro faults --scenario control_plane_blackout --seed 42
    python -m repro faults --all --jobs 4
    python -m repro run exp_vod_policies --scale small --jobs 2 --json
    python -m repro perf --scale small --profile
    python -m repro audit --scale small
    python -m repro audit --scenario rolling_upgrade --strict
    python -m repro scale --peers 100000 --shards 2 --strict
    python -m repro cache ls
    python -m repro cache verify
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from repro.experiments import ALL_EXPERIMENTS


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="small",
                        choices=("small", "standard", "mobility"),
                        help="scenario scale (default: small)")
    parser.add_argument("--seed", type=int, default=42)


def _add_runner_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="process-pool width for scenario runs "
                             "(default: all cores); output is byte-identical "
                             "for every value")
    _add_cache_dir(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache entirely")


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")


def _cache_root(args) -> str:
    from repro.runner import DEFAULT_CACHE_DIR

    return (args.cache_dir
            or os.environ.get("REPRO_CACHE_DIR")
            or DEFAULT_CACHE_DIR)


def _resolve_cache(args):
    """The ResultCache a run/study should use, or None with ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.runner import ResultCache

    return ResultCache(_cache_root(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NetSession reproduction (IMC 2013) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run selected experiments")
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    _add_scale(run)
    _add_runner_opts(run)
    output = run.add_mutually_exclusive_group()
    output.add_argument("--perf", action="store_true",
                        help="print perf counters for each scenario after the tables")
    output.add_argument("--json", action="store_true", dest="json_report",
                        help="emit the experiments' metrics as one JSON list "
                             "(for CI artifacts)")

    study = sub.add_parser("study", help="run the full measurement study")
    _add_scale(study)
    _add_runner_opts(study)
    study.add_argument("--perf", action="store_true",
                       help="print perf counters for each scenario after the tables")

    trace = sub.add_parser("trace", help="generate and export a synthetic trace")
    trace.add_argument("--out", required=True, help="output directory")
    trace.add_argument("--salt", default="netsession-release",
                       help="anonymization salt")
    _add_scale(trace)

    faults = sub.add_parser("faults", help="run a fault-injection drill")
    faults.add_argument("--scenario", default="control_plane_blackout",
                        help="scenario name (default: control_plane_blackout)")
    faults.add_argument("--seed", type=int, default=42)
    faults.add_argument("--at", type=float, default=600.0,
                        help="fault start, seconds into the run (default: 600)")
    faults.add_argument("--duration", type=float, default=3600.0,
                        help="fault hold period, seconds (default: 3600)")
    faults.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list available scenarios and exit")
    faults.add_argument("--all", action="store_true", dest="all_scenarios",
                        help="drill every scenario in the library")
    faults.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="with --all: run drills scenario-parallel "
                             "(default: all cores); reports still print in "
                             "library order")
    faults.add_argument("--json", action="store_true", dest="json_report",
                        help="emit the drill report as JSON (for CI artifacts)")

    perf = sub.add_parser(
        "perf", help="run the standard scenario and print perf counters"
    )
    _add_scale(perf)
    perf.add_argument("--profile", action="store_true",
                      help="run under cProfile and print the hottest functions")
    perf.add_argument("--profile-limit", type=int, default=20, metavar="N",
                      help="functions to show with --profile (default: 20)")
    perf.add_argument("--json", action="store_true", dest="json_report",
                      help="emit the counters as JSON (for scripts/CI)")

    audit = sub.add_parser(
        "audit", help="run with the invariant sanitizer on and print the report"
    )
    _add_scale(audit)
    audit.add_argument("--scenario", default=None, metavar="FAULT",
                       help="audit a fault drill instead of the standard "
                            "scenario (any name from 'repro faults --list')")
    audit.add_argument("--at", type=float, default=600.0,
                       help="with --scenario: fault start, seconds (default: 600)")
    audit.add_argument("--duration", type=float, default=3600.0,
                       help="with --scenario: fault hold, seconds (default: 3600)")
    audit.add_argument("--strict", action="store_true",
                       help="raise on the first error-severity violation "
                            "(exit code 1) instead of recording it")
    audit.add_argument("--every", type=int, default=None, metavar="N",
                       help="sampled-audit cadence in simulator events "
                            "(default: InvariantConfig.every_events)")
    audit.add_argument("--json", action="store_true", dest="json_report",
                       help="emit the audit summary as JSON")

    scale_cmd = sub.add_parser(
        "scale",
        help="measure the peers-vs-wall scaling curve (columnar + shards)",
    )
    scale_cmd.add_argument("--peers", type=int, nargs="+", metavar="N",
                           default=[10_000, 100_000],
                           help="population sizes to measure "
                                "(default: 10000 100000)")
    scale_cmd.add_argument("--days", type=float, default=3.0,
                           help="trace length in days (default: 3.0)")
    scale_cmd.add_argument("--seed", type=int, default=42)
    scale_cmd.add_argument("--shards", default="2", metavar="N",
                           help="region-shard pool width: an integer, "
                                "or 'off' for the classic unsharded "
                                "trace (default: 2)")
    scale_cmd.add_argument("--strict", action="store_true",
                           help="run every shard with the invariant "
                                "sanitizer in strict mode")
    scale_cmd.add_argument("--out", default="BENCH_scale.json", metavar="PATH",
                           help="trajectory file to merge results into "
                                "(default: BENCH_scale.json); 'none' skips "
                                "recording")

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument("action", choices=("ls", "clear", "verify"),
                       help="ls: list entries; clear: delete everything; "
                            "verify: check payload digests (exit 1 on "
                            "corruption)")
    _add_cache_dir(cache)

    return parser


def _run_experiments(names: list[str], scale: str, seed: int, *,
                     perf: bool = False, json_report: bool = False,
                     jobs: int | None = None, cache=None) -> int:
    from repro.experiments import effective_scale, planned_configs
    from repro.experiments.common import configure_runner, prefetch
    from repro.runner import default_jobs

    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    configure_runner(jobs=jobs if jobs is not None else default_jobs(),
                     cache=cache)
    # Fan the whole batch's scenario plan out across the pool up front; the
    # experiments below then render from cache hits, serially and in order,
    # so stdout is byte-identical for every --jobs value.
    plan = []
    for name in names:
        plan.extend(planned_configs(name, effective_scale(name, scale), seed))
    prefetch(plan)

    reports = []
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        effective = effective_scale(name, scale)
        started = time.time()
        output = module.run(effective, seed)
        if json_report:
            reports.append({"name": output.name, "scale": effective,
                            "seed": seed, "metrics": output.metrics})
        else:
            print(f"\n# {name}  (scale={effective})")
            print(output.text)
        # Wall-clock goes to stderr: timing must never perturb the
        # byte-parity of the rendered study.
        print(f"# {name}: {time.time() - started:.1f}s", file=sys.stderr)
    if json_report:
        print(json.dumps(reports, indent=2, sort_keys=True))
    if perf:
        _print_cached_perf()
    return 0


def _print_cached_perf() -> None:
    """Append perf-counter tables for every scenario the batch ran.

    Printed strictly after the experiment tables so the paper-style output
    (and its golden files) is unchanged by ``--perf``.  Artifacts are
    ordered by their human-readable labels (which embed the fingerprint),
    so the listing is deterministic however the pool scheduled the runs.
    """
    from repro.analysis.report import render_perf
    from repro.experiments.common import cached_results

    artifacts = sorted(cached_results().values(), key=lambda a: a.label())
    for artifact in artifacts:
        print()
        print(render_perf(
            f"perf counters  ({artifact.label()})",
            artifact.stats.as_dict(),
        ))


def _run_perf(scale: str, seed: int, *, profile: bool, profile_limit: int,
              json_report: bool = False) -> int:
    from repro.analysis.report import render_perf
    from repro.experiments.common import standard_config
    from repro.workload import run_scenario

    config = standard_config(scale, seed)
    started = time.perf_counter()
    if profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run_scenario(config)
        profiler.disable()
    else:
        profiler = None
        result = run_scenario(config)
    elapsed = time.perf_counter() - started

    stats = result.system.stats()
    counters: dict[str, object] = {"wall_seconds": round(elapsed, 2)}
    counters.update(stats.as_dict())
    if json_report:
        payload = {"scale": scale, "seed": seed, **counters}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_perf(
            f"perf counters  (scale={scale}, seed={seed})",
            counters,
        ))
    if profiler is not None:
        print()
        pstats.Stats(profiler).strip_dirs().sort_stats("cumulative").print_stats(
            profile_limit
        )
    return 0


def _run_audit(args) -> int:
    from dataclasses import replace

    from repro.analysis.report import render_audit
    from repro.invariants import InvariantViolationError
    from repro.runner import run_scenario_artifact

    overrides: dict[str, object] = {
        "mode": "strict" if args.strict else "observe",
    }
    if args.every is not None:
        overrides["every_events"] = args.every

    if args.scenario is not None:
        config = _drill_config(args, args.scenario)
        if config is None:
            return 2
        title = (f"invariant audit  (scenario={args.scenario}, "
                 f"seed={args.seed})")
    else:
        from repro.experiments.common import standard_config

        config = standard_config(args.scale, args.seed)
        title = f"invariant audit  (scale={args.scale}, seed={args.seed})"
    config = replace(config, system=config.system.with_invariants(**overrides))
    try:
        audit = run_scenario_artifact(config).audit_report()
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1

    if args.json_report:
        print(json.dumps(audit, indent=2, sort_keys=True))
    else:
        print(render_audit(title, audit))
    return 0


def _drill_config(args, scenario: str):
    """The drill config for ``scenario`` from ``--seed/--at/--duration``,
    or None after printing why it cannot be built (exit code 2)."""
    from repro.faults import SCENARIOS, drill_config, scenario_names

    if scenario not in SCENARIOS:
        print(f"unknown scenario: {scenario}", file=sys.stderr)
        print(f"available: {', '.join(scenario_names())}", file=sys.stderr)
        return None
    try:
        return drill_config(scenario, args.seed,
                            fault_at=args.at, fault_duration=args.duration)
    except ValueError as exc:  # bad --at/--duration
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_faults(args) -> int:
    from repro.faults import SCENARIOS, drill_report, scenario_names
    from repro.runner import default_jobs, parallel_map, run_scenario_artifact

    if args.list_scenarios:
        for name, factory in SCENARIOS.items():
            doc = (factory.__doc__ or "").strip().splitlines()
            print(f"{name:24s} {doc[0] if doc else ''}")
        return 0

    # --all: the whole library, in library order, over the process pool.
    names = scenario_names() if args.all_scenarios else [args.scenario]
    configs = []
    for name in names:
        configs.append(_drill_config(args, name))
        if configs[-1] is None:
            return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    artifacts = parallel_map(run_scenario_artifact, configs, jobs=jobs)
    reports = [drill_report(name, artifact)
               for name, artifact in zip(names, artifacts)]
    if args.json_report:
        data = [r.as_json() for r in reports]
        print(json.dumps(data if args.all_scenarios else data[0],
                         indent=2, sort_keys=True))
    else:
        print("\n\n".join(r.text for r in reports))
    return 0


def _run_scale(args) -> int:
    from pathlib import Path

    from repro.experiments.exp_scale import record_curve, run_curve

    if args.shards == "off":
        shards: int | None = None
    else:
        try:
            shards = int(args.shards)
            if shards < 1:
                raise ValueError
        except ValueError:
            print(f"--shards must be a positive integer or 'off'; "
                  f"got {args.shards!r}", file=sys.stderr)
            return 2
    output, results = run_curve(args.peers, seed=args.seed, days=args.days,
                                shards=shards, strict=args.strict)
    print(output.text)
    if args.out != "none":
        path = Path(args.out)
        record_curve(results, path)
        print(f"\nwrote {path}", file=sys.stderr)
    return 0


def _run_cache(args) -> int:
    from repro.runner import ResultCache

    cache = ResultCache(_cache_root(args))

    if args.action == "ls":
        entries = cache.entries(all_namespaces=True)
        if not entries:
            print(f"cache empty ({cache.root})")
            return 0
        print(f"cache at {cache.root}  (active namespace: {cache.namespace})")
        for entry in entries:
            flag = "stale " if entry.stale else "      "
            print(f"{flag}{entry.fingerprint[:16]}  "
                  f"{entry.size / 1e6:8.1f} MB  {entry.label}")
        total = sum(e.size for e in entries)
        print(f"{len(entries)} entries, {total / 1e6:.1f} MB")
        return 0

    if args.action == "clear":
        removed = cache.clear(all_namespaces=True)
        print(f"removed {removed} entries from {cache.root}")
        return 0

    if args.action == "verify":
        problems = cache.verify(all_namespaces=True)
        checked = len(cache.entries(all_namespaces=True))
        for fingerprint, problem in problems:
            print(f"CORRUPT {fingerprint[:16]}: {problem}", file=sys.stderr)
        if problems:
            print(f"{len(problems)} of {checked} entries corrupt")
            return 1
        print(f"ok: {checked} entries verified")
        return 0

    raise AssertionError(f"unhandled cache action {args.action!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in ALL_EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            doc = (module.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name:24s} {summary}")
        return 0

    if args.command == "run":
        return _run_experiments(args.experiments, args.scale, args.seed,
                                perf=args.perf, json_report=args.json_report,
                                jobs=args.jobs, cache=_resolve_cache(args))

    if args.command == "study":
        return _run_experiments(list(ALL_EXPERIMENTS), args.scale, args.seed,
                                perf=args.perf, jobs=args.jobs,
                                cache=_resolve_cache(args))

    if args.command == "perf":
        return _run_perf(args.scale, args.seed,
                         profile=args.profile, profile_limit=args.profile_limit,
                         json_report=args.json_report)

    if args.command == "audit":
        return _run_audit(args)

    if args.command == "scale":
        return _run_scale(args)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "trace":
        from repro.analysis.export import export_trace
        from repro.experiments.common import standard_config
        from repro.workload import run_scenario

        result = run_scenario(standard_config(args.scale, args.seed))
        counts = export_trace(result.logstore, result.geodb, args.out,
                              salt=args.salt)
        for name, count in sorted(counts.items()):
            print(f"{name}: {count} records")
        print(f"exported to {args.out}")
        return 0

    if args.command == "faults":
        return _run_faults(args)

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
