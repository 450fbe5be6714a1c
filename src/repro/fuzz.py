"""Seeded scenario fuzzing with strict invariants and greedy shrinking.

The fuzzer is the offensive half of the :mod:`repro.invariants` sanitizer:
it generates randomized workload/fault/configuration combinations the
hand-written tests would never think to try, runs each one with strict
invariants, and — when a run violates a conservation law — *shrinks* the
specification to a minimal still-failing reproducer and emits a standalone
Python script that replays it.

Everything is keyed by an integer seed: :func:`generate` draws a
:class:`FuzzSpec` from a string-seeded RNG, and :func:`run_spec` builds the
system deterministically from the spec alone, so a failure found in CI
replays exactly from its seed (or its shrunk spec) on any machine.

Used by ``tests/fuzz/`` (see TESTING.md); the slow sweep is marked
``fuzz`` and runs in its own CI job.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

from repro.adversary.profiles import PROFILES as _PROFILES
from repro.core.config import (
    ControlChannelConfig, DefenseConfig, InvariantConfig, SystemConfig,
)
from repro.core.content import ContentObject, ContentProvider
from repro.core.peer import CacheEntry
from repro.core.system import NetSessionSystem
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import build_scenario, scenario_names
from repro.invariants import InvariantViolationError

__all__ = ["FuzzSpec", "FuzzResult", "generate", "run_spec", "run_seed",
           "run_seeds", "shrink", "reproducer_script"]

MB = 1024 * 1024


@dataclass(frozen=True)
class FuzzSpec:
    """One randomized scenario, fully determined by its fields.

    Frozen so shrinking can produce simplified copies with
    :func:`dataclasses.replace` while the original stays intact.
    """

    seed: int
    n_seeders: int = 8
    n_downloaders: int = 8
    object_mb: int = 96
    n_objects: int = 2
    #: Fraction of objects published with p2p enabled.
    p2p_fraction: float = 1.0
    duration_hours: float = 6.0
    #: Scenario name from the fault library, or None for a fault-free run.
    fault_scenario: Optional[str] = None
    fault_at: float = 600.0
    fault_duration: float = 1800.0
    #: Control-channel impairment baked into the config (on top of any
    #: fault-injected impairment).
    channel_latency: float = 0.0
    channel_loss: float = 0.0
    #: Edge egress cap in Mbit/s, or None for overprovisioned.
    edge_egress_mbps: Optional[float] = None
    #: Mid-run peer churn: this many (offline, online) round trips.
    churn_events: int = 0
    #: Mid-run session pause/resume round trips.
    pause_resume_events: int = 0
    #: Sampled-audit cadence; fuzz runs are small, so audit often.
    every_events: int = 500
    #: VoD streaming sessions layered on top of the download workload
    #: (0 keeps the run identical to a pre-VoD fuzzer: no video object is
    #: published and no extra RNG is consumed at run time).
    vod_streams: int = 0
    #: Serving policy installed for the video cid, or None for no policy.
    vod_policy: Optional[str] = None
    #: Fraction of peers converted to misbehavior profiles (0.0 keeps the
    #: run identical to a pre-adversary fuzzer: nothing is converted and
    #: no extra RNG stream exists).
    adversary_fraction: float = 0.0
    #: Restrict the conversion to one profile, or None for the uniform mix.
    adversary_profile: Optional[str] = None
    #: Run with the reputation/quarantine defense enabled.
    defense: bool = False
    #: Pool width for an extra region-sharded mini-scenario run under
    #: strict invariants after the classic fuzz run (0 skips it entirely:
    #: no scenario is built and no extra RNG stream exists, so the run is
    #: bit-identical to a pre-sharding fuzzer).  Exercises the columnar
    #: store, lazy materialization, and the shard merge/reconcile pass.
    shards: int = 0
    #: Device-tier mix for the mini-scenario ("off" or a preset name from
    #: :data:`repro.workload.devices.PRESET_MIXES`).  "off" keeps the run
    #: bit-identical to a pre-device fuzzer; any preset forces the
    #: mini-scenario to run (unsharded if ``shards == 0``) with
    #: heterogeneous classes under strict invariants, exercising the
    #: device columns, class scheduling, caps, and the budget checker.
    device_mix: str = "off"

    def label(self) -> str:
        """Compact identifier for logs and test ids."""
        fault = self.fault_scenario or "none"
        return (f"seed={self.seed} peers={self.n_seeders}+{self.n_downloaders} "
                f"obj={self.n_objects}x{self.object_mb}MB fault={fault} "
                f"loss={self.channel_loss:.2f}")


@dataclass
class FuzzResult:
    """Outcome of one strict-invariant fuzz run."""

    spec: FuzzSpec
    #: None when the run was clean; the strict-mode exception otherwise.
    failure: Optional[InvariantViolationError]
    completed_downloads: int = 0
    warnings: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


def generate(seed: int) -> FuzzSpec:
    """Draw one randomized spec from a string-seeded RNG.

    The RNG stream is independent of every system RNG (string-seeded like
    the control channel's), so spec generation never perturbs a run.

    Fields draw in declaration order (``every_events`` is not drawn),
    newest at the bottom, so a newly fuzzable field leaves every older
    field of a seed where it was.  The stream was bumped once, when the
    draws of two retired knobs (the settlement-policy coin and a
    three-way switch) were dropped: every field after ``channel_loss``
    re-drew then.
    """
    rng = random.Random(f"repro-fuzz:{seed}")
    fault = None
    if rng.random() < 0.7:
        fault = rng.choice(scenario_names())
    duration_hours = rng.uniform(2.0, 10.0)
    fault_at = rng.uniform(300.0, 0.4 * duration_hours * 3600.0)
    return FuzzSpec(
        seed=seed,
        n_seeders=rng.randint(2, 14),
        n_downloaders=rng.randint(2, 14),
        object_mb=rng.choice((16, 48, 96, 160, 300)),
        n_objects=rng.randint(1, 3),
        p2p_fraction=rng.choice((1.0, 1.0, 0.5)),
        duration_hours=duration_hours,
        fault_scenario=fault,
        fault_at=fault_at,
        fault_duration=rng.uniform(600.0, 3600.0),
        channel_latency=rng.choice((0.0, 0.0, 0.05, 0.25)),
        channel_loss=rng.choice((0.0, 0.0, 0.02, 0.10)),
        edge_egress_mbps=rng.choice((None, None, 500.0, 2000.0)),
        churn_events=rng.randint(0, 6),
        pause_resume_events=rng.randint(0, 6),
        vod_streams=rng.choice((0, 0, 0, 2, 4)),
        vod_policy=rng.choice(
            (None, "unrestricted", "isp_local", "popularity_seeding")
        ),
        adversary_fraction=rng.choice((0.0, 0.0, 0.0, 0.15, 0.3)),
        adversary_profile=rng.choice((None, None) + _PROFILES),
        defense=rng.random() < 0.5,
        shards=rng.choice((0, 0, 0, 1, 2, 4)),
        device_mix=rng.choice(
            ("off", "off", "off", "balanced", "router_heavy", "mobile_heavy")),
    )


def _build_config(spec: FuzzSpec) -> SystemConfig:
    return SystemConfig(
        channel=ControlChannelConfig(
            latency=spec.channel_latency,
            loss_prob=spec.channel_loss,
        ),
        invariants=InvariantConfig(
            mode="strict", every_events=spec.every_events
        ),
        edge_egress_mbps=spec.edge_egress_mbps,
        defense=DefenseConfig(enabled=spec.defense),
    )


def run_spec(spec: FuzzSpec) -> FuzzResult:
    """Build and run one spec under strict invariants.

    Returns a clean :class:`FuzzResult` or one carrying the
    :class:`InvariantViolationError` that strict mode raised.  Never lets
    the violation propagate — the sweep wants to keep fuzzing.
    """
    try:
        system = NetSessionSystem(_build_config(spec), seed=spec.seed)
        rng = random.Random(f"repro-fuzz-run:{spec.seed}")
        provider = ContentProvider(cp_code=7001, name="FuzzCo")
        objects = []
        for i in range(spec.n_objects):
            objects.append(ContentObject(
                f"fuzzco/blob-{i}.bin", spec.object_mb * MB, provider,
                p2p_enabled=(i < spec.p2p_fraction * spec.n_objects or i == 0),
            ))
            system.publish(objects[-1])

        # The optional VoD layer: a dedicated video object, seeded into half
        # the seeders *before* they boot (so the copies register with the
        # control plane at login).  With vod_streams == 0 this whole layer —
        # object, caches, policy, streams — does not exist and the run is
        # bit-identical to a download-only fuzz.
        video = None
        if spec.vod_streams > 0:
            video = ContentObject(
                "fuzzco/video-0.mp4", 24 * MB, provider, p2p_enabled=True,
            )
            system.publish(video)

        country = system.world.by_code["DE"]
        seeders = []
        for _ in range(spec.n_seeders):
            seeder = system.create_peer(country=country, uploads_enabled=True)
            for obj in objects:
                seeder.cache[obj.cid] = CacheEntry(obj.cid, completed_at=0.0)
            if video is not None and len(seeders) % 2 == 0:
                seeder.cache[video.cid] = CacheEntry(video.cid, completed_at=0.0)
            seeder.boot()
            seeders.append(seeder)

        downloaders = []
        horizon = spec.duration_hours * 3600.0
        for i in range(spec.n_downloaders):
            peer = system.create_peer(country=country, uploads_enabled=True)
            peer.boot()
            downloaders.append(peer)
            obj = objects[i % len(objects)]
            system.sim.schedule_at(
                rng.uniform(60.0, 0.5 * horizon),
                lambda p=peer, o=obj: p.online and p.start_download(o),
            )

        if spec.fault_scenario is not None:
            specs = build_scenario(
                spec.fault_scenario,
                at=min(spec.fault_at, 0.6 * horizon),
                duration=spec.fault_duration,
            )
            FaultInjector(system, specs, seed=spec.seed ^ 0xFA17).arm()

        for i in range(spec.churn_events):
            victim = downloaders[i % len(downloaders)]
            down_at = rng.uniform(0.2, 0.7) * horizon
            system.sim.schedule_at(
                down_at, lambda p=victim: p.online and p.go_offline())
            system.sim.schedule_at(
                down_at + rng.uniform(120.0, 1800.0),
                lambda p=victim: not p.online and p.boot())

        def pause_resume(peer) -> None:
            for session in list(peer.sessions.values()):
                if session.state == "active":
                    session.pause()
                elif session.state == "paused":
                    session.resume()

        for i in range(spec.pause_resume_events):
            victim = downloaders[(i * 3 + 1) % len(downloaders)]
            system.sim.schedule_at(
                rng.uniform(0.2, 0.8) * horizon,
                lambda p=victim: p.online and pause_resume(p))

        # VoD streams go last, so the vod_streams == 0 case consumes no
        # extra draws from the run RNG anywhere above.
        if spec.vod_streams > 0:
            from repro.core.streaming import start_streaming

            if spec.vod_policy is not None:
                from repro.vod.policy import make_policy

                policy = make_policy(
                    spec.vod_policy, frozenset({video.cid}),
                    counters=system.vod,
                )
                policy.install(system)
            bitrate = 48 * 1024  # bytes/s: the 24 MB video plays in ~8 min
            for i in range(spec.vod_streams):
                viewer = downloaders[i % len(downloaders)]
                system.sim.schedule_at(
                    rng.uniform(60.0, 0.5 * horizon),
                    lambda p=viewer, o=video: (
                        p.online
                        and o.cid not in p.sessions
                        and start_streaming(p, o, bitrate=bitrate)
                    ),
                )

        # Adversary conversion goes last of all: it draws only from its own
        # string-seeded RNG, so with adversary_fraction == 0 every stream
        # above is untouched and the run is bit-identical to an honest one.
        if spec.adversary_fraction > 0:
            from repro.adversary.profiles import (
                AdversaryConfig, assign_adversaries,
            )

            mix = (1.0,) * len(_PROFILES)
            if spec.adversary_profile is not None:
                mix = tuple(
                    1.0 if name == spec.adversary_profile else 0.0
                    for name in _PROFILES
                )
            assign_adversaries(
                seeders + downloaders,
                AdversaryConfig(fraction=spec.adversary_fraction,
                                profile_mix=mix),
                spec.seed,
                truth=system.adversary_truth,
            )

        system.run(until=horizon)
        system.finalize_open_downloads()
        system.audit(final=True)

        # The sharded mini-scenario goes truly last — a second, tiny
        # region-sharded ScenarioConfig run under strict invariants, built
        # from its own seeds.  With shards == 0 and device_mix == "off"
        # nothing here exists and the run is bit-identical to a
        # pre-sharding fuzzer.  A device mix forces the run (unsharded
        # when shards == 0) so the tier columns, class scheduling, and the
        # device-budget checker get fuzz coverage.  Shard-isolation
        # breaches surface as ValueError from the reconcile pass (a crash,
        # not a recorded failure: the sweep must stop on those).
        if spec.shards > 0 or spec.device_mix != "off":
            _run_sharded_mini_scenario(spec)
    except InvariantViolationError as exc:
        return FuzzResult(spec=spec, failure=exc)

    completed = sum(
        1 for r in system.logstore.downloads if r.outcome == "completed"
    )
    return FuzzResult(
        spec=spec, failure=None, completed_downloads=completed,
        warnings=system.auditor.stats.warnings,
    )


def _run_sharded_mini_scenario(spec: FuzzSpec) -> None:
    """Run a tiny region-sharded scenario under strict invariants.

    Every shard audits itself (strict mode raises inside the shard), and
    the merge's reconcile pass checks cross-shard GUID isolation.  Scale
    is deliberately tiny — the point is coverage of the columnar store +
    lazy materialization + shard merge under audit, not throughput.
    """
    from repro.runner import run_scenario_artifact
    from repro.workload.demand import DemandConfig
    from repro.workload.devices import PRESET_MIXES
    from repro.workload.population import PopulationConfig
    from repro.workload.scenario import ScenarioConfig
    from repro.workload.sharding import ShardingConfig

    device = (PRESET_MIXES[spec.device_mix]()
              if spec.device_mix != "off" else None)
    duration_days = min(spec.duration_hours, 6.0) / 24.0
    config = ScenarioConfig(
        seed=spec.seed,
        duration_days=duration_days,
        system=SystemConfig(
            invariants=InvariantConfig(mode="strict",
                                       every_events=spec.every_events),
            defense=DefenseConfig(enabled=spec.defense),
        ),
        population=PopulationConfig(
            n_peers=10 * (spec.n_seeders + spec.n_downloaders),
            device=device),
        demand=DemandConfig(
            total_downloads=5 * spec.n_downloaders,
            duration_days=duration_days),
        sharding=(ShardingConfig(shards=spec.shards)
                  if spec.shards > 0 else None),
        warm_copies_per_peer=1.0,
    )
    run_scenario_artifact(config)


def run_seed(seed: int) -> FuzzResult:
    """Generate and run one seed — the process-pool work unit.

    Deterministic from the integer alone (spec generation and the run
    itself are both seeded from it), so a pool worker returns the same
    result the parent process would have computed.
    """
    return run_spec(generate(seed))


def run_seeds(seeds: list[int], *, jobs: int = 1) -> list[FuzzResult]:
    """Run many seeds, optionally across a process pool, in seed order.

    The parallel sweep only *finds* failures; shrinking a failure stays
    serial (see :func:`shrink`) because each shrink step depends on the
    previous verdict.  Results come back in input order, so a CI sweep
    reports the same first-failing seed at every ``--jobs`` width.
    """
    from repro.runner import parallel_map

    return parallel_map(run_seed, list(seeds), jobs=jobs)


# ---------------------------------------------------------------- shrinking

def _candidates(spec: FuzzSpec) -> list[FuzzSpec]:
    """Simplified variants of ``spec``, most aggressive first."""
    out: list[FuzzSpec] = []
    if spec.fault_scenario is not None:
        out.append(replace(spec, fault_scenario=None))
    if spec.adversary_fraction:
        out.append(replace(spec, adversary_fraction=0.0,
                           adversary_profile=None))
    if spec.defense:
        out.append(replace(spec, defense=False))
    if spec.device_mix != "off":
        out.append(replace(spec, device_mix="off"))
    if spec.shards:
        out.append(replace(spec, shards=0))
    if spec.vod_streams:
        out.append(replace(spec, vod_streams=0, vod_policy=None))
    if spec.vod_policy is not None:
        out.append(replace(spec, vod_policy=None))
    if spec.churn_events:
        out.append(replace(spec, churn_events=0))
    if spec.pause_resume_events:
        out.append(replace(spec, pause_resume_events=0))
    if spec.channel_loss or spec.channel_latency:
        out.append(replace(spec, channel_loss=0.0, channel_latency=0.0))
    if spec.edge_egress_mbps is not None:
        out.append(replace(spec, edge_egress_mbps=None))
    if spec.n_objects > 1:
        out.append(replace(spec, n_objects=1))
    if spec.n_downloaders > 2:
        out.append(replace(spec, n_downloaders=max(2, spec.n_downloaders // 2)))
    if spec.n_seeders > 2:
        out.append(replace(spec, n_seeders=max(2, spec.n_seeders // 2)))
    if spec.object_mb > 16:
        out.append(replace(spec, object_mb=max(16, spec.object_mb // 2)))
    if spec.duration_hours > 2.0:
        out.append(replace(spec, duration_hours=max(2.0, spec.duration_hours / 2)))
    return out


def shrink(
    spec: FuzzSpec,
    *,
    still_fails: Optional[Callable[[FuzzSpec], bool]] = None,
    max_attempts: int = 40,
) -> FuzzSpec:
    """Greedily simplify a failing spec while it keeps failing.

    Each round tries the candidate simplifications in order and restarts
    from the first one that still reproduces a strict-mode violation; the
    loop ends when no candidate fails or the attempt budget runs out.
    ``still_fails`` is injectable for tests (defaults to re-running the
    spec via :func:`run_spec`).
    """
    if still_fails is None:
        still_fails = lambda s: not run_spec(s).ok  # noqa: E731
    attempts = 0
    current = spec
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
            if attempts >= max_attempts:
                break
    return current


def reproducer_script(spec: FuzzSpec) -> str:
    """A standalone script that replays ``spec`` with strict invariants.

    Shown (and writable to disk) when a fuzz test fails, so the minimal
    scenario can be rerun under a debugger without the fuzz machinery.
    """
    fields = ",\n    ".join(
        f"{name}={value!r}" for name, value in asdict(spec).items()
    )
    return f'''\
"""Minimal reproducer for a strict-invariant violation found by the fuzzer.

Run with:  PYTHONPATH=src python reproduce_fuzz_{spec.seed}.py
"""
from repro.fuzz import FuzzSpec, run_spec

spec = FuzzSpec(
    {fields},
)
result = run_spec(spec)
if result.failure is not None:
    raise SystemExit(f"still failing: {{result.failure}}")
print("no violation — the underlying bug is fixed")
'''
