"""The declarative fault model: what can break, when, and for how long.

A :class:`FaultSpec` is a frozen dataclass describing one fault: a unique
name, an absolute start time, a duration (0 = instantaneous), and whatever
scope selector the fault kind needs (a network region, a population
fraction).  Specs carry their own behaviour — ``apply()`` breaks things and
returns an opaque revert token, ``revert()`` consumes it — so the injector
engine stays generic and a custom fault is one subclass away (see
DESIGN.md's "Fault injection" section).

Randomness is per fault: each spec derives its own RNG from the scenario
seed and its name (string seeding, so the stream is stable across
processes regardless of ``PYTHONHASHSEED``).  Two specs never share a
stream, which means adding a fault to a scenario cannot perturb how an
existing fault selects its victims.

The faults map to the paper's robustness story (§3.8): CN outages and DN
wipes exercise reconnection and RE-ADD; a control-plane blackout exercises
the edge-only fallback; brownouts, link degradation, NAT rebinds, churn
storms, and flaky uploaders exercise the data-path defences (backstop,
endgame steal, piece verification).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TypeVar

from repro.bounds import bound, check_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = [
    "FaultSpec", "InjectionContext",
    "CNOutage", "DNWipe", "ControlPlaneBlackout", "EdgeBrownout",
    "LinkDegradation", "NATRebind", "PeerChurnStorm", "FlakyUploader",
    "ControlMessageLoss", "ControlLatencySpike", "RegionPartition",
    "AdversarialInfestation", "ReputationWipe",
]

T = TypeVar("T")


@dataclass
class InjectionContext:
    """What a fault handler gets to work with: the system and its own RNG."""

    system: "NetSessionSystem"
    rng: random.Random

    def select(self, items: Sequence[T], fraction: float) -> list[T]:
        """Deterministically sample ``fraction`` of ``items`` (at least one).

        ``items`` must be in a stable order (lists built in creation order
        are); the draw comes from the fault's own RNG.
        """
        items = list(items)
        if not items or fraction <= 0:
            return []
        k = min(len(items), max(1, round(fraction * len(items))))
        return self.rng.sample(items, k)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: name, timing, and (in subclasses) scope."""

    name: str
    #: Absolute simulated start time, seconds.
    start: float = bound("[0, inf)")
    #: Seconds until the fault is reverted; 0 means instantaneous (the
    #: fault happens and recovery begins immediately, e.g. a DN wipe).
    duration: float = bound("[0, inf)", 0.0)

    def __post_init__(self):
        if not self.name:
            raise ValueError("fault needs a non-empty name")
        check_bounds(self)

    @property
    def instantaneous(self) -> bool:
        """True when the fault has no hold period (apply == the whole event)."""
        return self.duration <= 0

    def make_rng(self, seed: int) -> random.Random:
        """The fault's private RNG, stable across processes.

        String seeding hashes through SHA-512 inside ``random.Random``, so
        the stream does not depend on ``PYTHONHASHSEED``.
        """
        return random.Random(f"fault:{seed}:{self.name}")

    def apply(self, ctx: InjectionContext) -> object:
        """Break things.  Returns an opaque token ``revert`` will consume."""
        raise NotImplementedError

    def revert(self, ctx: InjectionContext, token: object) -> None:
        """Undo the fault (restore capacity, restart nodes...).  Default no-op:
        instantaneous faults and faults whose recovery is driven by the
        system itself (RE-ADD, reconnection) need nothing here."""

    def describe(self) -> str:
        """One-line human summary for timelines and reports."""
        window = "instant" if self.instantaneous else f"{self.duration:.0f}s"
        return f"{self.kind()} at t={self.start:.0f}s ({window})"

    @classmethod
    def kind(cls) -> str:
        """Stable identifier of the fault class for reports."""
        return cls.__name__


# --------------------------------------------------------------- control plane


@dataclass(frozen=True)
class CNOutage(FaultSpec):
    """Crash a set of connection nodes; restart them when the fault ends.

    Connected peers are orphaned and reconnect elsewhere, rate-limited
    (§3.8).  With ``fraction=1.0`` and no surviving region this shades into
    a control-plane blackout for queries — use
    :class:`ControlPlaneBlackout` when the DNs should go too.
    """

    #: Restrict to one network region; None = fleet-wide.
    region: str | None = None
    #: Fraction of the in-scope, alive CNs to crash.
    fraction: float = bound("[0, 1]", 1.0)

    def apply(self, ctx: InjectionContext) -> object:
        plane = ctx.system.control
        pool = [
            cn for cn in plane.all_cns
            if cn.alive and (self.region is None or cn.network_region == self.region)
        ]
        victims = ctx.select(pool, self.fraction)
        for cn in victims:
            plane.fail_cn(cn)
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        plane = ctx.system.control
        for cn in token:
            plane.recover_cn(cn)
        # Victims' peers already reconnected at crash time *if* a CN was
        # alive to take them; after a full outage they were stranded with
        # no CN at all and retry once service returns (§3.8).
        plane.reconnect_stranded(ctx.system.iter_peer_nodes())


@dataclass(frozen=True)
class DNWipe(FaultSpec):
    """Crash database nodes, losing their soft state (§3.8).

    Always instantaneous: with ``re_add=True`` it models the
    fail-and-recover cycle the paper describes — the node restarts empty
    and the CNs broadcast RE-ADD so peers repopulate the directory.  (A
    held control-plane outage is :class:`ControlPlaneBlackout`.)
    """

    region: str | None = None
    fraction: float = bound("[0, 1]", 1.0)
    #: Broadcast RE-ADD on recovery so peers re-list their stored files.
    re_add: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not self.instantaneous:
            raise ValueError(f"fault {self.name!r}: a DN wipe is instantaneous "
                             f"(duration 0), got {self.duration}")

    def apply(self, ctx: InjectionContext) -> object:
        plane = ctx.system.control
        pool = [
            dn for dn in plane.all_dns
            if dn.alive and (self.region is None or dn.network_region == self.region)
        ]
        for dn in ctx.select(pool, self.fraction):
            plane.fail_dn(dn, recover=self.re_add)
            if not self.re_add:
                dn.recover()
        return []


@dataclass(frozen=True)
class ControlPlaneBlackout(FaultSpec):
    """Every CN and DN down (in a region, or everywhere) for the duration.

    The §3.8 worst case: peers that cannot reach any CN still download,
    edge-only.  On restore the DNs come back empty and are repopulated by
    peer logins and registration refreshes; online peers are reconnected
    rate-limited through the plane's shared token bucket.

    With ``self_recovery=True`` the restore brings the servers back but
    schedules no reconnections: the clients must find their own way back
    through the control channel's breaker probes and refresh failovers —
    the scenario `exp_blackout_recovery` measures.
    """

    region: str | None = None
    #: Leave recovery entirely to the per-peer channel machinery.
    self_recovery: bool = False

    def apply(self, ctx: InjectionContext) -> object:
        ctx.system.control.blackout(self.region)
        return None

    def revert(self, ctx: InjectionContext, token: object) -> None:
        peers = None if self.self_recovery else ctx.system.iter_peer_nodes()
        ctx.system.control.restore(self.region, peers=peers)


# -------------------------------------------------------------- control channel


@dataclass(frozen=True)
class ControlMessageLoss(FaultSpec):
    """Drop a fraction of control messages on a set of peers' channels.

    Each affected peer's :class:`~repro.core.control.channel.ControlChannel`
    starts losing messages in both directions with ``loss_prob``; the
    channel's timeouts, backoff retries, and (past the breaker threshold)
    degraded-mode machinery absorb the damage.  The fault composes with
    :class:`ControlLatencySpike` — each restores only the knob it touched.
    """

    #: Fraction of peers whose channel turns lossy.
    fraction: float = bound("[0, 1]", 1.0)
    #: Per-direction message loss probability while the fault holds.
    loss_prob: float = bound("[0, 1)", 0.3)

    def apply(self, ctx: InjectionContext) -> object:
        victims = []
        for peer in ctx.select(ctx.system.peer_universe(), self.fraction):
            victims.append((peer, peer.channel.loss_prob))
            peer.channel.loss_prob = self.loss_prob
            peer.wake_refresh()
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        for peer, old in token:
            peer.channel.loss_prob = old


@dataclass(frozen=True)
class ControlLatencySpike(FaultSpec):
    """Inflate control-channel latency on a set of peers (congested path).

    Every RPC now takes two one-way trips of ``latency`` seconds; responses
    slower than the channel's request timeout are treated as lost, so a
    spike past the timeout shades into effective message loss.
    """

    fraction: float = bound("[0, 1]", 1.0)
    #: One-way control-message latency while the fault holds, seconds.
    latency: float = bound("[0, inf)", 5.0)

    def apply(self, ctx: InjectionContext) -> object:
        victims = []
        for peer in ctx.select(ctx.system.peer_universe(), self.fraction):
            victims.append((peer, peer.channel.latency))
            peer.channel.latency = self.latency
            peer.wake_refresh()
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        for peer, old in token:
            peer.channel.latency = old


@dataclass(frozen=True)
class RegionPartition(FaultSpec):
    """Cut the control path between a region's peers and every CN.

    Unlike :class:`ControlPlaneBlackout` the servers stay healthy — only
    the affected peers cannot reach them (a transit dispute, a mis-pushed
    ACL).  Their channels stop delivering messages entirely: requests time
    out, breakers trip, downloads degrade to edge-only, and when the
    partition heals the recovery probes bring the region back without any
    server-side action.  ``region=None`` partitions every peer.
    """

    #: Network region to cut off; None = all peers everywhere.
    region: str | None = None

    def apply(self, ctx: InjectionContext) -> object:
        victims = []
        for peer in ctx.system.peer_universe():
            if self.region is not None and peer.network_region != self.region:
                continue
            if peer.channel.reachable:
                peer.channel.reachable = False
                peer.wake_refresh()
                victims.append(peer)
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        for peer in token:
            peer.channel.reachable = True


# ------------------------------------------------------------------- data path


@dataclass(frozen=True)
class EdgeBrownout(FaultSpec):
    """Degrade edge-server egress to a fraction of normal capacity.

    The infrastructure half of the hybrid weakens: peer-assisted downloads
    lean on the swarm, edge-only downloads slow down.  This is the scenario
    where peer assistance is a *reliability* feature, not just a cost one.
    """

    region: str | None = None
    fraction: float = bound("[0, 1]", 1.0)
    #: Remaining egress as a fraction of normal.
    capacity_factor: float = bound("(0, 1]", 0.1)

    def apply(self, ctx: InjectionContext) -> object:
        servers = ctx.system.edge.servers_in(self.region)
        victims = [
            s for s in ctx.select(servers, self.fraction)
            if s.apply_brownout(ctx.system.flows, self.capacity_factor)
        ]
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        for server in token:
            server.clear_brownout(ctx.system.flows)


@dataclass(frozen=True)
class LinkDegradation(FaultSpec):
    """Degrade a fraction of peers' access links (congestion, line faults).

    Both directions shrink; in-flight flows are re-allocated immediately.
    The edge backstop should absorb most of the damage for downloads whose
    *uploaders* are hit.
    """

    fraction: float = bound("[0, 1]", 0.25)
    down_factor: float = bound("(0, 1]", 0.2)
    up_factor: float = bound("(0, 1]", 0.2)

    def apply(self, ctx: InjectionContext) -> object:
        flows = ctx.system.flows
        victims = [
            peer for peer in ctx.select(ctx.system.peer_universe(), self.fraction)
            if peer.link.degrade(flows, self.down_factor, self.up_factor)
        ]
        for session in (s for p in victims for s in p.sessions.values()):
            session.wake_backstop()  # its cap is a fraction of the downlink
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        flows = ctx.system.flows
        for peer in token:
            peer.link.restore(flows)
            for session in peer.sessions.values():
                session.wake_backstop()


@dataclass(frozen=True)
class NATRebind(FaultSpec):
    """Re-draw the NAT profile of a fraction of peers (CPE reboots, CGN churn).

    The directory keeps each victim's stale reported type until its next
    refresh, so candidate selection temporarily works from wrong
    connectivity data — the §3.7 matching degrades exactly as it would in
    production.  With a duration, the original profiles return at the end;
    instantaneous rebinds are permanent.
    """

    fraction: float = bound("[0, 1]", 0.2)

    def apply(self, ctx: InjectionContext) -> object:
        nat_model = ctx.system.nat_model
        victims = []
        for peer in ctx.select(ctx.system.peer_universe(), self.fraction):
            old = peer.nat_profile
            peer.rebind_nat(nat_model.rebind(old, ctx.rng))
            victims.append((peer, old))
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        if self.instantaneous:
            return
        for peer, old in token:
            peer.rebind_nat(old)


@dataclass(frozen=True)
class PeerChurnStorm(FaultSpec):
    """A burst of disconnects: a fraction of online peers drop and return.

    Each victim goes offline at a random moment inside the storm window and
    comes back after a random downtime — downloads pause/resume, uploads
    die and are replaced, directory entries are withdrawn and re-added.
    Requires a positive duration (a zero-length storm is no storm).
    """

    fraction: float = bound("[0, 1]", 0.3)
    #: (low, high) seconds a churned peer stays offline.
    downtime: tuple[float, float] = (30.0, 300.0)

    def __post_init__(self):
        super().__post_init__()
        if self.duration <= 0:
            raise ValueError(f"fault {self.name!r}: a churn storm needs a positive duration")
        lo, hi = self.downtime
        if not 0 <= lo <= hi < float("inf"):
            raise ValueError(f"fault {self.name!r}: invalid downtime range {self.downtime}")

    def apply(self, ctx: InjectionContext) -> object:
        sim = ctx.system.sim
        online = [p for p in ctx.system.peer_universe() if p.online]
        lo, hi = self.downtime
        for peer in ctx.select(online, self.fraction):
            offset = ctx.rng.uniform(0.0, self.duration)
            downtime = ctx.rng.uniform(lo, hi)
            sim.schedule(offset, lambda p=peer, d=downtime: p.churn(d))
        return None


@dataclass(frozen=True)
class FlakyUploader(FaultSpec):
    """Raise the piece-corruption probability of a fraction of uploaders.

    Exercises the §3.5 integrity defences end to end: hash verification
    discards bad pieces, repeat offenders get their connections dropped,
    and only a download drowning in corruption fails with a system cause.
    """

    fraction: float = bound("[0, 1]", 0.2)
    corruption_prob: float = bound("[0, 1]", 0.05)

    def apply(self, ctx: InjectionContext) -> object:
        uploaders = [p for p in ctx.system.peer_universe() if p.uploads_enabled]
        victims = []
        for peer in ctx.select(uploaders, self.fraction):
            victims.append((peer, peer.piece_corruption_prob))
            peer.piece_corruption_prob = self.corruption_prob
        return victims

    def revert(self, ctx: InjectionContext, token: object) -> None:
        for peer, old_prob in token:
            peer.piece_corruption_prob = old_prob


# ----------------------------------------------------------------- adversaries


@dataclass(frozen=True)
class AdversarialInfestation(FaultSpec):
    """Convert a fraction of the population into adversaries mid-run.

    Applies the :mod:`repro.adversary.profiles` misbehavior profiles —
    unlike the scenario-level ``adversary`` leaf (present from t=0), this
    models a *compromise event*: a malware push or a Sybil wave landing on
    a previously honest swarm.  Victims are recorded in the system's
    ``adversary_truth`` so the drill's false-positive-ban metric still has
    ground truth; reverting restores the saved peer attributes (the
    "cleanup" half of the incident) but deliberately leaves the truth map
    and any reputation state in place — detection history is real history.
    """

    fraction: float = bound("(0, 1]", 0.1)
    #: Restrict to one profile, or None for the uniform five-way mix.
    profile: str | None = None
    #: Per-piece corruption probability for converted corrupters.
    corruption_prob: float = bound("[0, 1]", 0.3)
    #: Upload-cap factor for converted slow-loris peers.
    slow_factor: float = bound("(0, 1]", 0.02)

    def __post_init__(self):
        super().__post_init__()
        from repro.adversary.profiles import PROFILES

        if self.profile is not None and self.profile not in PROFILES:
            raise ValueError(
                f"fault {self.name!r}: unknown profile {self.profile!r}"
            )

    def apply(self, ctx: InjectionContext) -> object:
        from repro.adversary.profiles import (
            AdversaryConfig, PROFILES, apply_profile, choose_profile,
        )

        config = AdversaryConfig(
            fraction=self.fraction,
            corruption_prob=self.corruption_prob,
            slow_factor=self.slow_factor,
        )
        honest = [
            p for p in ctx.system.peer_universe() if p.adversary_profile is None
        ]
        tokens = []
        for peer in ctx.select(honest, self.fraction):
            profile = self.profile or choose_profile(ctx.rng)
            tokens.append(apply_profile(peer, profile, config))
            peer.wake_refresh()  # uploads may have been switched on
            ctx.system.adversary_truth[peer.guid] = profile
        return tokens

    def revert(self, ctx: InjectionContext, token: object) -> None:
        from repro.adversary.profiles import revert_profile

        for t in token:
            revert_profile(t)


@dataclass(frozen=True)
class ReputationWipe(FaultSpec):
    """Erase the reputation engine's memory (instantaneous).

    Models losing the defense's soft state — a CN-side restart, a bad
    schema migration.  Every score and quarantine is forgotten: banned
    adversaries walk free until re-detected, which is exactly the recovery
    curve the adversarial drill measures.  A no-op when the defense is off.
    """

    def apply(self, ctx: InjectionContext) -> object:
        engine = ctx.system.control.reputation
        if engine is None:
            return 0
        return engine.wipe()
