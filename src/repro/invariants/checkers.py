"""The built-in invariant checkers and their registry.

Each checker is a function ``(system, report) -> None`` where ``report`` is
a callback ``report(severity, subject, detail)`` bound to the checker's
name by the auditor.  Checkers must be **pure observers**: they draw no
randomness, schedule no events, and mutate nothing — a fixed-seed run is
byte-identical with auditing on or off.

Severity discipline: ``error`` means a conservation or bookkeeping law was
broken (a bug, never legitimate); ``warning`` marks soft-state drift the
protocol explicitly tolerates (a lost unregister leaving a directory entry
until its TTL, a stale CN connected-table entry after a degraded peer went
offline).  Strict mode raises only on errors.

Sampled checkers run at the simulator's audit cadence *and* at end-of-run;
``final_only`` checkers (log/ledger reconciliation over full histories) run
only at end-of-run, where an O(records) pass is affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.control.channel import ALL_STATES, DEGRADED, HEALTHY, PROBING
from repro.net.nat import DEFAULT_NAT_MIX, NATType, can_connect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["Checker", "CHECKERS", "register_checker"]

#: Relative/absolute tolerance for float rate comparisons (matches the
#: allocation engine's own settlement precision).
_REL = 1e-6
_ABS = 1e-3

Report = Callable[[str, str, str], None]


@dataclass(frozen=True)
class Checker:
    """A registered invariant checker."""

    name: str
    description: str
    func: Callable[["NetSessionSystem", Report], None]
    #: True for reconciliation passes too expensive for the sampling cadence.
    final_only: bool = False


CHECKERS: dict[str, Checker] = {}


def register_checker(name: str, description: str, *, final_only: bool = False):
    """Class-decorator-style registration for checker functions."""

    def wrap(func: Callable[["NetSessionSystem", Report], None]):
        if name in CHECKERS:
            raise ValueError(f"duplicate checker {name!r}")
        CHECKERS[name] = Checker(name, description, func, final_only=final_only)
        return func

    return wrap



# --------------------------------------------------------------------------
# flow feasibility: the water-filler never over-commits a link
# --------------------------------------------------------------------------

@register_checker(
    "flow-feasibility",
    "sum of allocated rates <= capacity on every resource; member sets exact",
)
def check_flow_feasibility(system: "NetSessionSystem", report: Report) -> None:
    flows = system.flows
    for res in flows.resources_in_use():
        total = 0.0
        for flow in res.flows:
            if not flow.active:
                report("error", f"resource:{res.name}",
                       f"inactive flow #{flow.flow_id} still attached")
                continue
            total += flow.rate
        cap = res.capacity
        if cap is not None and total > cap * (1.0 + _REL) + _ABS:
            report("error", f"resource:{res.name}",
                   f"allocated {total:.1f} B/s exceeds capacity {cap:.1f} B/s")
    for flow in flows.active_flows:
        if flow.rate < -_ABS:
            report("error", f"flow:{flow.flow_id}",
                   f"negative rate {flow.rate:.3f} B/s")
        if flow.cap is not None and flow.rate > flow.cap * (1.0 + _REL) + _ABS:
            report("error", f"flow:{flow.flow_id}",
                   f"rate {flow.rate:.1f} B/s exceeds cap {flow.cap:.1f} B/s")
        if flow.transferred > flow.size * (1.0 + _REL) + _ABS:
            report("error", f"flow:{flow.flow_id}",
                   f"transferred {flow.transferred:.0f}B exceeds size "
                   f"{flow.size:.0f}B")
        for res in flow.resources:
            if flow not in res.flows:
                report("error", f"flow:{flow.flow_id}",
                       f"active flow missing from resource {res.name!r} "
                       f"member set")


# --------------------------------------------------------------------------
# byte conservation: every credited byte is a delivered, verified piece
# --------------------------------------------------------------------------

@register_checker(
    "byte-conservation",
    "per-session source counters == verified piece bytes, exactly",
)
def check_byte_conservation(system: "NetSessionSystem", report: Report) -> None:
    for peer in system.iter_peer_nodes():
        for session in peer.sessions.values():
            subject = f"session:{peer.guid[:8]}/{session.obj.cid}"
            credited = session.edge_bytes + session.peer_bytes
            held = session.received_bytes()
            if credited != held:
                report("error", subject,
                       f"edge {session.edge_bytes}B + peer {session.peer_bytes}B"
                       f" = {credited}B but verified pieces hold {held}B")
            per_uploader = sum(session.per_uploader_bytes.values())
            if per_uploader != session.peer_bytes:
                report("error", subject,
                       f"per-uploader sum {per_uploader}B != peer_bytes "
                       f"{session.peer_bytes}B")
            if session.corrupted_bytes < 0 or session.edge_bytes < 0 \
                    or session.peer_bytes < 0:
                report("error", subject, "negative byte counter")
            if session.state == "completed" and credited != session.obj.size:
                report("error", subject,
                       f"completed with {credited}B credited of "
                       f"{session.obj.size}B object")


# --------------------------------------------------------------------------
# directory / soft-state consistency (DN tables, CN connected tables)
# --------------------------------------------------------------------------

@register_checker(
    "directory-consistency",
    "every directory entry maps to a known replica; soft-state drift bounded",
)
def check_directory_consistency(system: "NetSessionSystem", report: Report) -> None:
    now = system.sim.now
    valid_nat = {t.value for t in NATType}
    sweep_slack = 3600.0 + 1.0  # expiry sweep cadence in ControlPlane
    for dn in system.control.all_dns:
        if not dn.alive:
            continue
        ttl = dn.registration_ttl
        for cid, entries in dn.table.items():
            for guid, entry in entries.items():
                subject = f"dn:{dn.name}:{guid[:8]}/{cid}"
                peer = system.peer_by_guid.get(guid)
                if peer is None:
                    report("error", subject, "entry for unknown GUID")
                    continue
                if entry.nat_reported not in valid_nat:
                    report("error", subject,
                           f"invalid nat_reported {entry.nat_reported!r}")
                if entry.refreshed_at > now + _ABS:
                    report("error", subject,
                           f"refreshed_at {entry.refreshed_at:.0f}s is in "
                           f"the future (now {now:.0f}s)")
                if entry.registered_at > entry.refreshed_at + _ABS:
                    report("error", subject,
                           "registered_at is later than refreshed_at")
                age = now - entry.refreshed_at
                if age > ttl + sweep_slack:
                    report("error", subject,
                           f"entry {age:.0f}s stale outlived TTL "
                           f"{ttl:.0f}s plus a full expiry sweep")
                elif (peer.online and peer.uploads_enabled
                        and cid not in peer.cache and age > 60.0):
                    # The replica is gone but the unregister never landed
                    # (lost RPC, degraded channel) — legitimate soft-state
                    # drift; the TTL bounds it.
                    report("warning", subject,
                           "entry for evicted replica awaiting TTL expiry")
    for cn in system.control.all_cns:
        if not cn.alive:
            continue
        for guid, peer in cn.connected.items():
            subject = f"cn:{cn.name}:{guid[:8]}"
            if peer.guid != guid:
                report("error", subject,
                       f"connected-table key {guid[:8]} maps to peer "
                       f"{peer.guid[:8]}")
            elif not peer.online or peer.cn is not cn:
                # A degraded peer going offline, or a failover, can leave
                # the old CN's entry until its liveness check runs.
                report("warning", subject,
                       "connected entry for a peer no longer on this CN")


# --------------------------------------------------------------------------
# NAT / reachability symmetry
# --------------------------------------------------------------------------

@register_checker(
    "nat-symmetry",
    "traversal matrix symmetric, BLOCKED unreachable, profiles well-typed",
)
def check_nat_symmetry(system: "NetSessionSystem", report: Report) -> None:
    types = list(NATType)
    for a in types:
        for b in types:
            if can_connect(a, b) != can_connect(b, a):
                report("error", f"pair:{a.value}/{b.value}",
                       "can_connect is asymmetric for this pair")
        if can_connect(a, NATType.BLOCKED) or can_connect(NATType.BLOCKED, a):
            report("error", f"pair:{a.value}/blocked",
                   "BLOCKED peer reported reachable")
    if abs(sum(DEFAULT_NAT_MIX.values()) - 1.0) > 1e-9:
        report("error", "mix:default", "DEFAULT_NAT_MIX does not sum to 1")
    for peer in system.iter_peer_nodes():
        profile = peer.nat_profile
        if not isinstance(profile.true_type, NATType) \
                or not isinstance(profile.reported_type, NATType):
            report("error", f"peer:{peer.guid[:8]}",
                   f"NAT profile types malformed: {profile!r}")


# --------------------------------------------------------------------------
# event-heap / simulated-time sanity
# --------------------------------------------------------------------------

#: Heap entries examined per *sampled* audit.  The heap root region holds
#: the soonest events, which is where a past-scheduled entry would surface;
#: the full O(heap) sweep (plus the live-counter cross-check) runs in the
#: final-only ``sim-heap`` checker so a 50k-event heap doesn't blow the
#: observe-mode overhead budget.
_SAMPLED_HEAP_SCAN = 2048


@register_checker(
    "sim-time",
    "clock monotonic between audits; no near-term pending event in the past",
)
def check_sim_time(system: "NetSessionSystem", report: Report) -> None:
    sim = system.sim
    now = sim.now
    auditor = system.auditor
    last = getattr(auditor, "_last_audit_now", None)
    if last is not None and now < last - _ABS:
        report("error", "clock",
               f"simulated time went backwards: {last:.3f}s -> {now:.3f}s")
    auditor._last_audit_now = now
    if sim.pending_count() < 0:
        report("error", "heap:live-counter",
               f"pending counter is negative: {sim.pending_count()}")
    for time, _seq, event in sim._queue[:_SAMPLED_HEAP_SCAN]:
        if event.pending and time < now - _ABS:
            report("error", f"event:t={time:.3f}",
                   f"pending event scheduled at {time:.3f}s but now is "
                   f"{now:.3f}s")


@register_checker(
    "sim-heap",
    "full heap sweep: O(1) live counter exact, no pending event in the past",
    final_only=True,
)
def check_sim_heap(system: "NetSessionSystem", report: Report) -> None:
    sim = system.sim
    now = sim.now
    live = 0
    for time, _seq, event in sim._queue:
        if not event.pending:
            continue
        live += 1
        if time < now - _ABS:
            report("error", f"event:t={time:.3f}",
                   f"pending event scheduled at {time:.3f}s but now is "
                   f"{now:.3f}s")
    if live != sim.pending_count():
        report("error", "heap:live-counter",
               f"O(1) pending counter says {sim.pending_count()} but heap "
               f"scan finds {live} pending events")


# --------------------------------------------------------------------------
# control-channel breaker-state sanity
# --------------------------------------------------------------------------

@register_checker(
    "channel-state",
    "per-peer breaker state machine in a legal configuration",
)
def check_channel_state(system: "NetSessionSystem", report: Report) -> None:
    for peer in system.iter_peer_nodes():
        ch = peer.channel
        subject = f"channel:{peer.guid[:8]}"
        if ch.state not in ALL_STATES:
            report("error", subject, f"unknown state {ch.state!r}")
            continue
        if ch.state == PROBING:
            report("error", subject,
                   "PROBING observed at an event boundary (must be "
                   "transient within the probe callback)")
        if ch.consecutive_failures < 0:
            report("error", subject,
                   f"negative consecutive_failures {ch.consecutive_failures}")
        if not peer.online:
            if ch.state != HEALTHY or ch._pending:
                report("error", subject,
                       f"offline peer's channel not reset (state "
                       f"{ch.state!r}, {len(ch._pending)} pending)")
            continue
        if ch.state == DEGRADED:
            if ch.degraded_since is None:
                report("error", subject, "DEGRADED without degraded_since")
            if peer.cn is not None:
                report("error", subject,
                       "DEGRADED but peer still holds a CN reference")
            if ch._pending:
                report("error", subject,
                       f"DEGRADED with {len(ch._pending)} pending requests "
                       f"(breaker must shed them)")
            if ch._probe_event is None or not ch._probe_event.pending:
                report("error", subject,
                       "DEGRADED with no recovery probe scheduled")
        else:
            if ch.degraded_since is not None:
                report("error", subject,
                       f"{ch.state} state but degraded_since is set")
            if ch.consecutive_failures >= ch.cfg.breaker_threshold:
                report("error", subject,
                       f"{ch.consecutive_failures} consecutive failures "
                       f"should have tripped the breaker "
                       f"(threshold {ch.cfg.breaker_threshold})")


# --------------------------------------------------------------------------
# end-of-run reconciliation against logs and ledgers
# --------------------------------------------------------------------------

@register_checker(
    "edge-log-reconciliation",
    "CN download records never claim more edge bytes than the edge served",
    final_only=True,
)
def check_edge_log_reconciliation(system: "NetSessionSystem", report: Report) -> None:
    claimed: dict[tuple[str, str], int] = {}
    for rec in system.logstore.downloads:
        key = (rec.guid, rec.cid)
        claimed[key] = claimed.get(key, 0) + rec.edge_bytes
        if rec.edge_bytes < 0 or rec.peer_bytes < 0:
            report("error", f"record:{rec.guid[:8]}/{rec.cid}",
                   "negative byte count in download record")
        if rec.ended_at < rec.started_at:
            report("error", f"record:{rec.guid[:8]}/{rec.cid}",
                   f"record ends at {rec.ended_at:.0f}s before it starts "
                   f"at {rec.started_at:.0f}s")
    for (guid, cid), nbytes in claimed.items():
        trusted = system.edge.trusted_bytes_served(guid, cid)
        if nbytes > trusted:
            # Aborts without partial credit and duplicate chunk bytes only
            # ever push the trusted log *above* the credited total, so the
            # reverse gap is a conservation breach.
            report("error", f"record:{guid[:8]}/{cid}",
                   f"records claim {nbytes}B from the edge but trusted "
                   f"edge logs show only {trusted}B served")


@register_checker(
    "accounting-ledger",
    "billing summaries equal a from-scratch aggregation of accepted reports",
    final_only=True,
)
def check_accounting_ledger(system: "NetSessionSystem", report: Report) -> None:
    for line in system.accounting.ledger_drift():
        report("error", f"ledger:{line.split(':', 1)[0]}", line)


# --------------------------------------------------------------------------
# reputation / quarantine defense sanity (no-ops with the defense off)
# --------------------------------------------------------------------------

@register_checker(
    "reputation-bounds",
    "scores clamped, states legal, no quarantined peer ever selected",
)
def check_reputation_bounds(system: "NetSessionSystem", report: Report) -> None:
    from repro.adversary.reputation import GOOD, PROBATION, QUARANTINED

    engine = system.reputation
    if engine is None:
        return
    cfg = engine.config
    legal = {GOOD, PROBATION, QUARANTINED}
    for guid, entry in engine.entries():
        subject = f"reputation:{guid[:8]}"
        # Decay only shrinks magnitude, so the clamp bound holds lazily too.
        if not cfg.score_min - _ABS <= entry.score <= cfg.score_max + _ABS:
            report("error", subject,
                   f"score {entry.score:.3f} outside "
                   f"[{cfg.score_min}, {cfg.score_max}]")
        if entry.state not in legal:
            report("error", subject, f"illegal state {entry.state!r}")
        if entry.state == QUARANTINED and entry.quarantines < 1:
            report("error", subject,
                   "QUARANTINED with a zero quarantine count")
        if entry.quarantined_at > system.sim.now + _ABS:
            report("error", subject,
                   f"quarantined_at {entry.quarantined_at:.0f}s is in the "
                   f"future")
    if engine.stats.quarantine_leaks:
        report("error", "reputation:selection",
               f"{engine.stats.quarantine_leaks} quarantined peers slipped into "
               f"query answers (the admission filter must make this zero)")


@register_checker(
    "quarantine-exclusion",
    "no directory entry for a peer inside its quarantine window",
)
def check_quarantine_exclusion(system: "NetSessionSystem", report: Report) -> None:
    engine = system.reputation
    if engine is None:
        return
    now = system.sim.now
    quarantined = {
        guid for guid, _ in engine.entries() if engine.is_quarantined(guid, now)
    }
    if not quarantined:
        return
    for dn in system.control.all_dns:
        if not dn.alive:
            continue
        for cid, entries in dn.table.items():
            for guid in entries:
                if guid in quarantined:
                    # Eviction is synchronous at quarantine time and the CN
                    # refuses re-registration for the whole window, so an
                    # entry here is a defense bypass, not tolerated drift.
                    report("error", f"dn:{dn.name}:{guid[:8]}/{cid}",
                           "directory entry for a quarantined peer")


@register_checker(
    "device-budget",
    "device-tier budgets hold: legal classes, uplink caps, cache limits",
)
def check_device_budgets(system: "NetSessionSystem", report: Report) -> None:
    mix = system.device_mix
    if mix is None:
        return
    legal = {cls.name for cls in mix.classes}
    client = system.config.client
    for peer in system.all_peers:
        device = peer.device
        name = peer.device_class
        subject = f"device:{peer.guid[:8]}"
        if device is not None and name not in legal:
            report("error", subject,
                   f"device class {name!r} not in the declared mix {sorted(legal)}")
            continue
        if device is None:
            continue
        # Recompute the per-flow cap from first principles: the client
        # throttle fraction, the access link, the adversary slow factor,
        # and the tier's uplink budget.  Every live upload flow must obey
        # it — a cap implementation that forgets the device term fails here
        # within one audit interval.
        fraction = (client.backoff_rate_fraction if peer.link_busy
                    else client.upload_rate_fraction)
        cap = fraction * peer.link.up_bps * peer.adversary_slow_factor
        if device.uplink_cap_bps is not None:
            cap = min(cap, device.uplink_cap_bps)
        cap = max(1.0, cap)
        for flow in peer.upload_flows:
            if flow.cap is not None and flow.cap > cap * (1.0 + _REL) + _ABS:
                report("error", subject,
                       f"upload flow capped at {flow.cap:.0f} B/s exceeds the "
                       f"{name} device budget {cap:.0f} B/s")
        if device.cache_objects is not None \
                and len(peer.cache) > device.cache_objects:
            report("error", subject,
                   f"{len(peer.cache)} cached objects exceed the {name} "
                   f"budget of {device.cache_objects}")
