"""Database nodes: the control plane's object→peer directory.

A DN (paper §3.6) maintains "a database of which objects are currently
available on which peers, as well as details about the connectivity of these
peers".  Peers appear only when (a) uploads are enabled and (b) the peer
currently has objects to share.  DN state is *soft* (§3.8): it can be lost
and rebuilt from the peers via RE-ADD, and registrations expire unless
refreshed.

Each DN serves one control-plane network region; CNs query only their local
DNs (§3.7), which is what keeps peer-to-peer traffic local.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PeerRegistration", "DatabaseNode"]


@dataclass
class PeerRegistration:
    """Directory entry: one peer holding one object, plus connectivity info.

    Locality fields feed the nested selection sets of §3.7 (AS → country →
    geographic region → world); ``nat_reported`` feeds the connectivity
    filter.
    """

    guid: str
    cid: str
    asn: int
    country_code: str
    region: str            # geographic region
    nat_reported: str      # STUN-reported NAT type value
    uploads_enabled: bool
    registered_at: float
    refreshed_at: float
    #: Corporate LAN site id; "" for residential peers (§5.3 extension).
    lan_id: str = ""
    #: Device-tier name ("desktop" covers the homogeneous default); feeds
    #: class-aware candidate ranking when a device mix sets weights.
    device_class: str = "desktop"


class DatabaseNode:
    """One DN: per-object ordered peer lists with soft-state expiry.

    Peer lists are kept in insertion/rotation order: when the selection
    logic picks a peer it rotates it to the end ("when a peer is selected,
    it is placed at the end of a peer selection list for fairness", §3.7).
    Python dicts preserve insertion order, which gives us an O(1) rotate.
    """

    def __init__(self, name: str, network_region: str, registration_ttl: float):
        if not registration_ttl > 0:
            raise ValueError("registration TTL must be positive")
        self.name = name
        self.network_region = network_region
        self.registration_ttl = registration_ttl
        self.table: dict[str, dict[str, PeerRegistration]] = {}
        self.alive = True

    # --------------------------------------------------------------- updates

    def register(self, reg: PeerRegistration) -> bool:
        """Add or refresh a registration.  Returns True if newly added."""
        if not self.alive:
            return False
        entries = self.table.setdefault(reg.cid, {})
        existed = reg.guid in entries
        if existed:
            entries[reg.guid].refreshed_at = reg.refreshed_at
            entries[reg.guid].nat_reported = reg.nat_reported
        else:
            entries[reg.guid] = reg
        return not existed

    def unregister(self, guid: str, cid: str) -> None:
        """Remove one (peer, object) entry."""
        entries = self.table.get(cid)
        if entries is not None:
            entries.pop(guid, None)
            if not entries:
                del self.table[cid]

    def unregister_peer(self, guid: str) -> int:
        """Remove a peer from every object list (offline or quarantined).

        Returns the number of entries removed (the reputation engine counts
        quarantine evictions).
        """
        removed = 0
        empty = []
        for cid, entries in self.table.items():
            if entries.pop(guid, None) is not None:
                removed += 1
            if not entries:
                empty.append(cid)
        for cid in empty:
            del self.table[cid]
        return removed

    def expire(self, now: float) -> int:
        """Drop registrations not refreshed within the TTL; returns count."""
        dropped = 0
        empty = []
        for cid, entries in self.table.items():
            stale = [g for g, r in entries.items()
                     if now - r.refreshed_at > self.registration_ttl]
            for g in stale:
                del entries[g]
                dropped += 1
            if not entries:
                empty.append(cid)
        for cid in empty:
            del self.table[cid]
        return dropped

    def rotate_to_end(self, cid: str, guid: str) -> None:
        """Fairness rotation: move a just-selected peer to the list's end."""
        entries = self.table.get(cid)
        if entries and guid in entries:
            entries[guid] = entries.pop(guid)

    # -------------------------------------------------------------- failures

    def fail(self) -> None:
        """Simulate a DN crash: all soft state is lost (§3.8)."""
        self.table.clear()
        self.alive = False

    def recover(self) -> None:
        """Bring the DN back (empty); RE-ADD repopulates it."""
        self.alive = True

    # ---------------------------------------------------------------- reads

    def peers_for(self, cid: str) -> list[PeerRegistration]:
        """Current registrations for an object, in rotation order."""
        return list(self.table.get(cid, {}).values())

    def copy_count(self, cid: str) -> int:
        """Number of peers currently registered for an object."""
        return len(self.table.get(cid, {}))

    def total_registrations(self) -> int:
        """Total (peer, object) entries held."""
        return sum(len(v) for v in self.table.values())
