"""The installed base as packed columns, one row per peer.

The paper measured NetSession at ~26M installed peers (§4.1); an object
graph with one :class:`~repro.core.peer.PeerNode` (plus its own 2.5KB
``random.Random`` state, control channel, and access-link resources) per
install tops out around the tens of thousands.  This store keeps the
installed base as columns — interned geography/AS/NAT ids, link
capacities, provider attribution, per-peer RNG seeds — and materializes a
real ``PeerNode`` only for rows something actually touches: a boot, a
download, a fault token, an adversary assignment.

Every :class:`~repro.core.system.NetSessionSystem` owns one store from
birth, with zero rows, and every peer is a row of it.  The row index is
the peer's creation index and names its access-link resources
(``peerN``).  Rows arrive two ways:

* **in bulk**, dormant: :func:`repro.workload.columnar.build_columnar_store`
  grows the store by ``n`` rows in one step and fills the columns;
* **one at a time**, live: ``NetSessionSystem.create_peer`` (scripted
  casts, unit tests, the eager test oracle) appends a row that already
  holds its node.

Three properties keep a dormant row as good as a live one:

* **GUIDs are lazy**: the first 128 bits of ``Random(peer_seed)``, derived
  on first read, so rows nothing asks about never pay for a ``Random``.
* **Materialization is draw-free.**  The 64-bit seed the eager build would
  have fed each peer's private RNG is recorded per row; materializing
  replays ``random.Random(seed)`` through the GUID draw and hands the
  stream to the node, and the control channel re-derives its own stream
  from the GUID string.  A peer materialized at t=0 and one materialized
  mid-run are indistinguishable from eagerly-built ones.
* **Set-up scans read columns.**  :meth:`ColumnarPopulationStore.column`
  serves an attribute of every row as a plain list (live nodes override
  their rows), so demand pools, mobility and behaviour work on row
  indexes and resolve a handle only for the rows they schedule.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.ids import make_guid
from repro.core.peer import PeerNode
from repro.net.flows import Resource
from repro.net.links import AccessLink
from repro.net.nat import NATProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import NetSessionSystem

__all__ = ["ColumnarPopulationStore", "LazyPeer"]

#: ``(column, dtype, value of a fresh row)``.  ``device_i`` indexes
#: ``_device_classes``; -1 is the homogeneous default (no tier mix).
_COLUMNS = (
    ("peer_seeds", np.uint64, 0),
    ("country_i", np.int32, 0),
    ("city_i", np.int32, 0),
    ("as_i", np.int32, 0),
    ("tier_i", np.int32, 0),
    ("down_bps", np.float64, 0),
    ("up_bps", np.float64, 0),
    ("nat_i", np.int32, 0),
    ("uploads", np.uint8, 1),
    ("installed_cp", np.int32, 0),
    ("corruption", np.float64, 0),
    ("attacker", np.uint8, 0),
    ("always_on", np.uint8, 0),
    ("tz", np.float64, 0),
    ("device_i", np.int32, -1),
)


class _Interner:
    """Interning: shared model objects become int32 indexes, keyed by
    identity (world/topology singletons) or by a value ``key``."""

    __slots__ = ("objects", "_index", "_key")

    def __init__(self, key=id):
        self.objects: list = []
        self._index: dict = {}
        self._key = key

    def intern(self, obj) -> int:
        key = self._key(obj)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.objects)
            self.objects.append(obj)
            self._index[key] = idx
        return idx


def _nat_key(profile: NATProfile):
    return profile.true_type, profile.reported_type


class _GuidColumn:
    """Row GUIDs, each derived from its ``peer_seed`` on first read; one
    slot per row, so its length is the store's."""

    __slots__ = ("_store", "_cache")

    def __init__(self, store: "ColumnarPopulationStore"):
        self._store = store
        self._cache: list[str | None] = []

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i: int) -> str:
        guid = self._cache[i]
        if guid is None:
            seed = int(self._store.peer_seeds[i])
            guid = self._cache[i] = make_guid(random.Random(seed))
        return guid


class LazyPeer:
    """A handle onto one column row; becomes a :class:`PeerNode` on touch.

    Dormant reads (identity, geography, link tier, NAT, upload setting,
    online=False…) are served straight from the columns, so population-wide
    scans — fault victim selection, demand pool bucketing, behaviour
    sweeps — never materialize anyone.  Any *mutation*, any lifecycle call
    (:meth:`boot`, downloads), and any attribute outside the columnar set
    materializes the real node and delegates to it from then on.
    """

    __slots__ = ("_pop", "_i")

    def __init__(self, pop: "ColumnarPopulationStore", i: int):
        object.__setattr__(self, "_pop", pop)
        object.__setattr__(self, "_i", i)

    # ------------------------------------------------------------- plumbing

    def _node(self):
        """The materialized node, or None while dormant."""
        return self._pop._nodes.get(self._i)

    def _real(self) -> PeerNode:
        """Materialize (idempotent) and return the real node."""
        return self._pop.materialize(self._i)

    def __getattr__(self, name: str):
        node = self._pop._nodes.get(self._i)
        if node is not None:
            return getattr(node, name)
        reader = _COLUMN_READS.get(name)
        if reader is not None:
            return reader(self._pop, self._i)
        # Anything outside the columnar surface (link, channel, cache, the
        # setter methods, identity snapshots…) needs the real node.
        return getattr(self._real(), name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._real(), name, value)

    # ------------------------------------------ lifecycle (materialize-on-call)

    def boot(self) -> None:
        self._real().boot()

    def go_offline(self) -> None:
        # A dormant peer is offline; a live node's go_offline is a no-op
        # there, so don't materialize just to do nothing.
        node = self._node()
        if node is not None:
            node.go_offline()

    def has_complete(self, cid: str) -> bool:
        node = self._node()
        if node is not None:
            return node.has_complete(cid)
        return False  # dormant peers hold nothing (warm seeding materializes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "live" if self._node() is not None else "dormant"
        return f"<LazyPeer #{self._i} {state} {self.guid[:8]}>"


#: Dormant attribute readers: name -> (store, row) -> value.  Must agree
#: exactly with what a freshly built eager peer reports.
_COLUMN_READS = {
    "guid": lambda p, i: p.guids[i],
    "country": lambda p, i: p._countries.objects[p.country_i[i]],
    "city": lambda p, i: p._cities.objects[p.city_i[i]],
    "asys": lambda p, i: p._ases.objects[p.as_i[i]],
    "nat_profile": lambda p, i: p._nats.objects[p.nat_i[i]],
    "uploads_enabled": lambda p, i: bool(p.uploads[i]),
    "installed_from_cp": lambda p, i: int(p.installed_cp[i]),
    "software_version": lambda p, i: f"ns-3.6-cp{int(p.installed_cp[i])}",
    "piece_corruption_prob": lambda p, i: float(p.corruption[i]),
    "accounting_attacker": lambda p, i: bool(p.attacker[i]),
    "adversary_profile": lambda p, i: None,
    "adversary_slow_factor": lambda p, i: 1.0,
    "online": lambda p, i: False,
    "ip": lambda p, i: "",
    "cn": lambda p, i: None,
    "link_busy": lambda p, i: False,
    "active_upload_count": lambda p, i: 0,
    "sessions": lambda p, i: {},
    "lan": lambda p, i: None,
    "boot_count": lambda p, i: 0,
    "setting_changes": lambda p, i: 0,
    "nat_rebinds": lambda p, i: 0,
    "uploads_done": lambda p, i: {},
    # Locality shortcuts (PeerNode properties, mirrored here).
    "asn": lambda p, i: p._ases.objects[p.as_i[i]].asn,
    "country_code": lambda p, i: p._countries.objects[p.country_i[i]].code,
    "geo_region": lambda p, i: p._countries.objects[p.country_i[i]].region,
    "network_region": lambda p, i: p._ases.objects[p.as_i[i]].network_region,
    "lan_id": lambda p, i: "",
    "device": lambda p, i: p.device_at(i),
    "device_class": lambda p, i: (
        p._device_classes[p.device_i[i]].name if p.device_i[i] >= 0
        else "desktop"
    ),
}


def _via_table(table, index_column) -> list:
    return [table[k] for k in index_column.tolist()]


#: Whole-column forms of the :data:`_COLUMN_READS` the set-up scans use;
#: each reads rows ``[0, n)`` of columns that may hold spare capacity.
_BULK_READS = {
    "uploads_enabled": lambda p, n: p.uploads[:n].astype(bool).tolist(),
    "installed_from_cp": lambda p, n: p.installed_cp[:n].tolist(),
    "geo_region": lambda p, n: _via_table(
        [c.region for c in p._countries.objects], p.country_i[:n]),
    # device_i == -1 (no tier mix) picks the trailing None.
    "device": lambda p, n: _via_table(p._device_classes + (None,),
                                      p.device_i[:n]),
}


class ColumnarPopulationStore:
    """The packed installed base: columns, handles, materialized nodes.

    Rows ``[0, len(store))`` are peers; the columns may be longer (spare
    capacity from one-at-a-time appends), so whole-column reads slice.
    The store is also a read-only sequence of its rows' handles (``len``,
    ``store[i]``, iteration in creation order).
    """

    def __init__(self, system: "NetSessionSystem"):
        self.system = system
        # Intern tables (shared world/topology/NAT value objects).
        self._countries = _Interner()
        self._cities = _Interner()
        self._ases = _Interner()
        self._nats = _Interner(key=_nat_key)
        self._tier_names: list[str] = []
        self._device_classes: tuple = ()
        self.guids = _GuidColumn(self)
        for name, dtype, _ in _COLUMNS:
            setattr(self, name, np.zeros(0, dtype=dtype))
        # Live state.
        self._nodes: dict[int, PeerNode] = {}
        self._handles: dict[int, LazyPeer] = {}
        #: Peak materialized-node gauge, for the scale benchmark report.
        self.peak_materialized = 0

    # ----------------------------------------------------------------- rows

    def __len__(self) -> int:
        return len(self.guids)

    def _reserve(self, rows: int) -> None:
        """Make the columns at least ``rows`` long, at exactly that length."""
        if rows <= len(self.peer_seeds):
            return
        live = len(self)
        for name, dtype, fresh in _COLUMNS:
            column = (np.full(rows, fresh, dtype=dtype) if fresh
                      else np.zeros(rows, dtype=dtype))
            column[:live] = getattr(self, name)[:live]
            setattr(self, name, column)

    def grow(self, n: int) -> int:
        """Add ``n`` dormant rows holding fresh-row values; returns the
        first.  The bulk build's one allocation: no spare capacity."""
        first = len(self)
        self._reserve(first + n)
        self.guids._cache.extend(repeat(None, n))
        return first

    def append(self, node: PeerNode) -> None:
        """Add a row that already holds ``node`` (``create_peer``).
        Columns double when full, so appends are amortized O(1)."""
        row = len(self)
        if row == len(self.peer_seeds):
            self._reserve(max(16, 2 * row))
        self.guids._cache.append(node.guid)
        # Bulk reads map every row's country_i through the intern table
        # before live nodes override their rows, so it must be a valid id.
        self.country_i[row] = self._countries.intern(node.country)
        self._adopt(row, node)

    def _adopt(self, i: int, node: PeerNode) -> None:
        self._nodes[i] = node
        if len(self._nodes) > self.peak_materialized:
            self.peak_materialized = len(self._nodes)
        self.system.peer_by_guid[node.guid] = node

    # -------------------------------------------------------------- accessors

    def handle(self, i: int) -> LazyPeer:
        """The (cached, identity-stable) handle for row ``i``."""
        handle = self._handles.get(i)
        if handle is None:
            handle = self._handles[i] = LazyPeer(self, i)
        return handle

    __getitem__ = handle

    def __iter__(self) -> Iterator[LazyPeer]:
        return map(self.handle, range(len(self)))

    def device_at(self, i: int):
        """Row ``i``'s :class:`DeviceClass`, or None without a tier mix."""
        idx = self.device_i[i]
        return self._device_classes[idx] if idx >= 0 else None

    def column(self, name: str) -> list:
        """``[getattr(p, name) for p in store]`` without the handles:
        dormant rows straight off the columns, materialized rows from
        their live node."""
        nodes = self._nodes
        bulk = _BULK_READS.get(name)
        if bulk is None:
            reader = _COLUMN_READS[name]
            return [getattr(nodes[i], name) if i in nodes else reader(self, i)
                    for i in range(len(self))]
        values = bulk(self, len(self))
        for i, node in nodes.items():
            values[i] = getattr(node, name)
        return values

    def materialized_nodes(self) -> list[PeerNode]:
        """Materialized nodes in row (creation) order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def materialized_count(self) -> int:
        return len(self._nodes)

    # ---------------------------------------------------------- materialize

    def materialize(self, i: int) -> PeerNode:
        """Build the real node for row ``i`` (idempotent, draw-free).

        Replays the per-peer RNG from its recorded seed through the GUID
        draw — leaving the stream exactly where the eager constructor
        left it — and reconstructs the access link with the same ``peerN``
        resource names and byte/s capacities the bulk build sampled.
        """
        node = self._nodes.get(i)
        if node is not None:
            return node
        rng = random.Random(int(self.peer_seeds[i]))
        guid = self.guids._cache[i] = make_guid(rng)
        link = AccessLink(
            downlink=Resource(f"peer{i}/down", float(self.down_bps[i])),
            uplink=Resource(f"peer{i}/up", float(self.up_bps[i])),
            tier=self._tier_names[self.tier_i[i]],
        )
        node = PeerNode(
            self.system,
            self._countries.objects[self.country_i[i]],
            self._cities.objects[self.city_i[i]],
            self._ases.objects[self.as_i[i]],
            link,
            self._nats.objects[self.nat_i[i]],
            uploads_enabled=bool(self.uploads[i]),
            installed_from_cp=int(self.installed_cp[i]),
            guid=guid,
            rng=rng,
        )
        node.piece_corruption_prob = float(self.corruption[i])
        node.accounting_attacker = bool(self.attacker[i])
        node.device = self.device_at(i)
        self._adopt(i, node)
        return node
