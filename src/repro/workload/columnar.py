"""Struct-of-arrays population store with lazy peer materialization.

The paper measured NetSession at ~26M installed peers (§4.1); an object
graph with one :class:`~repro.core.peer.PeerNode` (plus its own 2.5KB
``random.Random`` state, control channel, and access-link resources) per
install tops out around the tens of thousands.  This module stores the
installed base as packed columns — interned geography/AS/NAT ids, link
capacities, provider attribution, per-peer RNG seeds — and materializes a
real ``PeerNode`` only for peers something actually touches: a boot, a
download, a fault token, an adversary assignment.

Equivalence contract (enforced byte-for-byte by ``tests/scale/``; the
object-mode build — ``create_peer`` in a loop, kept as
``tests/scale/conftest.build_object_population`` — is the oracle):

* **Per-stream order, not per-peer interleaving.**  The build touches four
  separate ``random.Random`` objects — ``system.rng``, the broadband and
  NAT models' streams, the population RNG.  Each is drained in its own
  loop, in the order the oracle draws *from that stream*, and ends the
  build in the oracle's exact ``getstate()`` (``system._peer_seq`` too).
  Every per-peer sampler is one uniform through an inverse CDF, so whole
  columns are mapped at once (``searchsorted`` over the models'
  precomputed cumulative weights) from uniforms formed a block at a time
  out of the stream's raw words (:mod:`repro.net.weighted`).  Draws stay
  scalar only where a drawn *value* decides how many follow (device
  tiers) or the scalar loop is the cheaper one (NAT).  No ``AccessLink``,
  ``Resource``, ``NATProfile`` or ``Random`` is built per dormant peer.
* **GUIDs are lazy**: the first 128 bits of ``Random(peer_seed)``, derived
  on first read, so rows nothing asks about never pay for a ``Random``
  (``Population.always_on`` is a set *view* over the flag column).
* **Materialization is draw-free.**  The 64-bit seed object mode would
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
from collections.abc import Set
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.core.ids import make_guid
from repro.core.peer import PeerNode
from repro.net.links import AccessLink
from repro.net.flows import Resource
from repro.net.nat import NATProfile, NATType
from repro.net.weighted import (bits64, choice_records, pick_indices,
                                raw_words, uniforms)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.content import ContentProvider
    from repro.core.system import NetSessionSystem
    from repro.workload.population import PopulationConfig

__all__ = ["ColumnarPopulationStore", "LazyPeer", "build_columnar_store"]

#: Peers drawn and mapped per pass of the build, bounding its temporaries.
_BLOCK = 65_536

#: Probability a peer is effectively always-on (desktops left running).
ALWAYS_ON_FRACTION = 0.15


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
    """Row GUIDs, each derived from its ``peer_seed`` on first read."""

    __slots__ = ("_seeds", "_cache")

    def __init__(self, seeds):
        self._seeds = seeds
        self._cache: list[str | None] = [None] * len(seeds)

    def __getitem__(self, i: int) -> str:
        guid = self._cache[i]
        if guid is None:
            guid = self._cache[i] = make_guid(random.Random(int(self._seeds[i])))
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
        # A dormant peer is offline; object mode's go_offline is a no-op
        # there, so don't materialize just to do nothing.
        node = self._node()
        if node is not None:
            node.go_offline()

    def churn(self, downtime: float) -> None:
        self._real().churn(downtime)

    def has_complete(self, cid: str) -> bool:
        node = self._node()
        if node is not None:
            return node.has_complete(cid)
        return False  # dormant peers hold nothing (warm seeding materializes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "live" if self._node() is not None else "dormant"
        return f"<LazyPeer #{self._i} {state} {self.guid[:8]}>"


#: Dormant attribute readers: name -> (store, row) -> value.  Must agree
#: exactly with what a freshly built object-mode peer reports.
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
    "tz_offset": lambda p, i: float(p.tz[i]),
    "device": lambda p, i: p.device_at(i),
    "device_class": lambda p, i: (
        p._device_classes[p.device_i[i]].name if p.device_i[i] >= 0
        else "desktop"
    ),
}


def _via_table(table, index_column) -> list:
    return [table[k] for k in index_column.tolist()]


#: Whole-column forms of the :data:`_COLUMN_READS` the set-up scans use.
_BULK_READS = {
    "uploads_enabled": lambda p: p.uploads.astype(bool).tolist(),
    "installed_from_cp": lambda p: p.installed_cp.tolist(),
    "geo_region": lambda p: _via_table(
        [c.region for c in p._countries.objects], p.country_i),
    # device_i == -1 (no tier mix) picks the trailing None.
    "device": lambda p: _via_table(p._device_classes + (None,), p.device_i),
}


class _PeerColumnView:
    """Sequence view over the store's rows, yielding cached handles.

    Supports ``len``/index/iterate/``rng.sample`` — everything the former
    ``Population.peers`` list offered to read-only consumers.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarPopulationStore"):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store.handle(i)
                    for i in range(*index.indices(len(self._store)))]
        if index < 0:
            index += len(self._store)
        return self._store.handle(index)

    def __iter__(self) -> Iterator[LazyPeer]:
        handle = self._store.handle
        return (handle(i) for i in range(len(self._store)))


class _TzView(Mapping):
    """guid -> timezone-offset mapping served from the tz column."""

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarPopulationStore"):
        self._store = store

    def __getitem__(self, guid: str) -> float:
        return float(self._store.tz[self._store.index_of(guid)])

    def __iter__(self):
        return iter(self._store.guids)

    def __len__(self) -> int:
        return len(self._store)


class _AlwaysOnView(Set):
    """GUIDs of the always-on rows, off the flag column: ``len`` counts
    flags, iterating derives the flagged rows' GUIDs, ``in`` goes through
    the store's GUID index — a run that never asks seeds no ``Random``."""

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarPopulationStore"):
        self._store = store

    _from_iterable = staticmethod(set)  # what ``view & other`` etc. build

    def __len__(self) -> int:
        return int(np.count_nonzero(self._store.always_on))

    def __iter__(self):
        guids = self._store.guids
        return (guids[i] for i in np.flatnonzero(self._store.always_on).tolist())

    def __contains__(self, guid) -> bool:
        store = self._store
        try:
            return bool(store.always_on[store.index_of(guid)])
        except KeyError:
            return False


class ColumnarPopulationStore:
    """The packed installed base: columns, handles, materialized nodes."""

    def __init__(self, system: "NetSessionSystem", n: int):
        self.system = system
        # Intern tables (shared world/topology/NAT value objects).
        self._countries = _Interner()
        self._cities = _Interner()
        self._ases = _Interner()
        self._nats = _Interner(key=_nat_key)
        self._tier_names: list[str] = []
        # Columns, filled block by block by build_columnar_store.
        self.peer_seeds = np.zeros(n, dtype=np.uint64)
        self.guids = _GuidColumn(self.peer_seeds)
        self.country_i = np.zeros(n, dtype=np.int32)
        self.city_i = np.zeros(n, dtype=np.int32)
        self.as_i = np.zeros(n, dtype=np.int32)
        self.tier_i = np.zeros(n, dtype=np.int32)
        self.down_bps = np.zeros(n, dtype=np.float64)
        self.up_bps = np.zeros(n, dtype=np.float64)
        self.nat_i = np.zeros(n, dtype=np.int32)
        self.uploads = np.ones(n, dtype=np.uint8)
        self.installed_cp = np.zeros(n, dtype=np.int32)
        self.corruption = np.zeros(n, dtype=np.float64)
        self.attacker = np.zeros(n, dtype=np.uint8)
        self.always_on = np.zeros(n, dtype=np.uint8)
        self.tz = np.zeros(n, dtype=np.float64)
        #: Device-tier column: index into ``_device_classes`` or -1 for the
        #: homogeneous default (``PopulationConfig.device`` is None).
        self.device_i = np.full(n, -1, dtype=np.int32)
        self._device_classes: tuple = ()
        #: First ``peerN`` naming slot this store occupies (normally 0).
        self.name_base = 0
        # Live state.
        self._nodes: dict[int, PeerNode] = {}
        self._handles: dict[int, LazyPeer] = {}
        self._guid_index: dict[str, int] | None = None
        #: Peak materialized-node gauge, for the scale benchmark report.
        self.peak_materialized = 0

    # -------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self.peer_seeds)

    def handle(self, i: int) -> LazyPeer:
        """The (cached, identity-stable) handle for row ``i``."""
        handle = self._handles.get(i)
        if handle is None:
            handle = self._handles[i] = LazyPeer(self, i)
        return handle

    def handles(self) -> Iterator[LazyPeer]:
        """All handles, in column (creation) order."""
        return iter(_PeerColumnView(self))

    def peers_view(self) -> _PeerColumnView:
        return _PeerColumnView(self)

    def tz_view(self) -> _TzView:
        return _TzView(self)

    def always_on_view(self) -> _AlwaysOnView:
        return _AlwaysOnView(self)

    def device_at(self, i: int):
        """Row ``i``'s :class:`DeviceClass`, or None without a tier mix."""
        idx = self.device_i[i]
        return self._device_classes[idx] if idx >= 0 else None

    def column(self, name: str) -> list:
        """``[getattr(p, name) for p in handles()]`` without the handles:
        dormant rows straight off the columns, materialized rows from
        their live node."""
        bulk = _BULK_READS.get(name)
        if bulk is not None:
            values = bulk(self)
        else:
            reader = _COLUMN_READS[name]
            values = [reader(self, i) for i in range(len(self))]
        for i, node in self._nodes.items():
            values[i] = getattr(node, name)
        return values

    def index_of(self, guid: str) -> int:
        """Row index of ``guid`` (derives every GUID on first use)."""
        if self._guid_index is None:
            self._guid_index = {g: i for i, g in enumerate(self.guids)}
        return self._guid_index[guid]

    def materialized_nodes(self) -> list[PeerNode]:
        """Materialized nodes in column order (creation-order parity)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def materialized_count(self) -> int:
        return len(self._nodes)

    # ---------------------------------------------------------- materialize

    def materialize(self, i: int) -> PeerNode:
        """Build the real node for row ``i`` (idempotent, draw-free).

        Replays the per-peer RNG from its recorded seed through the GUID
        draw — leaving the stream exactly where object mode's constructor
        left it — and reconstructs the access link with the same ``peerN``
        resource names and byte/s capacities the eager build sampled.
        """
        node = self._nodes.get(i)
        if node is not None:
            return node
        system = self.system
        rng = random.Random(int(self.peer_seeds[i]))
        guid = self.guids._cache[i] = make_guid(rng)
        name = f"peer{self.name_base + i}"
        link = AccessLink(
            downlink=Resource(f"{name}/down", float(self.down_bps[i])),
            uplink=Resource(f"{name}/up", float(self.up_bps[i])),
            tier=self._tier_names[self.tier_i[i]],
        )
        node = PeerNode(
            system,
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
        node._store_index = i
        self._nodes[i] = node
        if len(self._nodes) > self.peak_materialized:
            self.peak_materialized = len(self._nodes)
        system.all_peers.append(node)
        system.peer_by_guid[guid] = node
        return node


def _drain_population_stream(rng: random.Random, m: int, n_providers: int, mix):
    """The population RNG's draws for ``m`` peers, in the oracle's order.

    Per peer the bundling provider (``choice``: a varying number of words)
    then the (broken, attacker, always-on) uniforms, cut out of the raw
    word stream; scalar only with a device mix, where the class drawn
    decides how many draws follow.  Returns the provider index per peer,
    the uniforms as an ``(m, 3)`` array, the device-class index per peer,
    and the block rows whose class forced always-on / an open NAT.
    """
    if mix is None:
        if not n_providers:
            return [], uniforms(raw_words(rng, 6 * m).reshape(m, 6)), [], [], []
        provider, flags = map(np.concatenate,
                              zip(*choice_records(rng, m, n_providers, 6)))
        return provider, uniforms(flags), [], [], []
    r, choice, cps = rng.random, rng.choice, range(n_providers)
    provider, flags, device, forced_on, opened = [], [], [], [], []
    class_index = {cls.name: j for j, cls in enumerate(mix.classes)}
    for row in range(m):
        if n_providers:
            provider.append(choice(cps))
        flags.append((r(), r(), r()))
        cls = mix.pick(r())
        device.append(class_index[cls.name])
        if r() < cls.always_on_prob:
            forced_on.append(row)
        if cls.nat_open_prob is not None and r() < cls.nat_open_prob:
            opened.append(row)
    return provider, np.array(flags), device, forced_on, opened


def build_columnar_store(
    system: "NetSessionSystem",
    providers: list["ContentProvider"],
    cfg: "PopulationConfig",
    rng: random.Random,
) -> ColumnarPopulationStore:
    """Sample the installed base straight into columns.

    Array-native: each of the four RNG streams (``system.rng``, the
    broadband and NAT models', the population ``rng``) is drained in its
    own loop, in the order the object-mode build (``create_peer`` + the
    build loop) draws from it, and the uniforms are mapped a column at a
    time.  Every stream — and ``system._peer_seq`` — ends where the oracle
    leaves it, so everything downstream sees identical state.
    """
    n = cfg.n_peers
    store = ColumnarPopulationStore(system, n)
    store.name_base = system.next_peer_name_index(n)
    store._tier_names = system.broadband.tier_names
    world, topology, sys_rng = system.world, system.topology, system.rng
    countries = world.countries

    # Intern the models' value objects up front: a sampled position in a
    # model's own table then maps to its column index by array lookup.
    def interned(interner, objects):
        return np.array([interner.intern(o) for o in objects], dtype=np.int32)

    country_of = interned(store._countries, countries)
    cities_of = [interned(store._cities, c.cities) for c in countries]
    ases_of = [interned(store._ases, topology.eyeball_ases(c.code))
               for c in countries]
    speed_of = np.array([c.speed_multiplier for c in countries])
    # Local solar time from longitude: 15 degrees per hour.
    tz_of = np.array([(c.lon / 15.0) * 3600.0 for c in store._cities.objects])
    types = system.nat_model.types
    nat_of = np.array([interned(store._nats, [NATProfile(t, rep) for rep in types])
                       for t in types])
    cp_code_of = np.array([p.cp_code for p in providers], dtype=np.int32)
    upload_rate_of = np.array([p.upload_default_rate for p in providers])
    default_corruption = system.config.client.piece_corruption_prob
    # What a device class's port-forward override (nat_open_prob) installs.
    open_nat = store._nats.intern(NATProfile(NATType.OPEN, NATType.OPEN))
    mix = cfg.device
    if mix is not None:
        store._device_classes = mix.classes

    for start in range(0, n, _BLOCK):
        rows = slice(start, min(n, start + _BLOCK))
        m = rows.stop - start
        provider, flags, device, forced_on, opened = _drain_population_stream(
            rng, m, len(providers), mix)
        # system.rng per peer: country, city, AS, upload default (only for
        # a bundled install), then the private-RNG seed.
        words = raw_words(sys_rng, (10 if providers else 8) * m).reshape(m, -1)
        u = uniforms(words[:, :-2])
        store.peer_seeds[rows] = bits64(words[:, -2:])[:, 0]

        picked = pick_indices(world.cum_weights, u[:, 0])
        store.country_i[rows] = country_of[picked]
        city_i, as_i = store.city_i[rows], store.as_i[rows]  # views
        for g in np.flatnonzero(np.bincount(picked, minlength=len(countries))):
            at = np.flatnonzero(picked == g)
            country = countries[g]
            city_i[at] = cities_of[g][
                pick_indices(country.city_cum_weights, u[at, 1])]
            as_i[at] = ases_of[g][pick_indices(
                topology.eyeball_cum_weights(country.code), u[at, 2])]
        store.tz[rows] = tz_of[city_i]

        store.tier_i[rows], store.down_bps[rows], store.up_bps[rows] = \
            system.broadband.draw_columns(speed_of[picked])
        nat_i = nat_of[system.nat_model.draw_columns(m)]
        nat_i[opened] = open_nat
        store.nat_i[rows] = nat_i

        if providers:
            store.installed_cp[rows] = cp_code_of[provider]
            store.uploads[rows] = u[:, 3] < upload_rate_of[provider]
        store.corruption[rows] = np.where(
            flags[:, 0] < cfg.broken_fraction,
            cfg.broken_corruption_prob, default_corruption)
        store.attacker[rows] = flags[:, 1] < cfg.attacker_fraction
        always_on = flags[:, 2] < ALWAYS_ON_FRACTION
        always_on[forced_on] = True
        store.always_on[rows] = always_on
        if mix is not None:
            store.device_i[rows] = device
    return store
