"""The bulk build of the installed base, straight into columns.

:func:`build_columnar_store` adds ``cfg.n_peers`` dormant rows to the
system's :class:`~repro.core.population_store.ColumnarPopulationStore`
in one step.  Its equivalence contract is enforced byte-for-byte by
``tests/scale/``, where the eager build — ``create_peer`` in a loop, kept
as ``tests/scale/conftest.build_object_population`` — is the oracle:

* **Per-stream order, not per-peer interleaving.**  The build touches four
  separate ``random.Random`` objects — ``system.rng``, the broadband and
  NAT models' streams, the population RNG.  Each is drained in its own
  loop, in the order the oracle draws *from that stream*, and ends the
  build in the oracle's exact ``getstate()``.  Every per-peer sampler is
  one uniform through an inverse CDF, so whole columns are mapped at once
  (``searchsorted`` over the models' precomputed cumulative weights) from
  uniforms formed a block at a time out of the stream's raw words
  (:mod:`repro.net.weighted`).  Draws stay scalar only where a drawn
  *value* decides how many follow (device tiers) or the scalar loop is the
  cheaper one (NAT).  No ``AccessLink``, ``Resource``, ``NATProfile`` or
  ``Random`` is built per dormant peer.
* **Rows are names.**  Row ``i`` is the oracle's ``i``-th ``create_peer``,
  so a row materializes with the oracle's ``peerN`` resource names.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

# Re-exported: the benchmark harness wraps ``materialize`` through this path.
from repro.core.population_store import ColumnarPopulationStore
from repro.net.nat import NATProfile, NATType
from repro.net.weighted import (bits64, choice_records, pick_indices,
                                raw_words, uniforms)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.content import ContentProvider
    from repro.core.system import NetSessionSystem
    from repro.workload.population import PopulationConfig

__all__ = ["ColumnarPopulationStore", "build_columnar_store"]

#: Peers drawn and mapped per pass of the build, bounding its temporaries.
_BLOCK = 65_536

#: Probability a peer is effectively always-on (desktops left running).
ALWAYS_ON_FRACTION = 0.15


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
) -> None:
    """Grow ``system.population_store`` by ``cfg.n_peers`` sampled rows.

    Array-native: each of the four RNG streams (``system.rng``, the
    broadband and NAT models', the population ``rng``) is drained in its
    own loop, in the order the eager build (``create_peer`` + the build
    loop) draws from it, and the uniforms are mapped a column at a time.
    Every stream ends where the oracle leaves it, so everything downstream
    sees identical state.
    """
    n = cfg.n_peers
    store = system.population_store
    base = store.grow(n)
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
        m = min(_BLOCK, n - start)
        rows = slice(base + start, base + start + m)
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
