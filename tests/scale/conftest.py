"""Fixtures and helpers for the scale-parity test layer.

The contract under test: the columnar population store and the region
sharder are pure *representation* changes — every byte of trace output is
identical to the object-graph, single-process seed implementation.  That
implementation lives here (:func:`build_object_population`): it is the
oracle, not something a user can select.  "Identical" is the two halves of
:mod:`repro.runner.digest`: records by value, counters by value.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

from repro.core.peer import PeerNode
from repro.core.system import NetSessionSystem
from repro.net.nat import NATProfile, NATType
from repro.workload import (
    CatalogConfig, DemandConfig, PopulationConfig, ScenarioConfig,
)
from repro.workload.catalog import build_catalog
from repro.workload.columnar import ALWAYS_ON_FRACTION
from repro.workload.population import (
    Population, _finish_population, build_population,
)


def build_object_population(system, providers, config=None,
                            duration_days=None) -> Population:
    """The eager object-graph build: one :class:`PeerNode` per install.

    ``build_population`` as it was before the columnar store — the peer
    loop is the old ``store="object"`` branch verbatim — ending in the
    tail the production build ends in.
    """
    cfg = config if config is not None else PopulationConfig()
    rng = random.Random(system.rng.getrandbits(64))

    peers: list[PeerNode] = []
    tz_offset: dict[str, float] = {}
    always_on: set[str] = set()

    for _ in range(cfg.n_peers):
        installed_from = rng.choice(providers) if providers else None
        peer = system.create_peer(installed_from=installed_from)
        if rng.random() < cfg.broken_fraction:
            peer.piece_corruption_prob = cfg.broken_corruption_prob
        if rng.random() < cfg.attacker_fraction:
            peer.accounting_attacker = True
        peers.append(peer)
        # Local solar time from longitude: 15 degrees per hour.
        tz_offset[peer.guid] = (peer.city.lon / 15.0) * 3600.0
        if rng.random() < ALWAYS_ON_FRACTION:
            always_on.add(peer.guid)
        if cfg.device is not None:
            cls = cfg.device.pick(rng.random())
            peer.device = cls
            if rng.random() < cls.always_on_prob:
                always_on.add(peer.guid)
            if cls.nat_open_prob is not None \
                    and rng.random() < cls.nat_open_prob:
                peer.nat_profile = NATProfile(
                    true_type=NATType.OPEN, reported_type=NATType.OPEN)

    population = Population(
        peers=peers, tz_offset=tz_offset, always_on=always_on)
    _finish_population(system, population, cfg, rng, duration_days)
    return population


def object_store_oracle():
    """Patch scenarios in this process (and pool workers forked while the
    patch is live) onto the object build.  The config fingerprint does not
    see it, so a comparison through an artifact memo must clear the memo
    between its two sides."""
    return mock.patch("repro.workload.scenario.build_population",
                      build_object_population)


#: The two sides of every build-level parity test.
BUILDERS = {"object": build_object_population, "columnar": build_population}


def build_store_world(store: str, seed: int = 11, **population_overrides):
    """Build a small system + population under one store implementation.

    Returns ``(system, catalog, population)``.  The catalog/provider setup
    mirrors :func:`repro.workload.scenario.run_scenario` so the population
    build consumes the exact same RNG streams a scenario would.
    """
    system = NetSessionSystem(seed=seed)
    catalog = build_catalog(
        random.Random(seed ^ 0xCA7), CatalogConfig(objects_per_provider=4)
    )
    for provider in catalog.providers:
        system.register_provider(provider)
    for obj in catalog.objects:
        system.publish(obj)
    cfg = PopulationConfig(**population_overrides)
    population = BUILDERS[store](system, catalog.providers, cfg)
    return system, catalog, population


def tiny_scenario(seed: int = 5, **overrides) -> ScenarioConfig:
    """A sub-second scenario with a real trace (mirrors tests/runner)."""
    base = ScenarioConfig(
        seed=seed,
        duration_days=0.5,
        population=PopulationConfig(n_peers=120),
        demand=DemandConfig(total_downloads=150, duration_days=0.5),
        catalog=CatalogConfig(objects_per_provider=6),
    )
    return dataclasses.replace(base, **overrides) if overrides else base
