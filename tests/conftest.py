"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.core import ContentObject, ContentProvider, NetSessionSystem, SystemConfig
from repro.core.peer import CacheEntry

try:  # hypothesis is a dev-only dependency; fixtures must import without it
    from hypothesis import settings as _hyp_settings

    # ``dev`` keeps the library defaults (random exploration, local DB);
    # ``ci`` is fully reproducible: derandomized example generation and no
    # wall-clock deadline, so a loaded CI worker can't flake a property.
    _hyp_settings.register_profile("dev")
    _hyp_settings.register_profile("ci", derandomize=True, deadline=None)
    _hyp_settings.load_profile("ci" if os.environ.get("CI") else "dev")
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the on-disk result cache at a throwaway directory.

    CLI commands exercised by tests default to ``.repro-cache`` in the
    working tree; redirecting via ``REPRO_CACHE_DIR`` keeps test runs from
    polluting the checkout (and from reading a developer's warm cache,
    which would mask cold-path bugs).
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def env_with_src(**overrides: str) -> dict[str, str]:
    """``os.environ`` for a subprocess that must import this ``repro``."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests."""
    return random.Random(1234)


@pytest.fixture
def system() -> NetSessionSystem:
    """A small, fully wired NetSession deployment."""
    return NetSessionSystem(seed=7)


@pytest.fixture
def provider() -> ContentProvider:
    """A generic upload-friendly content provider."""
    return ContentProvider(cp_code=9001, name="TestCo", upload_default_rate=1.0)


@pytest.fixture
def small_object(provider) -> ContentObject:
    """A 40 MB infrastructure-only object."""
    return ContentObject("small.bin", 40 * 1024 * 1024, provider)


@pytest.fixture
def big_object(provider) -> ContentObject:
    """A 600 MB p2p-enabled object."""
    return ContentObject("big.bin", 600 * 1024 * 1024, provider, p2p_enabled=True)


def make_swarm_scene(system, obj, *, seeders=12, country_code="DE"):
    """Publish ``obj``, boot ``seeders`` peers that already cache it, and
    return (seeder list, a fresh downloader) — all in one country so the
    locality-aware directory finds them."""
    system.publish(obj)
    country = system.world.by_code[country_code]
    peers = []
    for _ in range(seeders):
        peer = system.create_peer(country=country, uploads_enabled=True)
        peer.cache[obj.cid] = CacheEntry(cid=obj.cid, completed_at=0.0)
        peer.boot()
        peers.append(peer)
    downloader = system.create_peer(country=country, uploads_enabled=True)
    downloader.boot()
    return peers, downloader


@pytest.fixture
def swarm_scene(system, big_object):
    """(system, object, seeders, downloader) ready for a peer-assisted download."""
    seeders, downloader = make_swarm_scene(system, big_object)
    return system, big_object, seeders, downloader
