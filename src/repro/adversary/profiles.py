"""Adversarial-peer misbehavior profiles (the §5/§6.2 threat model).

The paper's robustness argument is that NetSession tolerates an untrusted
peer population: pieces are hash-verified against edge-published hashes and
usage reports are cross-checked against trusted edge logs.  This module
supplies the *attackers* for that argument — five persistent misbehavior
profiles assignable to a seeded fraction of the population:

* ``corrupter`` — serves pieces that fail hash verification at an elevated
  per-piece probability (wastes downloader bytes and connection slots);
* ``free_rider`` — registers content with the directory but refuses every
  upload grant (consumes query slots, contributes nothing);
* ``stale_advertiser`` — keeps its directory registrations alive for
  content it has evicted, forcing empty connections until the soft-state
  TTL reaps the entry;
* ``accounting_inflator`` — inflates its UsageReport byte counts to
  exercise the accounting service's edge-log cross-check;
* ``slow_loris`` — accepts upload grants, then trickles bytes at a tiny
  fraction of its uplink, pinning downloader connection slots.

Profiles are plain peer-attribute mutations (``PeerNode.adversary_profile``
plus the existing ``piece_corruption_prob`` / ``accounting_attacker``
knobs), so they compose with every other subsystem.  Assignment draws from
a dedicated string-seeded RNG, never from the population's, so a scenario
with ``adversary=None`` is bit-identical to one that never imported this
module.

Like :mod:`repro.vod.config`, this module is deliberately dependency-free
(stdlib and :mod:`repro.bounds` only) so :class:`AdversaryConfig` is
importable from the workload layer without dragging in the rest of the
subsystem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bounds import bound, check_bounds

__all__ = [
    "PROFILES", "AdversaryConfig", "apply_profile", "assign_adversaries",
    "choose_profile", "revert_profile",
]

#: The five misbehavior profiles, in mix-weight order.
PROFILES = (
    "corrupter", "free_rider", "stale_advertiser", "accounting_inflator",
    "slow_loris",
)


@dataclass(frozen=True)
class AdversaryConfig:
    """A seeded adversarial slice of the population.

    Attached to :class:`~repro.workload.scenario.ScenarioConfig` as the
    ``adversary`` leaf (default ``None`` = fully honest population, zero
    extra RNG draws, golden runs byte-identical).
    """

    #: Fraction of the population converted to adversaries (at least one
    #: peer when positive).
    fraction: float = bound("[0, 1]", 0.1)
    #: Relative weights over :data:`PROFILES`; zero removes a profile.
    profile_mix: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    #: Per-piece corruption probability for ``corrupter`` peers.
    corruption_prob: float = bound("[0, 1]", 0.3)
    #: ``slow_loris`` upload cap as a fraction of the honest cap.
    slow_factor: float = bound("(0, 1]", 0.02)

    def __post_init__(self):
        check_bounds(self)
        if len(self.profile_mix) != len(PROFILES):
            raise ValueError(
                f"profile_mix needs {len(PROFILES)} weights (one per profile)")
        if not all(0 <= w < float("inf") for w in self.profile_mix) \
                or not any(self.profile_mix):
            raise ValueError("profile_mix weights must be finite and >= 0, "
                             "not all zero")


def choose_profile(rng: random.Random,
                   mix: tuple[float, ...] = (1.0,) * len(PROFILES)) -> str:
    """Draw one profile name from the weighted mix (one ``rng`` draw)."""
    total = sum(mix)
    pick = rng.random() * total
    for name, weight in zip(PROFILES, mix):
        pick -= weight
        if pick < 0:
            return name
    return PROFILES[-1]  # float round-off fallback


def apply_profile(peer, profile: str, config: AdversaryConfig) -> dict:
    """Turn ``peer`` adversarial; returns a token that undoes it.

    Pure attribute mutation — no RNG, no events.  The token is the
    revert payload for :class:`~repro.faults.spec.AdversarialInfestation`.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    token = {
        "peer": peer,
        "profile": peer.adversary_profile,
        "piece_corruption_prob": peer.piece_corruption_prob,
        "accounting_attacker": peer.accounting_attacker,
        "slow_factor": peer.adversary_slow_factor,
        "uploads_enabled": peer.uploads_enabled,
    }
    peer.adversary_profile = profile
    if profile != "accounting_inflator":
        # Adversarial client software ignores the user's uploads-enabled
        # preference: the four serving profiles need a seat at the table
        # (a corrupter that never serves corrupts nobody).
        peer.uploads_enabled = True
    if profile == "corrupter":
        peer.piece_corruption_prob = config.corruption_prob
    elif profile == "accounting_inflator":
        peer.accounting_attacker = True
    elif profile == "slow_loris":
        peer.adversary_slow_factor = config.slow_factor
    return token


def revert_profile(token: dict) -> None:
    """Undo :func:`apply_profile` (the fault-spec revert path)."""
    peer = token["peer"]
    peer.adversary_profile = token["profile"]
    peer.piece_corruption_prob = token["piece_corruption_prob"]
    peer.accounting_attacker = token["accounting_attacker"]
    peer.adversary_slow_factor = token["slow_factor"]
    peer.uploads_enabled = token["uploads_enabled"]


def assign_adversaries(peers, config: AdversaryConfig, seed: int,
                       *, truth: dict | None = None) -> list[dict]:
    """Convert a seeded fraction of ``peers``; returns the revert tokens.

    ``peers`` is a :class:`~repro.workload.population.Population` or any
    sequence of peers.  A population selects through
    :meth:`~repro.workload.population.Population.sample_peers`, whose draw
    sequence depends only on the population size — so a columnar store
    converts the same creation-order victims as the eager object graph,
    materializing only the converted slice.

    Draws exclusively from ``random.Random(f"repro-adversary:{seed}")`` —
    the population's own RNG streams are untouched, so honest peers behave
    identically whether or not an adversarial slice exists.  ``truth``
    (usually ``NetSessionSystem.adversary_truth``) collects the guid →
    profile ground truth used by the false-positive-ban drill metric.
    """
    sampler = getattr(peers, "sample_peers", None)
    count = peers.peer_count() if sampler is not None else len(peers)
    if config.fraction <= 0 or not count:
        return []
    rng = random.Random(f"repro-adversary:{seed}")
    n = min(count, max(1, round(config.fraction * count)))
    if sampler is not None:
        selected = sampler(rng, n)
    else:
        selected = rng.sample(list(peers), n)
    tokens = []
    for peer in selected:
        profile = choose_profile(rng, config.profile_mix)
        tokens.append(apply_profile(peer, profile, config))
        if truth is not None:
            truth[peer.guid] = profile
    return tokens
