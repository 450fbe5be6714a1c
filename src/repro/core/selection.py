"""Locality-aware peer selection (paper §3.7).

The DN chooses peers at two levels of locality.  Level one is structural:
a peer's query only ever reaches its *local* DNs, so candidates come from
the same control-plane network region.  Level two — implemented here — works
on nested geolocation sets: every registered peer belongs simultaneously to
its specific AS, its country, a larger geographic region, and the universal
World set.  Selection starts from the most specific set the querying peer
shares and widens until enough suitable peers are found, with three extra
mechanisms from the paper:

* **connectivity filter** — only peers whose (STUN-reported) NAT type is
  hole-punch-compatible with the querier's are returned;
* **diversity** — occasionally a peer is drawn from a less specific set,
  with probability proportional to the specificity of the set being skipped;
* **fairness rotation** — a selected peer moves to the end of the rotation
  list so popular content spreads load across its holders (the caller
  applies the rotation via ``DatabaseNode.rotate_to_end``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.nat import NATType, can_connect

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from repro.core.control.database_node import PeerRegistration

__all__ = ["CandidateStage", "DeviceTierStage", "QueryContext",
           "compose_stages", "select_peers", "specificity_level"]

#: Specificity levels, most specific first.  Same-LAN peers (§5.3's
#: corporate-network case) beat everything: bytes never leave the building.
_LEVEL_LAN = 4
_LEVEL_AS = 3
_LEVEL_COUNTRY = 2
_LEVEL_REGION = 1
_LEVEL_WORLD = 0


@dataclass(frozen=True)
class QueryContext:
    """Locality and connectivity of the peer asking for candidates."""

    guid: str
    asn: int
    country_code: str
    region: str
    nat_reported: str
    lan_id: str = ""


def specificity_level(query: QueryContext, reg: "PeerRegistration") -> int:
    """The most specific shared locality set between querier and candidate."""
    if query.lan_id and reg.lan_id == query.lan_id:
        return _LEVEL_LAN
    if reg.asn == query.asn:
        return _LEVEL_AS
    if reg.country_code == query.country_code:
        return _LEVEL_COUNTRY
    if reg.region == query.region:
        return _LEVEL_REGION
    return _LEVEL_WORLD


class CandidateStage:
    """One stage of the CN candidate pipeline (``ControlPlane.stages``);
    ``kind`` names its slot there.  Every hook defaults to doing nothing."""

    kind: str

    def candidate_filter(self, now: float):
        """Per-query ``(query, reg) -> bool`` filter, or None."""
        return None

    def rank_key(self, now: float):
        """Per-query ``reg -> key`` (higher ranks first), or None."""
        return None

    def allow_widening(self, query: QueryContext, cid: str) -> bool:
        """May the CN widen the search for ``cid`` to remote regions?"""
        return True


class DeviceTierStage(CandidateStage):
    """Rank candidates by device-class weight (an operator boosting its
    smartrouter fleet, say); ranking consumes no RNG."""

    kind = "device"

    def __init__(self, weights: dict[str, float]):
        self.weights = weights

    def rank_key(self, now: float):
        weights = self.weights
        return lambda reg: weights.get(reg.device_class, 0.0)


def compose_stages(stages, now: float):
    """``(candidate_filter, rank_key)`` for ``select_peers``: filters
    and-ed in stage order, keys as a tuple in stage order (earlier stages
    dominate).  A lone filter or key passes through unwrapped."""
    filters = [f for f in (s.candidate_filter(now) for s in stages)
               if f is not None]
    keys = [k for k in (s.rank_key(now) for s in stages) if k is not None]
    if len(filters) > 1:
        def candidate_filter(query, reg):
            return all(f(query, reg) for f in filters)
    else:
        candidate_filter = filters[0] if filters else None
    if len(keys) > 1:
        def rank_key(reg):
            return tuple([k(reg) for k in keys])
    else:
        rank_key = keys[0] if keys else None
    return candidate_filter, rank_key


def select_peers(
    registrations: list["PeerRegistration"],
    query: QueryContext,
    count: int,
    rng: random.Random,
    *,
    exclude: frozenset[str] = frozenset(),
    diversity_probability: float = 0.10,
    locality_aware: bool = True,
    candidate_filter: Optional[
        Callable[[QueryContext, "PeerRegistration"], bool]] = None,
    rank_key: Optional[Callable[["PeerRegistration"], float]] = None,
) -> list["PeerRegistration"]:
    """Choose up to ``count`` candidates for ``query`` from ``registrations``.

    ``registrations`` must be in the DN's rotation order; within each
    locality set that order is preserved, which is what makes the caller's
    rotate-to-end fairness effective.  With ``locality_aware=False`` the
    nested-set logic is bypassed and candidates are drawn uniformly — the
    ablation baseline for the §6.1 locality claims.

    ``candidate_filter`` and ``rank_key`` are the composed candidate stages
    (:func:`compose_stages`).  When given, a registration is only eligible
    if ``candidate_filter(query, reg)`` is true.  The filter runs before
    any RNG is consulted, so a pass-everything filter (or None) leaves the
    selection — and its random draws — bit-identical.

    When ``rank_key`` is given, candidates *within each locality set* are
    stably sorted by descending key before selection, so preferred peers
    come first while locality still dominates and ties keep the DN's
    fairness rotation order.  Sorting consumes no RNG; ``None`` (the
    default) leaves the order — and therefore every draw — untouched.
    """
    if count <= 0:
        return []

    try:
        my_nat = NATType(query.nat_reported)
    except ValueError:
        my_nat = NATType.PORT_RESTRICTED  # conservative default

    eligible: list["PeerRegistration"] = []
    for reg in registrations:
        if reg.guid == query.guid or reg.guid in exclude:
            continue
        if not reg.uploads_enabled:
            continue
        if candidate_filter is not None and not candidate_filter(query, reg):
            continue
        try:
            peer_nat = NATType(reg.nat_reported)
        except ValueError:
            peer_nat = NATType.PORT_RESTRICTED
        if not can_connect(my_nat, peer_nat):
            continue
        eligible.append(reg)

    if not eligible:
        return []

    if not locality_aware:
        if rank_key is not None:
            ranked = sorted(eligible, key=rank_key, reverse=True)
            return ranked[:count]
        if len(eligible) <= count:
            return list(eligible)
        return rng.sample(eligible, count)

    buckets: dict[int, list["PeerRegistration"]] = {
        _LEVEL_LAN: [], _LEVEL_AS: [], _LEVEL_COUNTRY: [], _LEVEL_REGION: [],
        _LEVEL_WORLD: [],
    }
    for reg in eligible:
        buckets[specificity_level(query, reg)].append(reg)
    if rank_key is not None:
        for bucket in buckets.values():
            bucket.sort(key=rank_key, reverse=True)

    chosen: list["PeerRegistration"] = []
    chosen_guids: set[str] = set()
    levels = (_LEVEL_LAN, _LEVEL_AS, _LEVEL_COUNTRY, _LEVEL_REGION,
              _LEVEL_WORLD)

    for i, level in enumerate(levels):
        if len(chosen) >= count:
            break
        for reg in buckets[level]:
            if len(chosen) >= count:
                break
            if reg.guid in chosen_guids:
                continue
            # Diversity: skip this specific candidate with probability
            # proportional to the specificity of its set, drawing instead
            # from a strictly less specific set (if one has spare peers).
            if level > _LEVEL_WORLD and rng.random() < (
                diversity_probability * level / _LEVEL_LAN
            ):
                substitute = _draw_less_specific(
                    buckets, levels[i + 1:], chosen_guids, rng
                )
                if substitute is not None:
                    chosen.append(substitute)
                    chosen_guids.add(substitute.guid)
                    continue
            chosen.append(reg)
            chosen_guids.add(reg.guid)

    return chosen


def _draw_less_specific(
    buckets: dict[int, list[PeerRegistration]],
    lower_levels: tuple[int, ...],
    chosen_guids: set[str],
    rng: random.Random,
) -> PeerRegistration | None:
    """Pick one not-yet-chosen peer from any strictly less specific set."""
    pool = [
        reg
        for level in lower_levels
        for reg in buckets[level]
        if reg.guid not in chosen_guids
    ]
    if not pool:
        return None
    return rng.choice(pool)
