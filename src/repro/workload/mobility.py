"""User mobility: laptops, commutes, travel, and VPNs (paper §6.2).

Calibration targets from the paper's trace:

* 80.6% of GUIDs connected from a single AS, 13.4% from two, 6% from more
  than two;
* 77% of GUIDs stayed within 10 km (max pairwise geolocation distance),
  23% moved farther;
* the control plane absorbs ~20,922 new connections per minute of
  mobility/churn workload.

The model gives each peer a mobility class:

* **stationary** — one location, one AS (the majority);
* **commuter** — a second regular location (work), usually a different AS
  in the same city/country; moves there and back on weekdays;
* **roamer** — several locations across ASes (field workers, laptop-heavy
  users, VPN users whose exit changes) visited at random;
* **traveler** — one long-distance trip during the trace (drives the >10 km
  tail together with roamers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bounds import bound, check_bounds
from repro.core.peer import PeerNode
from repro.core.system import NetSessionSystem
from repro.net.geo import City, Country
from repro.net.topology import AutonomousSystem
from repro.workload.population import DAY, Population

__all__ = ["MobilityConfig", "MobilityModel"]

#: Probability a commuter's work location is a different city (>10 km); the
#: rest commute within the same city (suburb-level moves).
COMMUTER_FAR_PROB = 0.55
#: Locations a roamer cycles through (inclusive bounds).
ROAMER_LOCATIONS = (3, 5)


@dataclass(frozen=True)
class MobilityConfig:
    """Mobility class mix and movement parameters."""

    commuter_fraction: float = bound("[0, 1]", 0.135)
    roamer_fraction: float = bound("[0, 1]", 0.05)
    traveler_fraction: float = bound("[0, 1]", 0.012)
    #: Probability a commuter's work location is in a different AS.
    commuter_as_change_prob: float = bound("[0, 1]", 0.95)

    def __post_init__(self):
        check_bounds(self)
        total = self.commuter_fraction + self.roamer_fraction + self.traveler_fraction
        if total > 1.0:
            raise ValueError("mobility class fractions exceed 1.0")


@dataclass
class _Site:
    country: Country
    city: City
    asys: AutonomousSystem


class MobilityModel:
    """Assigns mobility classes and schedules the movements."""

    def __init__(self, system: NetSessionSystem, config: MobilityConfig | None = None):
        self.system = system
        self.config = config if config is not None else MobilityConfig()
        self.rng = random.Random(system.rng.getrandbits(64))
        #: guid -> class of every peer that moves (the rest are stationary).
        self.classes: dict[str, str] = {}

    def apply(self, population: Population, duration_days: float) -> dict[str, int]:
        """Classify every peer and schedule its movements.

        Returns the class census (class name -> count).
        """
        census = {"stationary": 0, "commuter": 0, "roamer": 0, "traveler": 0}
        cfg = self.config
        if not (cfg.commuter_fraction or cfg.roamer_fraction
                or cfg.traveler_fraction):
            # Nobody can move: take the class draws (two words each) at once.
            census["stationary"] = population.peer_count()
            self.rng.getrandbits(64 * census["stationary"])
            return census
        for row, device in enumerate(population.column("device")):
            cls = self._draw_class(
                device.mobility if device is not None else "default")
            census[cls] += 1
            if cls == "stationary":
                continue  # nothing to schedule: the row is never resolved
            peer = population.peers[row]
            self.classes[peer.guid] = cls
            if cls == "commuter":
                self._schedule_commuter(peer, duration_days)
            elif cls == "roamer":
                self._schedule_roamer(peer, duration_days)
            elif cls == "traveler":
                self._schedule_traveler(peer, duration_days)
        return census

    def _draw_class(self, device_mobility: str = "default") -> str:
        """One uniform draw, mapped through the class fractions.

        ``device_mobility`` reshapes the mapping without changing the draw
        count: "stationary" devices (wall-plugged routers, set-top boxes)
        never move; "nomadic" ones (phones) roam and travel three times as
        often.  "default" is the unmodified population mix.
        """
        cfg = self.config
        u = self.rng.random()
        if device_mobility == "stationary":
            return "stationary"
        scale = 3.0 if device_mobility == "nomadic" else 1.0
        if u < cfg.commuter_fraction:
            return "commuter"
        u -= cfg.commuter_fraction
        if u < scale * cfg.roamer_fraction:
            return "roamer"
        u -= scale * cfg.roamer_fraction
        if u < scale * cfg.traveler_fraction:
            return "traveler"
        return "stationary"

    # ----------------------------------------------------------------- sites

    def _work_site(self, peer: PeerNode) -> _Site:
        """A commuter's second site: usually another AS, sometimes far."""
        cfg = self.config
        country = peer.country
        if self.rng.random() < COMMUTER_FAR_PROB and len(country.cities) > 1:
            others = [c for c in country.cities if c.name != peer.city.name]
            city = self.rng.choice(others)
        else:
            city = peer.city
        if self.rng.random() < cfg.commuter_as_change_prob:
            asys = peer.asys
            # The dominant ISP often serves both home and office; resample a
            # few times to actually land in a different AS when the country
            # has more than one.
            for _ in range(8):
                candidate = self.system.topology.sample_as(country.code, self.rng)
                if candidate.asn != peer.asn:
                    asys = candidate
                    break
        else:
            asys = peer.asys
        return _Site(country, city, asys)

    def _random_site(self) -> _Site:
        country = self.system.world.sample_country(self.rng)
        city = self.system.world.sample_city(country, self.rng)
        asys = self.system.topology.sample_as(country.code, self.rng)
        return _Site(country, city, asys)

    # ------------------------------------------------------------- schedules

    def _schedule_commuter(self, peer: PeerNode, duration_days: float) -> None:
        home = _Site(peer.country, peer.city, peer.asys)
        work = self._work_site(peer)
        for day in range(int(duration_days)):
            if day % 7 >= 5:
                continue  # weekends at home
            go = day * DAY + self.rng.gauss(9.0, 0.5) * 3600.0
            back = day * DAY + self.rng.gauss(18.0, 0.8) * 3600.0
            if go > 0:
                self.system.sim.schedule_at(
                    go, lambda s=work, p=peer: p.move_to(s.country, s.city, s.asys)
                )
            if back > go:
                self.system.sim.schedule_at(
                    back, lambda s=home, p=peer: p.move_to(s.country, s.city, s.asys)
                )

    def _schedule_roamer(self, peer: PeerNode, duration_days: float) -> None:
        lo, hi = ROAMER_LOCATIONS
        sites = [_Site(peer.country, peer.city, peer.asys)]
        sites += [self._random_site() for _ in range(self.rng.randint(lo - 1, hi - 1))]
        moves = max(2, int(duration_days))
        for _ in range(moves):
            t = self.rng.uniform(0, duration_days * DAY)
            site = self.rng.choice(sites)
            self.system.sim.schedule_at(
                t, lambda s=site, p=peer: p.move_to(s.country, s.city, s.asys)
            )

    def _schedule_traveler(self, peer: PeerNode, duration_days: float) -> None:
        home = _Site(peer.country, peer.city, peer.asys)
        away = self._random_site()
        depart = self.rng.uniform(0.1, 0.6) * duration_days * DAY
        ret = depart + self.rng.uniform(0.1, 0.3) * duration_days * DAY
        self.system.sim.schedule_at(
            depart, lambda s=away, p=peer: p.move_to(s.country, s.city, s.asys)
        )
        if ret < duration_days * DAY:
            self.system.sim.schedule_at(
                ret, lambda s=home, p=peer: p.move_to(s.country, s.city, s.asys)
            )
