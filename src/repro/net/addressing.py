"""IP address assignment within ASes, with DHCP-style churn.

The paper's Table 1 counts 133.7 million distinct IPs against 25.9 million
GUIDs — peers change addresses constantly (DHCP leases, reconnects,
mobility).  The :class:`IPAllocator` gives each AS a synthetic prefix and
hands out addresses inside it; the population layer asks for a fresh address
whenever a peer's lease churns or the peer moves to a different AS.

Every assignment is registered in the :class:`~repro.net.geo.GeoDatabase`,
which is exactly how the authors joined their logs with EdgeScape data.
"""

from __future__ import annotations

import random

from repro.net.geo import City, Country, GeoDatabase, GeoRecord
from repro.net.topology import AutonomousSystem

__all__ = ["IPAllocator"]


class IPAllocator:
    """Allocates synthetic IPv4-style addresses per AS.

    Address format: ``10.<asn-hi>.<asn-lo>.<host>`` extended with a fifth
    component when an AS exhausts a /24 — the addresses only need to be
    unique strings with an AS-identifiable prefix, not routable.
    """

    def __init__(self, geodb: GeoDatabase, rng: random.Random):
        self._geodb = geodb
        self._rng = rng
        self._counters: dict[int, int] = {}

    def assign(
        self,
        asys: AutonomousSystem,
        country: Country,
        city: City,
    ) -> str:
        """Allocate a fresh address in ``asys`` located at ``city``.

        The address is registered in the geo database with full EdgeScape
        fields.  A small jitter (~city scale) is added to the coordinates so
        that distinct households in one city are distinct "locations" at
        roughly suburb granularity — the paper notes 218 distinct locations
        within Pennsylvania alone.
        """
        index = self._counters.get(asys.asn, 0)
        self._counters[asys.asn] = index + 1
        hi, lo = divmod(asys.asn, 256)
        upper, host = divmod(index, 256)
        ip = f"10.{hi}.{lo}.{host}" if upper == 0 else f"10.{hi}.{lo}.{host}.{upper}"

        # Jitter coordinates to ~0.02 degrees (about 2 km), quantised so
        # that nearby households share a "location" the way EdgeScape
        # reports city/suburb-granularity coordinates.  The jitter radius
        # keeps two sessions of a stationary machine within the 10 km the
        # §6.2 mobility analysis uses as its threshold.
        lat = round(city.lat + self._rng.uniform(-0.02, 0.02), 2)
        lon = round(city.lon + self._rng.uniform(-0.02, 0.02), 2)

        self._geodb.register(ip, GeoRecord(
            country_code=country.code,
            region=country.region,
            city=city.name,
            lat=lat,
            lon=lon,
            timezone=country.timezone,
            network=asys.name,
            asn=asys.asn,
        ))
        return ip

