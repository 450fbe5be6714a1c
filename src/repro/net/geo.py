"""Synthetic world geography and an EdgeScape-equivalent geolocation service.

The paper geolocates every peer IP with Akamai's EdgeScape [paper §4.1]:
country code, city, latitude/longitude, timezone, and network provider.  We
build the same lookup service over a synthetic world:

* the ten analysis regions of Table 2 (US East, US West, other Americas,
  India, China, other Asia, Europe, Africa, Oceania);
* a core table of real countries with real coordinates and peer-population
  weights calibrated to the paper's Figure 2 (27% North America, 35% Europe,
  sizable South America/Asia groups);
* optional synthetic "territories" to pad the country count toward the 239
  country codes the paper observes (ISO codes cover territories and even
  Antarctica — Table 1's note).

Distances use the haversine formula; the mobility analysis (§6.2: 77% of
GUIDs stay within 10 km) relies on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.net.weighted import cumulative

__all__ = [
    "Region", "City", "Country", "GeoRecord", "World", "GeoDatabase",
    "haversine_km", "build_core_world", "REGIONS",
]


class Region:
    """The ten regions used for Table 2's download breakdown."""

    US_EAST = "US East"
    US_WEST = "US West"
    AMERICAS_OTHER = "Americas Other"
    INDIA = "India"
    CHINA = "China"
    ASIA_OTHER = "Asia Other"
    EUROPE = "Europe"
    AFRICA = "Africa"
    OCEANIA = "Oceania"


REGIONS: tuple[str, ...] = (
    Region.US_EAST, Region.US_WEST, Region.AMERICAS_OTHER, Region.INDIA,
    Region.CHINA, Region.ASIA_OTHER, Region.EUROPE, Region.AFRICA,
    Region.OCEANIA,
)


@dataclass(frozen=True)
class City:
    """A populated place peers can be located in."""

    name: str
    lat: float
    lon: float
    weight: float = 1.0


@dataclass(frozen=True)
class Country:
    """A country (or territory) in the synthetic world."""

    code: str            # ISO 3166-ish two-letter code
    name: str
    region: str          # one of REGIONS
    peer_weight: float   # share of the global peer population
    cities: tuple[City, ...]
    timezone: str = "UTC"
    speed_multiplier: float = 1.0  # scales sampled broadband speeds

    def __post_init__(self):
        if not self.cities:
            raise ValueError(f"country {self.code} needs at least one city")
        if self.peer_weight < 0:
            raise ValueError(f"country {self.code} peer_weight must be >= 0")

    @cached_property
    def city_cum_weights(self) -> list[float]:
        """Cumulative city-size weights (what ``sample_city`` bisects)."""
        return cumulative(c.weight for c in self.cities)


@dataclass(frozen=True)
class GeoRecord:
    """What an EdgeScape lookup returns for one IP address."""

    country_code: str
    region: str
    city: str
    lat: float
    lon: float
    timezone: str
    network: str  # provider / AS name
    asn: int


class World:
    """The set of countries plus sampling helpers."""

    def __init__(self, countries: list[Country]):
        if not countries:
            raise ValueError("world needs at least one country")
        codes = [c.code for c in countries]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate country codes in world definition")
        self.countries = list(countries)
        self.by_code = {c.code: c for c in countries}
        #: Cumulative peer-population weights, in ``countries`` order.
        self.cum_weights = cumulative(c.peer_weight for c in countries)
        if self.cum_weights[-1] <= 0:
            raise ValueError("total peer weight must be positive")

    def sample_country(self, rng: random.Random) -> Country:
        """Draw a country proportionally to its peer-population weight."""
        return rng.choices(self.countries, cum_weights=self.cum_weights, k=1)[0]

    def sample_city(self, country: Country, rng: random.Random) -> City:
        """Draw a city within a country, weighted by city size."""
        return rng.choices(country.cities,
                           cum_weights=country.city_cum_weights, k=1)[0]

    def region_weight(self, region: str) -> float:
        """Total peer weight of all countries in a region."""
        return sum(c.peer_weight for c in self.countries if c.region == region)


class GeoDatabase:
    """EdgeScape substitute: IP address → :class:`GeoRecord`.

    The addressing layer registers records as it assigns IPs; the analysis
    layer performs lookups exactly as the paper's authors did with the real
    EdgeScape data set.
    """

    def __init__(self):
        self._records: dict[str, GeoRecord] = {}

    def register(self, ip: str, record: GeoRecord) -> None:
        """Associate ``ip`` with a geolocation record (idempotent overwrite)."""
        self._records[ip] = record

    def get(self, ip: str) -> GeoRecord | None:
        """The record for ``ip``, or None for unknown addresses."""
        return self._records.get(ip)

    def items(self):
        """Every ``(ip, record)`` pair, in registration order."""
        return self._records.items()


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in kilometres."""
    r = 6371.0
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2 * r * math.asin(min(1.0, math.sqrt(a)))


# --------------------------------------------------------------------- world


def build_core_world(extra_territories: int = 0, seed: int = 0) -> World:
    """Build the synthetic world.

    The core table covers the population mix the paper reports (Figure 2:
    North America 27%, Europe 35%, plus South America and Asia).  With
    ``extra_territories`` > 0, small synthetic territories (negligible
    weight, random coordinates) are appended so that scenario runs can
    observe connections from "239 countries and territories" like Table 1.
    """
    countries = list(_CORE_COUNTRIES)
    if extra_territories:
        rng = random.Random(seed ^ 0x7E44)
        used = {c.code for c in countries}
        regions = list(REGIONS)
        n = 0
        while n < extra_territories:
            code = "".join(rng.choices("ABCDEFGHIJKLMNOPQRSTUVWXYZ", k=2))
            if code in used:
                continue
            used.add(code)
            lat = rng.uniform(-60, 70)
            lon = rng.uniform(-180, 180)
            countries.append(
                Country(
                    code=code,
                    name=f"Territory {code}",
                    region=rng.choice(regions),
                    peer_weight=0.02,
                    cities=(City(f"{code} Main", lat, lon),),
                )
            )
            n += 1
    return World(countries)


def _c(code, name, region, weight, cities, tz="UTC", speed=1.0) -> Country:
    return Country(code, name, region, weight,
                   tuple(City(*c) for c in cities), tz, speed)


#: Core country table.  Weights are percentage points of the global peer
#: population (they need not sum to 100; sampling normalises).  The regional
#: totals track Figure 2: ~27% North America, ~35% Europe, the rest split
#: across South America, Asia, Africa, Oceania.
_CORE_COUNTRIES: tuple[Country, ...] = (
    # --- North America (~27) -------------------------------------------------
    _c("US", "United States", Region.US_EAST, 12.0, [
        ("New York", 40.71, -74.01, 8.4), ("Philadelphia", 39.95, -75.17, 1.6),
        ("Boston", 42.36, -71.06, 0.7), ("Atlanta", 33.75, -84.39, 0.5),
        ("Miami", 25.76, -80.19, 0.5), ("Washington", 38.91, -77.04, 0.7),
        ("Pittsburgh", 40.44, -79.99, 0.3),
    ], "America/New_York", 1.3),
    _c("UW", "United States (West)", Region.US_WEST, 8.0, [
        ("Los Angeles", 34.05, -118.24, 4.0), ("San Francisco", 37.77, -122.42, 0.9),
        ("Seattle", 47.61, -122.33, 0.7), ("Denver", 39.74, -104.99, 0.7),
        ("Phoenix", 33.45, -112.07, 1.6),
    ], "America/Los_Angeles", 1.4),
    _c("CA", "Canada", Region.AMERICAS_OTHER, 3.5, [
        ("Toronto", 43.65, -79.38, 2.8), ("Vancouver", 49.28, -123.12, 0.6),
        ("Montreal", 45.50, -73.57, 1.7),
    ], "America/Toronto", 1.2),
    _c("MX", "Mexico", Region.AMERICAS_OTHER, 2.5, [
        ("Mexico City", 19.43, -99.13, 8.9), ("Guadalajara", 20.66, -103.35, 1.5),
    ], "America/Mexico_City", 0.6),
    # --- South America -------------------------------------------------------
    _c("BR", "Brazil", Region.AMERICAS_OTHER, 5.0, [
        ("Sao Paulo", -23.55, -46.63, 12.3), ("Rio de Janeiro", -22.91, -43.17, 6.7),
        ("Brasilia", -15.79, -47.88, 3.0),
    ], "America/Sao_Paulo", 0.5),
    _c("AR", "Argentina", Region.AMERICAS_OTHER, 1.5, [
        ("Buenos Aires", -34.60, -58.38, 3.0), ("Cordoba", -31.42, -64.18, 1.4),
    ], "America/Argentina/Buenos_Aires", 0.5),
    _c("CL", "Chile", Region.AMERICAS_OTHER, 0.8, [
        ("Santiago", -33.45, -70.67, 5.6),
    ], "America/Santiago", 0.6),
    _c("CO", "Colombia", Region.AMERICAS_OTHER, 0.9, [
        ("Bogota", 4.71, -74.07, 7.4), ("Medellin", 6.25, -75.56, 2.5),
    ], "America/Bogota", 0.4),
    # --- Europe (~35) ---------------------------------------------------------
    _c("DE", "Germany", Region.EUROPE, 6.5, [
        ("Berlin", 52.52, 13.41, 3.6), ("Munich", 48.14, 11.58, 1.5),
        ("Hamburg", 53.55, 9.99, 1.8), ("Frankfurt", 50.11, 8.68, 0.7),
    ], "Europe/Berlin", 1.1),
    _c("GB", "United Kingdom", Region.EUROPE, 5.5, [
        ("London", 51.51, -0.13, 8.9), ("Manchester", 53.48, -2.24, 0.5),
        ("Birmingham", 52.49, -1.89, 1.1),
    ], "Europe/London", 1.1),
    _c("FR", "France", Region.EUROPE, 5.0, [
        ("Paris", 48.86, 2.35, 2.2), ("Lyon", 45.76, 4.84, 0.5),
        ("Marseille", 43.30, 5.37, 0.9),
    ], "Europe/Paris", 1.2),
    _c("IT", "Italy", Region.EUROPE, 3.5, [
        ("Rome", 41.90, 12.50, 2.9), ("Milan", 45.46, 9.19, 1.4),
    ], "Europe/Rome", 0.8),
    _c("ES", "Spain", Region.EUROPE, 3.0, [
        ("Madrid", 40.42, -3.70, 3.2), ("Barcelona", 41.39, 2.17, 1.6),
    ], "Europe/Madrid", 0.9),
    _c("PL", "Poland", Region.EUROPE, 2.5, [
        ("Warsaw", 52.23, 21.01, 1.8), ("Krakow", 50.06, 19.94, 0.8),
    ], "Europe/Warsaw", 0.8),
    _c("NL", "Netherlands", Region.EUROPE, 2.0, [
        ("Amsterdam", 52.37, 4.90, 0.9), ("Rotterdam", 51.92, 4.48, 0.6),
    ], "Europe/Amsterdam", 1.5),
    _c("SE", "Sweden", Region.EUROPE, 1.5, [
        ("Stockholm", 59.33, 18.07, 1.0), ("Gothenburg", 57.71, 11.97, 0.6),
    ], "Europe/Stockholm", 1.6),
    _c("RO", "Romania", Region.EUROPE, 1.5, [
        ("Bucharest", 44.43, 26.10, 1.9),
    ], "Europe/Bucharest", 1.4),
    _c("RU", "Russia", Region.EUROPE, 3.5, [
        ("Moscow", 55.76, 37.62, 12.5), ("Saint Petersburg", 59.93, 30.34, 5.4),
        ("Novosibirsk", 55.03, 82.92, 1.6),
    ], "Europe/Moscow", 0.9),
    _c("TR", "Turkey", Region.EUROPE, 2.0, [
        ("Istanbul", 41.01, 28.98, 15.0), ("Ankara", 39.93, 32.86, 5.6),
    ], "Europe/Istanbul", 0.7),
    _c("UA", "Ukraine", Region.EUROPE, 1.5, [
        ("Kyiv", 50.45, 30.52, 2.9), ("Kharkiv", 49.99, 36.23, 1.4),
    ], "Europe/Kyiv", 0.9),
    _c("CZ", "Czechia", Region.EUROPE, 1.0, [
        ("Prague", 50.08, 14.44, 1.3),
    ], "Europe/Prague", 1.0),
    _c("PT", "Portugal", Region.EUROPE, 0.8, [
        ("Lisbon", 38.72, -9.14, 0.5),
    ], "Europe/Lisbon", 1.0),
    _c("GR", "Greece", Region.EUROPE, 0.7, [
        ("Athens", 37.98, 23.73, 3.2),
    ], "Europe/Athens", 0.6),
    # --- Asia -----------------------------------------------------------------
    _c("IN", "India", Region.INDIA, 4.0, [
        ("Mumbai", 19.08, 72.88, 12.4), ("Delhi", 28.70, 77.10, 11.0),
        ("Bangalore", 12.97, 77.59, 8.4), ("Chennai", 13.08, 80.27, 4.6),
    ], "Asia/Kolkata", 0.3),
    _c("CN", "China", Region.CHINA, 3.0, [
        ("Beijing", 39.90, 116.41, 21.5), ("Shanghai", 31.23, 121.47, 24.3),
        ("Guangzhou", 23.13, 113.26, 13.1), ("Chengdu", 30.57, 104.07, 16.3),
    ], "Asia/Shanghai", 0.5),
    _c("JP", "Japan", Region.ASIA_OTHER, 3.5, [
        ("Tokyo", 35.68, 139.65, 13.9), ("Osaka", 34.69, 135.50, 2.7),
    ], "Asia/Tokyo", 1.6),
    _c("KR", "South Korea", Region.ASIA_OTHER, 2.5, [
        ("Seoul", 37.57, 126.98, 9.7), ("Busan", 35.18, 129.08, 3.4),
    ], "Asia/Seoul", 1.8),
    _c("TW", "Taiwan", Region.ASIA_OTHER, 1.5, [
        ("Taipei", 25.03, 121.57, 2.6),
    ], "Asia/Taipei", 1.3),
    _c("TH", "Thailand", Region.ASIA_OTHER, 1.5, [
        ("Bangkok", 13.76, 100.50, 8.3),
    ], "Asia/Bangkok", 0.6),
    _c("VN", "Vietnam", Region.ASIA_OTHER, 1.5, [
        ("Ho Chi Minh City", 10.82, 106.63, 8.4), ("Hanoi", 21.03, 105.85, 7.5),
    ], "Asia/Ho_Chi_Minh", 0.5),
    _c("ID", "Indonesia", Region.ASIA_OTHER, 1.8, [
        ("Jakarta", -6.21, 106.85, 10.6), ("Surabaya", -7.25, 112.75, 2.9),
    ], "Asia/Jakarta", 0.3),
    _c("MY", "Malaysia", Region.ASIA_OTHER, 1.0, [
        ("Kuala Lumpur", 3.14, 101.69, 1.8),
    ], "Asia/Kuala_Lumpur", 0.6),
    _c("PH", "Philippines", Region.ASIA_OTHER, 1.2, [
        ("Manila", 14.60, 120.98, 1.8), ("Cebu", 10.32, 123.89, 0.9),
    ], "Asia/Manila", 0.4),
    _c("SG", "Singapore", Region.ASIA_OTHER, 0.6, [
        ("Singapore", 1.35, 103.82, 5.6),
    ], "Asia/Singapore", 1.7),
    _c("IL", "Israel", Region.ASIA_OTHER, 0.8, [
        ("Tel Aviv", 32.09, 34.78, 0.4),
    ], "Asia/Jerusalem", 1.0),
    _c("SA", "Saudi Arabia", Region.ASIA_OTHER, 0.8, [
        ("Riyadh", 24.71, 46.68, 7.0),
    ], "Asia/Riyadh", 0.6),
    _c("AE", "United Arab Emirates", Region.ASIA_OTHER, 0.5, [
        ("Dubai", 25.20, 55.27, 3.3),
    ], "Asia/Dubai", 0.9),
    # --- Africa ---------------------------------------------------------------
    _c("ZA", "South Africa", Region.AFRICA, 1.0, [
        ("Johannesburg", -26.20, 28.05, 5.6), ("Cape Town", -33.92, 18.42, 4.6),
    ], "Africa/Johannesburg", 0.4),
    _c("EG", "Egypt", Region.AFRICA, 1.0, [
        ("Cairo", 30.04, 31.24, 9.5),
    ], "Africa/Cairo", 0.3),
    _c("NG", "Nigeria", Region.AFRICA, 0.8, [
        ("Lagos", 6.52, 3.38, 14.9),
    ], "Africa/Lagos", 0.2),
    _c("MA", "Morocco", Region.AFRICA, 0.6, [
        ("Casablanca", 33.57, -7.59, 3.4),
    ], "Africa/Casablanca", 0.4),
    _c("KE", "Kenya", Region.AFRICA, 0.4, [
        ("Nairobi", -1.29, 36.82, 4.4),
    ], "Africa/Nairobi", 0.3),
    # --- Oceania ----------------------------------------------------------------
    _c("AU", "Australia", Region.OCEANIA, 1.8, [
        ("Sydney", -33.87, 151.21, 5.3), ("Melbourne", -37.81, 144.96, 5.0),
        ("Perth", -31.95, 115.86, 2.1),
    ], "Australia/Sydney", 0.8),
    _c("NZ", "New Zealand", Region.OCEANIA, 0.5, [
        ("Auckland", -36.85, 174.76, 1.6),
    ], "Pacific/Auckland", 0.8),
)
