"""Content catalog synthesis: the paper's customers and their objects.

Calibration targets from the paper:

* **Table 2** — the regional download mix of the ten largest customers
  (rows reproduced verbatim below);
* **Table 4** — the fraction of each customer's installs with uploads
  enabled (<1% … 94%);
* **§5.1** — p2p delivery enabled on only ~1.7% of files, but those files
  carry ~57.4% of the bytes;
* **Figure 3(a)** — peer-assisted requests are strongly biased toward large
  objects (82% of p2p requests are for objects >500 MB), because providers
  enable peer assist where it pays: big files;
* **§4.4** — the typical use case is software installers, several GB.

The generator creates a long tail of small infrastructure-only objects and
a small head of large, popular, p2p-enabled objects per provider.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.content import ContentObject, ContentProvider
from repro.net.geo import Region

__all__ = ["CatalogConfig", "Catalog", "build_catalog", "PAPER_CUSTOMERS"]


def _mix(us_e, us_w, am_o, india, china, asia_o, europe, africa, oceania):
    """Build a Table 2 row; values are percentages (may not sum to 100)."""
    raw = {
        Region.US_EAST: us_e, Region.US_WEST: us_w, Region.AMERICAS_OTHER: am_o,
        Region.INDIA: india, Region.CHINA: china, Region.ASIA_OTHER: asia_o,
        Region.EUROPE: europe, Region.AFRICA: africa, Region.OCEANIA: oceania,
    }
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items() if v > 0}


#: The paper's ten largest customers: (name, Table 4 upload-enabled fraction,
#: Table 2 regional mix).  "<1%" entries are encoded as 0.005.
PAPER_CUSTOMERS: list[tuple[str, float, dict[str, float]]] = [
    ("Customer A", 0.005, _mix(0, 0, 12, 6, 6, 18, 51, 4, 3)),
    ("Customer B", 0.20, _mix(2, 1, 1, 11, 0, 61, 6, 17, 1)),
    ("Customer C", 0.02, _mix(13, 6, 15, 1, 0, 8, 55, 1, 2)),
    ("Customer D", 0.94, _mix(22, 21, 6, 0, 0, 3, 45, 0, 3)),
    ("Customer E", 0.02, _mix(5, 3, 8, 2, 1, 29, 48, 2, 3)),
    ("Customer F", 0.45, _mix(0, 0, 0, 0, 0, 0, 100, 0, 0)),
    ("Customer G", 0.47, _mix(8, 3, 12, 2, 8, 20, 45, 2, 2)),
    ("Customer H", 0.005, _mix(6, 4, 7, 4, 2, 20, 53, 2, 2)),
    ("Customer I", 0.91, _mix(5, 2, 18, 0, 0, 15, 57, 1, 1)),
    ("Customer J", 0.005, _mix(42, 24, 14, 0, 0, 5, 11, 1, 3)),
]

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class CatalogConfig:
    """Knobs for catalog synthesis."""

    objects_per_provider: int = 60
    #: Fraction of objects with p2p enabled (§5.1: 1.7% in the trace).
    p2p_enabled_fraction: float = 0.017
    #: Zipf exponent for object popularity within a provider (Fig 3b shows
    #: the "nearly ubiquitous power law").
    zipf_exponent: float = 1.1
    #: Size range for the large installer class (p2p-enabled head).
    large_size_range: tuple[int, int] = (400 * MB, 2 * GB)
    #: Log-uniform size range for the small-object tail.
    small_size_range: tuple[int, int] = (1 * MB, 500 * MB)
    #: Relative popularity boost for p2p-enabled objects: providers enable
    #: peer assist on their flagship (most-downloaded) files, which is how
    #: 1.7% of files carry 57% of bytes.
    p2p_head_bias: float = 0.85
    #: Providers whose binaries ship with uploads mostly disabled "use the
    #: software merely as a download manager, without the peer assist"
    #: (paper §5.1) — only providers at or above this upload-default rate
    #: publish p2p-enabled objects.
    p2p_provider_threshold: float = 0.10

    def __post_init__(self):
        if self.objects_per_provider <= 0:
            raise ValueError("objects_per_provider must be positive")
        if not 0.0 <= self.p2p_enabled_fraction <= 1.0:
            raise ValueError("p2p_enabled_fraction must be in [0, 1]")


@dataclass
class Catalog:
    """All published objects with per-object popularity weights."""

    providers: list[ContentProvider]
    objects: list[ContentObject]
    #: Unnormalised popularity weight per object (same order as objects).
    weights: list[float]
    zipf_exponent: float = 0.9
    by_provider: dict[int, list[ContentObject]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_provider:
            for obj in self.objects:
                self.by_provider.setdefault(obj.provider.cp_code, []).append(obj)

    def provider_weights(self, cp_code: int) -> list[float]:
        """Zipf popularity weights aligned with ``by_provider[cp_code]``.

        Objects were generated in rank order, so position in the provider
        list is the popularity rank.
        """
        objects = self.by_provider[cp_code]
        return [1.0 / (i + 1) ** self.zipf_exponent for i in range(len(objects))]

    def p2p_objects(self) -> list[ContentObject]:
        """All objects with peer-assisted delivery enabled."""
        return [o for o in self.objects if o.p2p_enabled]


def build_catalog(
    rng: random.Random,
    config: CatalogConfig | None = None,
    *,
    first_cp_code: int = 1001,
) -> Catalog:
    """Create the ten paper customers and their objects.

    Popularity follows a Zipf law per provider.  The p2p-enabled objects are
    placed at (a biased sample of) the top popularity ranks, so that a small
    file count carries a majority of the bytes, matching §5.1.
    """
    cfg = config if config is not None else CatalogConfig()
    providers: list[ContentProvider] = []
    objects: list[ContentObject] = []
    weights: list[float] = []

    for index, (name, upload_rate, region_mix) in enumerate(PAPER_CUSTOMERS):
        provider = ContentProvider(
            cp_code=first_cp_code + index,
            name=name,
            upload_default_rate=upload_rate,
            region_mix=region_mix,
        )
        providers.append(provider)

        n = cfg.objects_per_provider
        p2p_ranks: set[int] = set()
        if upload_rate >= cfg.p2p_provider_threshold:
            # Keep the *global* p2p file fraction at the configured level by
            # concentrating the budget on the peer-assist-using providers.
            using = sum(
                1 for _, rate, _ in PAPER_CUSTOMERS
                if rate >= cfg.p2p_provider_threshold
            )
            # Capped at the n ranks: above a fraction of
            # using/len(PAPER_CUSTOMERS) the draw below could never end.
            n_p2p = min(n, max(1, round(
                n * cfg.p2p_enabled_fraction * len(PAPER_CUSTOMERS) / using)))
            # Which popularity ranks get p2p enabled: mostly the head.
            while len(p2p_ranks) < n_p2p:
                if rng.random() < cfg.p2p_head_bias:
                    rank = rng.randrange(0, max(1, n // 20))  # top 5%
                else:
                    rank = rng.randrange(0, n)
                p2p_ranks.add(rank)

        for rank in range(n):
            p2p = rank in p2p_ranks
            if p2p:
                size = rng.randint(*cfg.large_size_range)
            else:
                size = _log_uniform_int(rng, *cfg.small_size_range)
            obj = ContentObject(
                url=f"{name.replace(' ', '').lower()}/object-{rank:05d}",
                size=size,
                provider=provider,
                p2p_enabled=p2p,
            )
            objects.append(obj)
            weights.append(1.0 / (rank + 1) ** cfg.zipf_exponent)

    return Catalog(providers=providers, objects=objects, weights=weights,
                   zipf_exponent=cfg.zipf_exponent)


def _log_uniform_int(rng: random.Random, low: int, high: int) -> int:
    """Integer log-uniform sample in [low, high]."""
    return int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))
