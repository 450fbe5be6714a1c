"""Content model: providers, objects, versions, and pieces.

Every file NetSession distributes belongs to a *content provider* (the
paper's Customers A–J) identified by a CP code, and is broken by the edge
servers into fixed-size pieces, each verified on receipt (paper §3.4–3.5;
the simulation draws a piece's verification outcome instead of hashing).  Content providers decide per file whether peer-to-peer
delivery is enabled; in the paper's trace only 1.7% of files had it enabled,
but those accounted for 57.4% of all bytes (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ids import content_id

__all__ = ["ContentProvider", "ContentObject", "PIECE_SIZE"]

#: Piece size in bytes.  BitTorrent-era systems used 256 KiB–4 MiB; NetSession
#: distributes multi-GB installers, so we use 4 MiB.
PIECE_SIZE = 4 * 1024 * 1024


@dataclass(frozen=True)
class ContentProvider:
    """A customer account distributing content through the CDN.

    ``cp_code`` is the accounting identifier the paper's download records
    carry.  ``upload_default_rate`` is the probability that a binary bundled
    by this provider has peer uploads initially enabled — the paper's
    Table 4 shows it varies from <1% to 94% across customers (providers ship
    different bundles over time, and some use NetSession purely as a
    download manager).
    """

    cp_code: int
    name: str
    upload_default_rate: float = 1.0
    #: Regional popularity mix: region name -> probability a download of this
    #: provider's content originates there (Table 2 rows).
    region_mix: dict[str, float] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self):
        if self.cp_code <= 0:
            raise ValueError(f"cp_code must be positive, got {self.cp_code}")
        if not 0.0 <= self.upload_default_rate <= 1.0:
            raise ValueError(
                f"upload_default_rate must be in [0, 1], got {self.upload_default_rate}"
            )


class ContentObject:
    """One downloadable object (a file at a specific version).

    The object knows its own piece layout; a new version is a new object
    (same URL, higher ``version``, hence a new cid and a distinct swarm).
    """

    __slots__ = ("url", "version", "cid", "size", "provider", "p2p_enabled",
                 "num_pieces", "last_piece_size")

    def __init__(
        self,
        url: str,
        size: int,
        provider: ContentProvider,
        *,
        p2p_enabled: bool = False,
        version: int = 1,
    ):
        if size <= 0:
            raise ValueError(f"object size must be positive, got {size}")
        if version <= 0:
            raise ValueError(f"version must be positive, got {version}")
        self.url = url
        self.version = version
        self.cid = content_id(url, version)
        self.size = int(size)
        self.provider = provider
        self.p2p_enabled = p2p_enabled
        full, rem = divmod(self.size, PIECE_SIZE)
        self.num_pieces = full + (1 if rem else 0)
        self.last_piece_size = rem if rem else PIECE_SIZE

    def piece_size(self, index: int) -> int:
        """Size in bytes of piece ``index``."""
        if not 0 <= index < self.num_pieces:
            raise IndexError(f"piece {index} out of range for {self.num_pieces} pieces")
        if index == self.num_pieces - 1:
            return self.last_piece_size
        return PIECE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = "p2p" if self.p2p_enabled else "infra"
        return f"<ContentObject {self.url} v{self.version} {self.size}B {flag}>"

    def __hash__(self) -> int:
        return hash(self.cid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContentObject) and other.cid == self.cid
