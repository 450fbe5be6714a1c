"""Pure peer-to-peer CDN baseline: a BitTorrent-like swarm.

The other end of the paper's design space (§2.1): no infrastructure beyond
a tracker and an initial seeder.  The contrast with NetSession that the
paper draws — and that the baseline benchmarks quantify — is threefold:

* **incentives**: BitTorrent needs tit-for-tat choking because peers only
  get good service if they reciprocate; NetSession deliberately has none
  (§3.4).  Free-riders here are limited to optimistic-unchoke scraps.
* **no backstop**: when seeders churn away, downloads stall or die; there
  is no edge server to "cover the difference".
* **no central QoS control**: speed depends entirely on swarm composition.

The model is a fluid BitTorrent approximation in the style of analytic BT
models: time advances in fixed re-choke intervals; each interval, every
peer allocates its upload capacity across up to four unchoked neighbours
(three reciprocation-ranked plus one optimistic), and progress advances
subject to piece availability (a leecher can only pull what the neighbour
has and it lacks).  This captures the dynamics the comparison needs without
a packet-level protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["P2PConfig", "P2PPeer", "P2PDownload", "Torrent", "PureP2PSwarm"]


@dataclass(frozen=True)
class P2PConfig:
    """Knobs for the BitTorrent-like baseline."""

    recheck_interval: float = 10.0
    upload_slots: int = 4
    optimistic_slots: int = 1
    #: A download that makes no progress for this long is declared failed.
    stall_timeout: float = 6 * 3600.0
    #: Seeders stay this long after completing (short sessions are the
    #: p2p norm the paper cites [4, 14, 27]).
    seed_linger_mean: float = 1800.0

    def __post_init__(self):
        if self.recheck_interval <= 0:
            raise ValueError("recheck_interval must be positive")
        if self.upload_slots < 1:
            raise ValueError("need at least one upload slot")


@dataclass
class P2PPeer:
    """One BitTorrent client."""

    name: str
    up_bps: float
    down_bps: float
    #: Free-riders never upload (the paper's incentive literature [23, 29]).
    free_rider: bool = False
    online: bool = True

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, P2PPeer) and other.name == self.name


@dataclass
class P2PDownload:
    """One peer's progress in one torrent."""

    peer: P2PPeer
    size: float
    received: float = 0.0
    start_time: float = 0.0
    end_time: float | None = None
    last_progress_time: float = 0.0
    failed: bool = False
    #: Reciprocation ledger: bytes received from each neighbour recently.
    credit: dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """All bytes received."""
        return self.received >= self.size - 0.5

    @property
    def progress(self) -> float:
        """Fraction of the object held."""
        return min(1.0, self.received / self.size)


class Torrent:
    """One object being swarmed, with its member set."""

    def __init__(self, name: str, size: float):
        if size <= 0:
            raise ValueError("torrent size must be positive")
        self.name = name
        self.size = float(size)
        self.downloads: dict[str, P2PDownload] = {}
        #: Insertion-ordered set (dict keys): iteration order feeds the RNG
        #: shuffle and float sums, so it must not depend on the str hash seed.
        self.seeders: dict[P2PPeer, None] = {}

    def members(self) -> list[P2PPeer]:
        """Everyone in the swarm (tracker view)."""
        active = [d.peer for d in self.downloads.values()
                  if not d.complete and not d.failed and d.peer.online]
        return active + [s for s in self.seeders if s.online]


class PureP2PSwarm:
    """The fluid swarm simulator: tracker + peers + tit-for-tat dynamics."""

    def __init__(self, config: P2PConfig | None = None, *, seed: int = 0):
        self.config = config if config is not None else P2PConfig()
        self.rng = random.Random(seed)
        self.torrents: dict[str, Torrent] = {}
        self.now = 0.0
        #: (departure time, torrent, peer): finished seeders that will churn.
        self._departures: list[tuple[float, "Torrent", P2PPeer]] = []

    # ------------------------------------------------------------------ setup

    def add_torrent(self, name: str, size: float, initial_seeders: list[P2PPeer]) -> Torrent:
        """Publish a torrent with its initial seeder set."""
        torrent = Torrent(name, size)
        torrent.seeders.update(dict.fromkeys(initial_seeders))
        self.torrents[name] = torrent
        return torrent

    def start_download(self, torrent: Torrent, peer: P2PPeer) -> P2PDownload:
        """A leecher joins the swarm."""
        download = P2PDownload(
            peer=peer, size=torrent.size,
            start_time=self.now, last_progress_time=self.now,
        )
        torrent.downloads[peer.name] = download
        return download

    # ------------------------------------------------------------- simulation

    def run(self, duration: float) -> None:
        """Advance the swarm by ``duration`` seconds of fluid dynamics."""
        steps = max(1, int(duration / self.config.recheck_interval))
        for _ in range(steps):
            self._tick(self.config.recheck_interval)

    def _tick(self, dt: float) -> None:
        self.now += dt
        if self._departures:
            staying = []
            for when, torrent, peer in self._departures:
                if when <= self.now:
                    torrent.seeders.pop(peer, None)
                else:
                    staying.append((when, torrent, peer))
            self._departures = staying
        for torrent in self.torrents.values():
            self._tick_torrent(torrent, dt)

    def _tick_torrent(self, torrent: Torrent, dt: float) -> None:
        cfg = self.config
        leechers = [
            d for d in torrent.downloads.values()
            if not d.complete and not d.failed and d.peer.online
        ]
        if not leechers:
            return
        uploaders: list[tuple[P2PPeer, P2PDownload | None]] = [
            (s, None) for s in torrent.seeders if s.online
        ]
        uploaders += [
            (d.peer, d) for d in torrent.downloads.values()
            if d.peer.online and not d.failed and not d.peer.free_rider
            and d.received > 0 and not d.complete
        ]

        # Each uploader picks who to unchoke this interval.
        rate_in: dict[str, float] = {d.peer.name: 0.0 for d in leechers}
        gave: dict[tuple[str, str], float] = {}
        for uploader, up_state in uploaders:
            if uploader.free_rider:
                continue
            candidates = [
                d for d in leechers
                if d.peer is not uploader and self._has_useful(up_state, d)
            ]
            if not candidates:
                continue
            # Tit-for-tat: rank by what they gave *us* recently.  Free
            # riders earn no credit, so they only ever win the optimistic
            # slot.  Seeders rotate among requesters (shuffle; stable-sort
            # ties keep the rotation fair rather than positional).
            self.rng.shuffle(candidates)
            if up_state is not None:
                candidates.sort(
                    key=lambda d: (up_state.credit.get(d.peer.name, 0.0),
                                   not d.peer.free_rider),
                    reverse=True,
                )
            regular = candidates[: cfg.upload_slots - cfg.optimistic_slots]
            rest = [d for d in candidates if d not in regular]
            optimistic = self.rng.sample(rest, min(cfg.optimistic_slots, len(rest)))
            unchoked = regular + optimistic
            if not unchoked:
                continue
            share = uploader.up_bps / len(unchoked)
            for d in unchoked:
                rate_in[d.peer.name] += share
                gave[(uploader.name, d.peer.name)] = share

        # Advance progress, bounded by each leecher's downlink and by
        # availability (cannot hold more than the best uploader's progress
        # grants; seeders grant everything).
        for d in leechers:
            rate = min(rate_in.get(d.peer.name, 0.0), d.peer.down_bps)
            if rate > 0:
                d.received = min(d.size, d.received + rate * dt)
                d.last_progress_time = self.now
                for (up_name, down_name), r in gave.items():
                    if down_name == d.peer.name:
                        d.credit[up_name] = d.credit.get(up_name, 0.0) * 0.5 + r * dt
            if d.complete and d.end_time is None:
                d.end_time = self.now
                self._on_complete(torrent, d)
            elif self.now - d.last_progress_time > cfg.stall_timeout:
                d.failed = True

    def _has_useful(self, up_state: P2PDownload | None, down: P2PDownload) -> bool:
        """Can this uploader offer pieces the downloader lacks?

        Seeders always can.  Between leechers we use the standard fluid-BT
        assumption [Qiu & Srikant]: random piece selection keeps holdings
        mostly disjoint, so any leecher with a non-trivial share is useful
        to any other that is not nearly done.
        """
        if up_state is None:
            return True
        return up_state.progress > 0.02 and down.progress < 0.98

    def _on_complete(self, torrent: Torrent, download: P2PDownload) -> None:
        """A finished leecher seeds briefly, then churns away."""
        torrent.seeders[download.peer] = None
        linger = self.rng.expovariate(1.0 / self.config.seed_linger_mean)
        departure = self.now + linger
        self._departures.append((departure, torrent, download.peer))

    # --------------------------------------------------------------- metrics

    def completion_stats(self, torrent: Torrent) -> dict[str, float]:
        """Completion rate, failure rate, and mean time for one torrent."""
        downloads = list(torrent.downloads.values())
        if not downloads:
            return {"completed": 0.0, "failed": 0.0, "mean_time": 0.0}
        done = [d for d in downloads if d.complete]
        failed = [d for d in downloads if d.failed]
        times = [d.end_time - d.start_time for d in done if d.end_time is not None]
        return {
            "completed": len(done) / len(downloads),
            "failed": len(failed) / len(downloads),
            "mean_time": sum(times) / len(times) if times else 0.0,
        }
