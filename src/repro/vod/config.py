"""Configuration for the VoD streaming workload and serving policies.

Kept dependency-free (stdlib and :mod:`repro.bounds` only):
:class:`VodConfig` is embedded in
:class:`repro.workload.scenario.ScenarioConfig`, so this module must be
importable from the workload layer without dragging the rest of the VoD
subsystem (catalog, demand, policy engine) into the import graph.

The knobs model a catch-up-TV service in the BBC iPlayer mold: an
episode/series catalog whose popularity decays with age, prime-time
session arrivals, and viewers who abandon slow startups, stop partway
through, seek ahead, and binge the next episode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import bound, check_bounds

__all__ = ["VodConfig", "POLICY_NAMES"]

#: The serving policies the engine knows how to build (see
#: :mod:`repro.vod.policy`).  ``unrestricted`` is the baseline.
POLICY_NAMES = (
    "unrestricted", "isp_local", "offpeak_prefetch", "popularity_seeding",
)


@dataclass(frozen=True)
class VodConfig:
    """Everything that defines the streaming side of a scenario.

    A scenario with ``vod=None`` (the default) runs exactly the seed
    download workload: no VoD object is built, no policy installed, and no
    RNG stream is touched — the golden-parity tests pin that.
    """

    # --- catalog -----------------------------------------------------------
    #: Number of series in the catch-up catalog.
    n_series: int = bound("[1, inf)", 6)
    #: Episodes per series, released one per day counting back from the
    #: trace start (newest episode is freshest; see :mod:`repro.vod.catalog`
    #: for the release spacing and popularity decay).
    episodes_per_series: int = bound("[1, inf)", 8)
    #: Episode runtime in minutes; with the bitrate this fixes the file size.
    episode_minutes: float = bound("(0, inf)", 30.0)
    #: Video consumption rate in kilobits per second.
    bitrate_kbps: float = bound("(0, inf)", 3000.0)

    # --- demand ------------------------------------------------------------
    #: Viewing sessions scheduled over the trace (the prime-time arrival
    #: curve and the viewers' behavior live in :mod:`repro.vod.demand`).
    sessions: int = bound("[0, inf)", 300)

    # --- serving policy ----------------------------------------------------
    #: One of :data:`POLICY_NAMES`; validated by the engine, not here, so
    #: config construction stays total (the fingerprint sweep mutates it).
    policy: str = "unrestricted"
    #: ``popularity_seeding``: expected pre-trace cached copies per episode,
    #: apportioned by decayed popularity.
    seed_copies_per_episode: float = bound("[0, inf)", 3.0)

    def __post_init__(self):
        check_bounds(self)

    @property
    def bitrate_bytes_per_s(self) -> float:
        """The playback consumption rate in bytes/second."""
        return self.bitrate_kbps * 1000.0 / 8.0

    @property
    def episode_bytes(self) -> int:
        """Episode file size implied by runtime x bitrate."""
        return int(self.episode_minutes * 60.0 * self.bitrate_bytes_per_s)
