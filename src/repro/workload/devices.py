"""Device-tier profiles for the heterogeneous peer population.

The paper treats NetSession installs as interchangeable desktops, but real
peer-assisted CDNs are dominated by device heterogeneity: always-on
router-class boxes carry a disproportionate share of the offload while
mobile installs churn fast and contribute little.  A ``DeviceClass``
bundles the knobs that differ across hardware tiers — session/uptime
behavior, storage budget, uplink cap, NAT openness, mobility, and an
optional selection-ranking weight — and a ``DeviceMixConfig`` declares the
population's class shares on ``PopulationConfig.device``.

The default (``device=None``) draws nothing and changes nothing: every
existing golden stays byte-identical.  When a mix is declared, both the
object and the columnar population builds consume exactly the same RNG
draws per peer (class pick, always-on override, optional NAT override), so
store parity holds with tiers enabled too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import bound, check_bounds

_MOBILITY_KINDS = ("default", "stationary", "nomadic")


@dataclass(frozen=True)
class DeviceClass:
    """One hardware tier: shares, availability, and resource budgets.

    ``uplink_cap_bps`` / ``cache_objects`` of ``None`` mean "no class
    limit" (the access link / retention policy governs, as before).
    ``nat_open_prob`` of ``None`` keeps the sampled NAT profile; a float
    forces an OPEN NAT with that probability (router-class devices control
    their own port mappings).  ``selection_weight`` feeds CN candidate
    ranking when any class sets it non-zero; all-zero keeps ranking off.
    """

    name: str
    share: float = bound("[0, inf)")
    always_on_prob: float = bound("[0, 1]", 0.0)
    uptime_hours_mean: float = bound("(0, 24]", 10.0)
    daily_skip_prob: float = bound("[0, 1]", 0.12)
    uplink_cap_bps: float | None = bound("(0, inf)", None)
    cache_objects: int | None = bound("[1, inf)", None)
    nat_open_prob: float | None = bound("[0, 1]", None)
    selection_weight: float = bound("(-inf, inf)", 0.0)
    mobility: str = "default"
    link_busy_mult: float = bound("[0, inf)", 1.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device class needs a name")
        check_bounds(self)
        if self.mobility not in _MOBILITY_KINDS:
            raise ValueError(
                f"{self.name}: mobility {self.mobility!r} not in {_MOBILITY_KINDS}")


@dataclass(frozen=True)
class DeviceMixConfig:
    """The population's device-class shares (normalized at draw time)."""

    classes: tuple[DeviceClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("device mix needs at least one class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device class names: {names}")
        if sum(cls.share for cls in self.classes) <= 0:
            raise ValueError("device mix shares sum to zero")

    def pick(self, roll: float) -> DeviceClass:
        """Map one uniform [0, 1) draw to a class via cumulative shares."""
        total = sum(cls.share for cls in self.classes)
        acc = 0.0
        for cls in self.classes:
            acc += cls.share / total
            if roll < acc:
                return cls
        return self.classes[-1]

    def rank_weights(self) -> dict[str, float] | None:
        """Per-class selection weights, or None when ranking is off."""
        if all(cls.selection_weight == 0.0 for cls in self.classes):
            return None
        return {cls.name: cls.selection_weight for cls in self.classes}


# -- Preset mixes ------------------------------------------------------------
# Shares loosely follow the smartrouter-CDN measurement literature: a small
# always-on router tier, a fat desktop middle, a churny mobile slice, and
# living-room set-top boxes that are on in the evening but storage-poor.

_DESKTOP = DeviceClass(name="desktop", share=0.62)
_SMARTROUTER = DeviceClass(
    name="smartrouter", share=0.08, always_on_prob=0.95,
    uptime_hours_mean=22.0, daily_skip_prob=0.01,
    uplink_cap_bps=500_000.0,       # ~4 Mbit/s dedicated upstream budget
    cache_objects=64, nat_open_prob=0.9, mobility="stationary",
    link_busy_mult=0.25)
_MOBILE = DeviceClass(
    name="mobile", share=0.22, uptime_hours_mean=3.0, daily_skip_prob=0.35,
    uplink_cap_bps=60_000.0,        # ~0.5 Mbit/s cellular-friendly cap
    cache_objects=4, mobility="nomadic", link_busy_mult=2.0)
_SETTOP = DeviceClass(
    name="settop", share=0.08, always_on_prob=0.30,
    uptime_hours_mean=6.0, daily_skip_prob=0.20,
    cache_objects=8, mobility="stationary", link_busy_mult=0.5)


def default_mix() -> DeviceMixConfig:
    """Desktop-dominated mix with router/mobile/settop minorities."""
    return DeviceMixConfig(classes=(_DESKTOP, _SMARTROUTER, _MOBILE, _SETTOP))


def desktop_only() -> DeviceMixConfig:
    """Single class whose parameters match the homogeneous defaults.

    Statistically equivalent to ``device=None`` (the class neither caps
    nor reshapes anything); used to price tier-assignment overhead.
    """
    return DeviceMixConfig(classes=(DeviceClass(name="desktop", share=1.0),))


def router_heavy() -> DeviceMixConfig:
    """Operator-subsidized smartrouter deployment (large always-on tier)."""
    classes = tuple(
        DeviceClass(**{**cls.__dict__, "share": share})
        for cls, share in ((_DESKTOP, 0.45), (_SMARTROUTER, 0.30),
                           (_MOBILE, 0.17), (_SETTOP, 0.08)))
    return DeviceMixConfig(classes=classes)


def mobile_heavy() -> DeviceMixConfig:
    """Mobile-first install base (churny, upload-poor majority)."""
    classes = tuple(
        DeviceClass(**{**cls.__dict__, "share": share})
        for cls, share in ((_DESKTOP, 0.25), (_SMARTROUTER, 0.05),
                           (_MOBILE, 0.62), (_SETTOP, 0.08)))
    return DeviceMixConfig(classes=classes)


PRESET_MIXES = {
    "balanced": default_mix,
    "desktop_only": desktop_only,
    "router_heavy": router_heavy,
    "mobile_heavy": mobile_heavy,
}
