"""The config-bounds census: every numeric config leaf declares its interval.

The walk covers the :class:`ScenarioConfig` leaf tree (each block,
optional ones included, expanded to its class; a tuple or a device mix is
one leaf), :class:`DeviceClass`, every :class:`FaultSpec` and the scripted
cast's :class:`ScriptObject`, :class:`Seeders` and :class:`Wave`.  Each int or
float leaf there must be declared with :func:`repro.bounds.bound` (``seed``
is the one exemption: every integer is a seed), its default must be
accepted, and NaN, the infinities outside its interval, the nearest
values on each side outside it and ``None`` (unless the leaf is
``X | None``) must be rejected at construction.

``python -m tests.test_config_bounds`` prints the leaf counts.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import pytest

from repro.bounds import bound
from repro.faults import spec as fault_spec
from repro.faults.spec import DNWipe, FaultSpec, PeerChurnStorm
from repro.workload.devices import DeviceClass, DeviceMixConfig
from repro.workload.scenario import ScenarioConfig
from repro.workload.script import Script, ScriptObject, Seeders, Wave

#: The one int leaf with no interval.
EXEMPT = {"seed"}

#: Leaves whose interval keeps 0 (or a negative value) on purpose, with
#: what the value's reader makes of it.  Probabilities and fractions,
#: where 0 is plainly a probability, are not listed.
ZERO_MEANS = {
    "ClientConfig.max_upload_connections": "the peer never uploads",
    "ClientConfig.max_corrupted_pieces": "the first corrupted piece fails the download",
    "ControlPlaneConfig.remote_search_threshold": "no remote-region search",
    "ControlChannelConfig.latency": "synchronous delivery",
    "ScenarioConfig.extra_territories": "the core world alone",
    "ScenarioConfig.warm_copies_per_peer": "a cold start",
    "CatalogConfig.zipf_exponent": "uniform popularity",
    "BehaviorConfig.patience_sigma": "every user has the median patience",
    "CloningConfig.failed_update_weight": "the pattern is never drawn",
    "CloningConfig.restored_backup_weight": "the pattern is never drawn",
    "CloningConfig.reimaging_weight": "the pattern is never drawn",
    "CloningConfig.irregular_weight": "the pattern is never drawn",
    "PlacementConfig.hot_threshold": "every object is hot",
    "PlacementConfig.max_prefetches_per_tick": "the placer starts no prefetch",
    "VodConfig.sessions": "no viewing session",
    "VodConfig.seed_copies_per_episode": "no pre-seeded copy",
    "DeviceClass.share": "the class is never drawn",
    "DeviceClass.selection_weight": "no boost (a negative weight demotes the class)",
    "DeviceClass.link_busy_mult": "the link is never busy",
    "FaultSpec.start": "the fault hits at t=0",
    "FaultSpec.duration": "an instantaneous fault",
    "ControlLatencySpike.latency": "the spike adds no latency",
}


def _optional_of(tp):
    """``(inner type, accepts None)`` for an annotation."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0], len(args) < len(typing.get_args(tp))
    return tp, False


def config_leaves(cls: type = ScenarioConfig, path: str = ""):
    """``(path, owner class, field, type, accepts None)`` for every leaf
    of the config tree rooted at ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, optional = _optional_of(hints[f.name])
        if dataclasses.is_dataclass(tp) and tp is not DeviceMixConfig:
            yield from config_leaves(tp, f"{path}{f.name}.")
        else:
            yield f"{path}{f.name}", cls, f, tp, optional


def census_classes() -> list[type]:
    """Every class the census covers, in a stable order."""
    classes = [owner for _, owner, *_ in config_leaves()]
    classes += [DeviceClass, ScriptObject, Seeders, Wave, FaultSpec]
    classes += [c for c in vars(fault_spec).values()
                if isinstance(c, type) and issubclass(c, FaultSpec)]
    return list(dict.fromkeys(classes))


def numeric_leaves(cls: type):
    """``(field, type, accepts None)`` for each int/float leaf of ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, optional = _optional_of(hints[f.name])
        if tp in (int, float):
            yield f, tp, optional


def undeclared(cls: type) -> list[str]:
    """The numeric leaves of ``cls`` that declare no interval."""
    return [f.name for f, _, _ in numeric_leaves(cls)
            if "interval" not in f.metadata and f.name not in EXEMPT]


def declaring_name(cls: type, name: str) -> str:
    """``Owner.field``, the owner being the class that declares the field."""
    owner = next(c for c in cls.__mro__
                 if name in c.__dict__.get("__annotations__", {}))
    return f"{owner.__name__}.{name}"


def base_kwargs(cls: type) -> dict:
    """The arguments a class needs beyond its defaults."""
    if cls is DeviceClass:
        return {"name": "a", "share": 1.0}
    if issubclass(cls, FaultSpec):
        duration = 60.0 if cls is PeerChurnStorm else 0.0
        return {"name": "x", "start": 600.0, "duration": duration}
    return {Script: {"objects": ()},
            ScriptObject: {"url": "u", "size": 1, "cp_code": 1, "provider": "P"},
            Seeders: {"count": 1, "object": "u"},
            Wave: {"label": "w", "starts": (0.0,)}}.get(cls, {})


BOUNDED = [(cls, f, tp, optional) for cls in census_classes()
           for f, tp, optional in numeric_leaves(cls) if "interval" in f.metadata]


def outside(interval, tp) -> list:
    """NaN, the infinities outside ``interval`` and the nearest values on
    each side outside it (in steps of 1 for an int leaf)."""
    def step(x, toward):
        return x + (1 if toward > x else -1) if tp is int else math.nextafter(x, toward)
    values = [math.nan, -math.inf, math.inf]
    if math.isfinite(interval.lo):
        values.append(interval.lo if interval.lo_open else step(interval.lo, -math.inf))
    if math.isfinite(interval.hi):
        values.append(interval.hi if interval.hi_open else step(interval.hi, math.inf))
    return [v for v in values if math.isnan(v) or v not in interval]


def test_every_numeric_leaf_declares_an_interval():
    missing = {cls.__name__: undeclared(cls) for cls in census_classes()}
    assert not {k: v for k, v in missing.items() if v}, missing


def test_the_census_flags_an_undeclared_leaf():
    @dataclasses.dataclass(frozen=True)
    class Loose:
        seed: int = 1
        bounded: float = bound("[0, 1]", 0.5)
        loose: float = 1.0
        optional: int | None = None
        flag: bool = True

    assert undeclared(Loose) == ["loose", "optional"]


def test_the_walk_counts_the_config_leaves():
    # 82 before ``predictive_placement`` (a duplicate of
    # ``placement=PlacementConfig()``) went.
    assert len(list(config_leaves())) == 81


def test_defaults_are_accepted():
    for cls in census_classes():
        obj = cls(**base_kwargs(cls))
        for f, _, optional in numeric_leaves(cls):
            value = getattr(obj, f.name)
            if "interval" in f.metadata and not (value is None and optional):
                assert value in f.metadata["interval"], (cls.__name__, f.name)


@pytest.mark.parametrize(
    "cls, field, tp, optional", BOUNDED,
    ids=[f"{cls.__name__}.{f.name}" for cls, f, _, _ in BOUNDED])
def test_values_outside_the_interval_are_rejected(cls, field, tp, optional):
    interval = field.metadata["interval"]
    rejected = outside(interval, tp) + ([] if optional else [None])
    for value in rejected:
        with pytest.raises(ValueError, match=field.name):
            cls(**{**base_kwargs(cls), field.name: value})
    if optional:
        cls(**{**base_kwargs(cls), field.name: None})


@pytest.mark.parametrize("cls, field, value", [
    (Wave, "starts", (math.nan,)),
    (Wave, "starts", (10.0, -5.0)),
    (Wave, "starts", (math.inf,)),
    (Wave, "link", (math.nan, 1.0)),
    (Wave, "link", (1.0, 0.0)),
    (Seeders, "link", (-1.0, 1.0)),
    (Seeders, "link", (1.0, math.inf)),
    (Seeders, "link", (1.0,)),
])
def test_script_tuple_elements_are_checked(cls, field, value):
    # Tuple elements have no ``bound`` form yet; these checks are by hand.
    with pytest.raises(ValueError, match=f"{cls.__name__}.{field}"):
        cls(**{**base_kwargs(cls), field: value})


def test_zero_inside_an_interval_is_deliberate():
    # Every unbounded-above leaf that admits 0 is listed with its meaning,
    # and the listed value constructs.
    admits_zero = set()
    for cls, f, _, _ in BOUNDED:
        interval = f.metadata["interval"]
        name = declaring_name(cls, f.name)
        if 0 in interval and interval.hi > 1 and name.startswith(cls.__name__ + "."):
            admits_zero.add(name)
            cls(**{**base_kwargs(cls), f.name: 0})
    assert admits_zero == set(ZERO_MEANS)
    DeviceClass("a", share=1.0, selection_weight=-1.0)


def test_check_bounds_names_the_class_the_interval_and_the_value():
    with pytest.raises(ValueError,
                       match=r"^DNWipe\.fraction must be in \[0, 1\], got nan$"):
        DNWipe("x", start=0.0, fraction=math.nan)
    with pytest.raises(ValueError, match="duration_days .* got 'a'"):
        ScenarioConfig(duration_days="a")


if __name__ == "__main__":
    leaves = list(config_leaves())
    numeric = [(cls, f) for cls in census_classes()
               for f, _, _ in numeric_leaves(cls)]
    print(f"config leaves: {len(leaves)}; numeric leaves in the census: "
          f"{len(numeric)}, bounded: {len(BOUNDED)}")
