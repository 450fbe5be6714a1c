"""Fingerprint correctness: every config knob moves the hash, nothing else.

The cache is only sound if the fingerprint is a pure, *complete* function
of the configuration: the exhaustive sweep below mutates every leaf field
of the whole ``ScenarioConfig`` tree (nested dataclasses included) and
asserts each mutation lands in a different cache slot.  A field this sweep
misses is a field whose change would silently serve stale results.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary import AdversaryConfig
from repro.core.placement import PlacementConfig
from repro.faults.scenarios import build_scenario
from repro.vod import VodConfig
from repro.workload.devices import default_mix
from repro.workload.script import Script, ScriptObject, Seeders, Wave
from repro.workload.sharding import ShardingConfig
from repro.runner import (
    CACHE_SCHEMA_VERSION, cache_namespace, canonicalize, code_fingerprint,
    fingerprint_config,
)

from tests.runner.conftest import tiny_config

pytestmark = pytest.mark.runner

#: A small scripted cast: one object, one seeder group, one wave.
SCRIPT = Script(objects=(ScriptObject("co/file.bin", 1000, 7, "Co"),),
                seeders=(Seeders(2, "co/file.bin"),),
                waves=(Wave("wave", (10.0, 20.0)),))


# --------------------------------------------------- exhaustive field sweep

def _candidates(value, name):
    """Candidate replacement values != ``value``; the first one the field's
    ``__post_init__`` validation accepts wins."""
    if name == "mode":  # constrained choice; 'auto' resolves before hashing
        return ["strict" if value != "strict" else "observe"]
    if name == "active_peer_cap":  # Optional[int]; None = every peer active
        return [1000]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, max(value - 1, 1)]
    if isinstance(value, float):
        # Several shots: validated ranges differ ((0,1] fractions,
        # probabilities, positive rates...).
        return [c for c in (value + 0.37, value * 0.9, value * 0.5 + 0.001,
                            0.123, 0.5) if c != value]
    if isinstance(value, str):
        return [value + "x"]
    if name == "vod":  # Optional[VodConfig]; None means "no streaming layer"
        return [VodConfig()]
    if name == "adversary":  # Optional[AdversaryConfig]; None = honest swarm
        return [AdversaryConfig()]
    if name == "sharding":  # Optional[ShardingConfig]; None = single trace
        return [ShardingConfig()]
    if name == "device":  # Optional[DeviceMixConfig]; None = homogeneous
        return [default_mix()]
    if name == "placement":  # Optional[PlacementConfig]; None = defaults
        return [PlacementConfig(copies_target=3)]
    if name == "script":  # Optional[Script]; None = synthetic population
        return [SCRIPT]
    if name == "link":  # Optional pinned (down, up) Mbit/s
        return [(10.0, 1.0)]
    if name == "profile_mix":  # fixed-length weight vector (one per profile)
        return [(value[0] + 1.0,) + tuple(value[1:])]
    if value is None:  # Optional[float] knobs (egress caps, overrides)
        return [0.5]
    if isinstance(value, tuple):
        if name == "faults":
            return [tuple(build_scenario("dn_wipe", at=600.0, duration=600.0))]
        if name == "checkers":
            return [("flow-feasibility",)]
        if value and isinstance(value[0], (int, float, str)):
            return [value + (value[0],)]
    raise AssertionError(
        f"no mutation rule for field {name!r} ({type(value).__qualname__}); "
        "extend the sweep — an unswept field is an untested cache key"
    )


def _dataclass_mutations(obj, path=""):
    """(field path, mutated copy) for every leaf field of a dataclass tree."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        where = f"{path}{f.name}"
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for leaf, inner in _dataclass_mutations(value, f"{where}."):
                yield leaf, dataclasses.replace(obj, **{f.name: inner})
            continue
        mutant = None
        for candidate in _candidates(value, f.name):
            try:
                mutant = dataclasses.replace(obj, **{f.name: candidate})
            except ValueError:
                continue  # failed the field's validation; try the next
            break
        assert mutant is not None, f"no valid mutation found for {where!r}"
        yield where, mutant


def _all_config_mutations(config):
    for name, mutant in _dataclass_mutations(config):
        yield name, mutant


def _block_mutations(base, block: str):
    """The sweep scoped to one optional block's subtree (the top-level
    sweep can't reach it: the default is None)."""
    for name, inner in _dataclass_mutations(getattr(base, block), f"{block}."):
        yield name, dataclasses.replace(base, **{block: inner})


def test_every_field_of_the_config_tree_changes_the_fingerprint():
    config = tiny_config()
    base = fingerprint_config(config)
    seen = {base}
    count = 0
    for name, mutant in _all_config_mutations(config):
        fp = fingerprint_config(mutant)
        assert fp != base, f"mutating {name!r} did not change the fingerprint"
        seen.add(fp)
        count += 1
    # The tree is deep: if the sweep collapses to a handful of fields the
    # recursion is broken, not the fingerprint.
    assert count >= 40, f"sweep only covered {count} leaf fields"
    assert len(seen) == count + 1, "two distinct mutations collided"


def test_equal_configs_fingerprint_identically():
    assert fingerprint_config(tiny_config()) == fingerprint_config(tiny_config())


def test_fingerprint_is_stable_within_a_process():
    config = tiny_config(seed=11)
    assert fingerprint_config(config) == fingerprint_config(config)


def test_integral_floats_collapse_to_ints():
    a = tiny_config(duration_days=1.0)
    b = tiny_config(duration_days=1)
    assert fingerprint_config(a) == fingerprint_config(b)


def test_vod_none_and_default_vod_do_not_collide():
    # The streaming layer is itself a cache key: attaching even an
    # all-defaults VodConfig must land in a different slot than None.
    base = tiny_config()
    with_vod = dataclasses.replace(base, vod=VodConfig())
    assert fingerprint_config(base) != fingerprint_config(with_vod)


def test_every_vod_knob_is_a_cache_key():
    # Same contract as the whole-tree sweep, scoped to the VodConfig
    # subtree (the top-level sweep can't reach it: the default is None).
    base = dataclasses.replace(tiny_config(), vod=VodConfig())
    base_fp = fingerprint_config(base)
    seen = {base_fp}
    count = 0
    for name, mutant in _block_mutations(base, "vod"):
        fp = fingerprint_config(mutant)
        assert fp != base_fp, f"mutating {name!r} did not change the fingerprint"
        seen.add(fp)
        count += 1
    assert count == len(dataclasses.fields(VodConfig)), \
        f"vod sweep only covered {count} leaf fields"
    assert len(seen) == count + 1, "two distinct vod mutations collided"


def test_adversary_none_and_default_do_not_collide():
    # The adversarial slice is itself a cache key: attaching even an
    # all-defaults AdversaryConfig must land in a different slot than None.
    base = tiny_config()
    with_adv = dataclasses.replace(base, adversary=AdversaryConfig())
    assert fingerprint_config(base) != fingerprint_config(with_adv)


def test_every_adversary_knob_is_a_cache_key():
    # Same contract as the whole-tree sweep, scoped to the AdversaryConfig
    # subtree (the top-level sweep can't reach it: the default is None).
    base = dataclasses.replace(tiny_config(), adversary=AdversaryConfig())
    base_fp = fingerprint_config(base)
    seen = {base_fp}
    count = 0
    for name, mutant in _block_mutations(base, "adversary"):
        fp = fingerprint_config(mutant)
        assert fp != base_fp, f"mutating {name!r} did not change the fingerprint"
        seen.add(fp)
        count += 1
    assert count >= 4, f"adversary sweep only covered {count} leaf fields"
    assert len(seen) == count + 1, "two distinct adversary mutations collided"


def test_sharding_none_and_default_do_not_collide():
    # Sharded execution is itself a cache key even though shards=1 and
    # shards=4 are byte-identical by construction: the region-factored
    # trace differs from the classic single trace, so attaching even an
    # all-defaults ShardingConfig must land in a different slot than None.
    base = tiny_config()
    with_sharding = dataclasses.replace(base, sharding=ShardingConfig())
    assert fingerprint_config(base) != fingerprint_config(with_sharding)


def test_every_sharding_knob_is_a_cache_key():
    # Same contract as the whole-tree sweep, scoped to the ShardingConfig
    # subtree (the top-level sweep can't reach it: the default is None).
    base = dataclasses.replace(tiny_config(), sharding=ShardingConfig())
    base_fp = fingerprint_config(base)
    seen = {base_fp}
    count = 0
    for name, mutant in _block_mutations(base, "sharding"):
        fp = fingerprint_config(mutant)
        assert fp != base_fp, f"mutating {name!r} did not change the fingerprint"
        seen.add(fp)
        count += 1
    assert count == len(dataclasses.fields(ShardingConfig)), \
        f"sharding sweep covered {count} leaf fields"
    assert len(seen) == count + 1, "two distinct sharding mutations collided"


def test_every_script_knob_is_a_cache_key():
    # Same contract, over every leaf of each kind of script element.
    base = dataclasses.replace(tiny_config(), script=SCRIPT)
    base_fp = fingerprint_config(base)
    seen = {base_fp}
    count = 0
    for block in ("objects", "seeders", "waves"):
        for name, inner in _dataclass_mutations(getattr(SCRIPT, block)[0]):
            script = dataclasses.replace(SCRIPT, **{block: (inner,)})
            fp = fingerprint_config(dataclasses.replace(base, script=script))
            assert fp != base_fp, f"mutating {block}.{name} did not change it"
            seen.add(fp)
            count += 1
    assert count >= 11, f"script sweep only covered {count} leaf fields"
    assert len(seen) == count + 1, "two distinct script mutations collided"


def test_script_rejects_the_blocks_that_need_a_population():
    for block in ("vod", "adversary", "sharding"):
        with pytest.raises(ValueError, match=block):
            dataclasses.replace(tiny_config(), script=SCRIPT,
                                **{block: _candidates(None, block)[0]})
    with pytest.raises(ValueError, match="placement"):
        dataclasses.replace(tiny_config(), script=SCRIPT,
                            placement=PlacementConfig())
    with pytest.raises(ValueError, match="predictive_placement"):
        dataclasses.replace(tiny_config(), script=SCRIPT,
                            predictive_placement=True)


def test_distinct_configs_same_scale_and_seed_do_not_collide():
    # Regression for the old (scale, seed)-keyed cache: two experiments
    # tweaking different knobs of the same scale/seed must never share an
    # entry (exp_fig5 vs exp_ablation_prefetch both ran "small"/42).
    base = tiny_config(seed=42)
    variant = tiny_config(seed=42, warm_copies_per_peer=0.0)
    assert base.seed == variant.seed
    assert fingerprint_config(base) != fingerprint_config(variant)


# ------------------------------------------------------------ canonicalize

def test_canonicalize_rejects_unstable_types():
    with pytest.raises(TypeError, match="canonicalize"):
        canonicalize(object())


def test_canonicalize_sorts_dict_keys():
    assert canonicalize({"b": 1, "a": 2}) == canonicalize(
        dict([("a", 2), ("b", 1)]))


def test_auto_invariant_mode_resolves_through_env(monkeypatch):
    # 'auto' is an env indirection; the fingerprint must capture the
    # resolved behaviour so strict and observe runs never share a slot.
    from repro.core.config import InvariantConfig

    auto = InvariantConfig(mode="auto")
    monkeypatch.setenv("REPRO_INVARIANTS", "strict")
    strict_fp = fingerprint_config(auto)
    monkeypatch.setenv("REPRO_INVARIANTS", "observe")
    observe_fp = fingerprint_config(auto)
    assert strict_fp != observe_fp
    assert strict_fp == fingerprint_config(InvariantConfig(mode="strict"))
    assert observe_fp == fingerprint_config(InvariantConfig(mode="observe"))


# ------------------------------------------------------- cache namespacing

def test_cache_namespace_embeds_schema_version_and_code_digest():
    ns = cache_namespace()
    assert ns.startswith(f"v{CACHE_SCHEMA_VERSION}-")
    assert ns.endswith(code_fingerprint()[:16])


def test_schema_version_bump_moves_the_namespace(monkeypatch):
    import repro.runner.fingerprint as fingerprint_module

    before = cache_namespace()
    monkeypatch.setattr(fingerprint_module, "CACHE_SCHEMA_VERSION",
                        CACHE_SCHEMA_VERSION + 1)
    assert fingerprint_module.cache_namespace() != before
