"""Engines are not settings: the retired switches stay retired.

The population store, the flow-settlement policy and the shard width's
``"auto"`` indirection used to be selectable (config fields, constructor
arguments, ``REPRO_*`` variables).  Each now has one production path, with
the old alternative kept as a test oracle (``tests/scale/conftest.py``,
``tests/net/reference_engine.py``).  These tests pin that nothing under
``src/`` answers to the old names, and that no new environment switch can
be added without editing the allow-list below.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import pytest

import repro
from repro import fuzz
from repro.core.config import SystemConfig
from repro.net.flows import FlowNetwork
from repro.net.sim import Simulator
from repro.runner import (
    event_digest, fingerprint_config, record_digest, run_scenario_artifact,
)
from repro.vod.config import VodConfig
from repro.workload import PopulationConfig
from repro.workload.sharding import ShardingConfig

from tests.scale.conftest import tiny_scenario

#: The only variables ``src/repro`` may read: the one documented override
#: CI uses, and a deployment path.
ALLOWED_ENV = {"REPRO_INVARIANTS", "REPRO_CACHE_DIR"}


def test_retired_arguments_are_rejected():
    with pytest.raises(TypeError):
        PopulationConfig(store="object")
    with pytest.raises(TypeError):
        SystemConfig(flow_batching=False)
    with pytest.raises(TypeError):
        FlowNetwork(Simulator(), batching=False)
    with pytest.raises(ValueError, match="positive int"):
        ShardingConfig(shards="auto")
    # Leaves nothing set, now module constants (the reconcile pass always
    # runs; the startup buffer is ``start_streaming``'s default).
    with pytest.raises(TypeError):
        ShardingConfig(reconcile=False)
    with pytest.raises(TypeError):
        VodConfig(startup_buffer_s=5.0)
    with pytest.raises(TypeError):
        VodConfig(max_prefetches_per_tick=2)
    assert fingerprint_config(ShardingConfig()) == \
        fingerprint_config(ShardingConfig(shards=2))


def test_retired_env_vars_change_nothing(monkeypatch):
    cfg = tiny_scenario(sharding=ShardingConfig())
    fingerprint = fingerprint_config(cfg)
    before = run_scenario_artifact(cfg)
    monkeypatch.setenv("REPRO_POPULATION_STORE", "object")
    monkeypatch.setenv("REPRO_SHARDS", "7")
    assert fingerprint_config(cfg) == fingerprint
    artifact = run_scenario_artifact(cfg)
    assert record_digest(artifact) == record_digest(before)
    assert event_digest(artifact) == event_digest(before)
    assert artifact.sharding["shards"] == 2


def test_fuzz_seed_stream_is_pinned():
    """Pins the current seed stream: ``repr(generate(s))`` for s in 0…29.
    Anything that moves this digest is a stream bump to document in
    ``generate``: a new draw, a reordered draw, or a changed default of a
    leaf the fuzzer leaves alone.  Re-recorded three times without a
    stream bump, when ``ScenarioConfig`` gained ``script`` and 29 leaves
    nothing set became module constants, when 28 more did, and when the
    last three (``sharding.reconcile``, ``vod.startup_buffer_s``,
    ``vod.max_prefetches_per_tick``) did: each time every shared leaf and
    every ``run_spec`` digest stayed equal."""
    rows = [repr(fuzz.generate(seed)) for seed in range(30)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "263859c1d009c76b6ae336dc1995d068718667b82774564a6af4a7325c50fea9"


# ------------------------------------------------------------------ the guard

def _environ_reads(tree: ast.AST):
    """``(lineno, key or None)`` for every read of the process environment:
    ``os.environ[...]``, ``os.environ.get/pop/setdefault(...)``,
    ``os.getenv(...)`` and a bare ``os.environ`` handed elsewhere."""
    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    def key_of(node):
        return node.value if isinstance(node, ast.Constant) else None

    claimed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if is_environ(func.value) or func.attr == "getenv":
                claimed.add(id(func.value))
                yield node.lineno, key_of(node.args[0]) if node.args else None
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            claimed.add(id(node.value))
            yield node.lineno, key_of(node.slice)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield node.lineno, None
    for node in ast.walk(tree):
        if is_environ(node) and id(node) not in claimed:
            yield node.lineno, None


def test_src_reads_only_the_allowed_environment_variables():
    root = Path(repro.__file__).resolve().parent
    seen, offenders = set(), []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, key in _environ_reads(tree):
            seen.add(key)
            if key not in ALLOWED_ENV:
                offenders.append(f"{path.relative_to(root)}:{lineno}: {key!r}")
    assert not offenders, (
        "environment reads outside the allow-list (an engine is not a "
        "setting; make it a config field or a test oracle):\n  "
        + "\n  ".join(offenders))
    assert seen == ALLOWED_ENV


def test_the_guard_sees_every_spelling():
    source = (
        "import os\nfrom os import getenv\n"
        "a = os.environ.get('REPRO_A')\nb = os.environ['REPRO_B']\n"
        "c = os.getenv('REPRO_C')\nd = dict(os.environ)\n"
        "e = os.environ.get(name)\n")
    found = sorted(_environ_reads(ast.parse(source)), key=str)
    assert found == sorted([
        (2, None), (3, "REPRO_A"), (4, "REPRO_B"), (5, "REPRO_C"),
        (6, None), (7, None)], key=str)
