"""Experiment text and traces must not depend on ``PYTHONHASHSEED``.

``Torrent.seeders`` was a ``set`` of peers hashed by name (a str hash), and
``exp_fig8`` printed a ``Counter`` in first-seen order of a set walk: both
leaked the interpreter's hash seed into rendered numbers.  A scenario's
record and event digests must hold still across hash seeds too.  The hash
seed is fixed at interpreter start, so each check runs in fresh
subprocesses.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import env_with_src

#: The two experiments' cores at toy size: a BitTorrent-like swarm where
#: finished leechers join the seeder set, the managed/equal-split stage of
#: ``exp_managed_swarm``, and ``exp_fig8``'s render fed a hand-made
#: artifact whose log holds all three contribution classes.
_CORE = """
from types import SimpleNamespace

from repro.analysis.logstore import LogStore
from repro.analysis.records import DownloadRecord
from repro.baselines.p2p_cdn import P2PPeer, PureP2PSwarm
from repro.experiments import exp_managed_swarm, paper
from repro.net.geo import GeoDatabase, GeoRecord

swarm = PureP2PSwarm(seed=3)
seeds = [P2PPeer(f"seed{i}", up_bps=(2 + i) * 1e5, down_bps=1e7)
         for i in range(5)]
torrent = swarm.add_torrent("t", 60e6, seeds)
for i in range(12):
    swarm.start_download(
        torrent, P2PPeer(f"leech{i}", up_bps=(1 + i % 4) * 1e5, down_bps=4e6))
for _ in range(4):
    swarm.run(600.0)
    print([p.name for p in torrent.members()])
print([(n, d.end_time, d.received) for n, d in torrent.downloads.items()])

for policy in ("managed", "equal_split"):
    system = exp_managed_swarm._build(policy, 42)
    system.run(1800.0)
    print(policy, system.aggregate_stats())

geodb, store = GeoDatabase(), LogStore()
shares = {"DE": 90, "KE": 10, "BR": 60, "US": 95, "IN": 5, "JP": 40,
          "FR": 80, "PL": 20, "VN": 45}
for n, (cc, edge) in enumerate(shares.items()):
    geodb.register(cc, GeoRecord(cc, "X", "c", 0, 0, "UTC", "i", n))
    store.add_download(DownloadRecord(
        guid=f"g{n}", url="u", cid="c", cp_code=1004, size=100,
        started_at=0.0, ended_at=1.0, edge_bytes=edge, peer_bytes=100 - edge,
        p2p_enabled=True, outcome="completed", ip=cc))
print(paper.fig8([SimpleNamespace(logstore=store, geodb=geodb)], 42).text)
"""


#: Print both halves of a scenario's trace digest (``repro.runner.digest``)
#: for the ``config`` that ``{setup}`` defines.
_HALVES = """
from repro.runner import event_digest, record_digest, run_scenario_artifact
{setup}
artifact = run_scenario_artifact(config)
print(record_digest(artifact), event_digest(artifact))
"""


def _stdout(argv: list[str], hash_seed: int) -> str:
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1],
                          env=env_with_src(PYTHONHASHSEED=str(hash_seed)))
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_swarm_and_fig8_cores_ignore_the_hash_seed():
    a, b = (_stdout(["-c", _CORE], seed) for seed in (0, 1))
    assert "peers_half" in a and "leech11" in a
    assert a == b


@pytest.mark.parametrize("setup", [
    pytest.param("from tests.scale.conftest import tiny_scenario\n"
                 "config = tiny_scenario()", id="tiny"),
    pytest.param("from tests.test_golden_parity import _streaming_configs\n"
                 "config = _streaming_configs()['busy']",
                 marks=pytest.mark.slow, id="streaming-busy"),
    # Fuzz draws: VoD under popularity seeding on the balanced device
    # mix, and four region shards that also stream on a device mix.
    pytest.param("from repro.fuzz import generate\nconfig = generate(20)",
                 id="fuzz-vod-devices"),
    pytest.param("from repro.fuzz import generate\nconfig = generate(3)",
                 id="fuzz-sharded"),
])
def test_trace_digests_ignore_the_hash_seed(setup):
    script = _HALVES.format(setup=setup)
    outputs = {_stdout(["-c", script], seed) for seed in (0, 1, 2)}
    assert len(outputs) == 1
    assert len(outputs.pop().split()) == 2


@pytest.mark.slow
@pytest.mark.parametrize("experiment", ["exp_managed_swarm", "exp_fig8"])
def test_experiment_text_ignores_the_hash_seed(experiment):
    argv = ["-m", "repro", "run", experiment, "--scale", "small", "--no-cache"]
    texts = {_stdout(argv, seed) for seed in (0, 1, 2)}
    assert len(texts) == 1
