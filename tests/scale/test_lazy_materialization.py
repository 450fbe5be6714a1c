"""Lazy-materialization edge cases: faults, adversaries, and defense on
dormant peers.

The dangerous paths are the ones that reach *around* the demand loop and
touch peers directly — fault injectors, adversarial infestation, the
reputation/quarantine engine.  Each must either be served by dormant
column reads or transparently materialize, and a strict invariant audit
must stay clean throughout.
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryConfig
from repro.core.config import DefenseConfig, SystemConfig
from repro.faults.spec import AdversarialInfestation, RegionPartition
from repro.workload import PopulationConfig
from repro.workload.scenario import run_scenario

from tests.scale.conftest import build_store_world, tiny_scenario

pytestmark = pytest.mark.scale

HOUR = 3600.0


class TestDormantReadsAndRelease:
    def test_dormant_reads_do_not_materialize(self):
        _, _, pop = build_store_world("columnar", seed=3, n_peers=12)
        store = pop.store
        for peer in pop.iter_peers():
            peer.guid, peer.network_region, peer.online, peer.boot_count
        assert store.materialized_count() == 0
        assert store.peak_materialized == 0

    def test_setattr_materializes(self):
        _, _, pop = build_store_world("columnar", seed=3, n_peers=12)
        store = pop.store
        handle = store.handle(0)
        handle.uploads_enabled = False
        assert store.materialized_count() == 1
        assert store.peak_materialized == 1

    def test_peak_materialized_tracks_high_water_mark(self):
        _, _, pop = build_store_world("columnar", seed=3, n_peers=12)
        store = pop.store
        nodes = [store.materialize(i) for i in range(5)]
        # Materializing is idempotent: a second touch adds no node.
        assert store.materialize(0) is nodes[0]
        assert store.materialized_count() == 5
        assert store.peak_materialized == 5


class TestFaultsOnDormantPeers:
    def test_region_partition_strict_with_dormant_peers(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        cfg = tiny_scenario(
            seed=9,
            population=PopulationConfig(n_peers=120),
            faults=(
                RegionPartition(
                    "partition", start=2 * HOUR, duration=3 * HOUR,
                    region="eu",
                ),
            ),
        )
        result = run_scenario(cfg)
        assert not result.system.auditor.violations
        # The sweep read network_region dormantly on everyone; only the
        # affected region (plus demand-touched peers) came into existence.
        store = result.population.store
        assert 0 < store.materialized_count() <= len(store)

    def test_adversarial_infestation_on_dormant_peers_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        cfg = tiny_scenario(
            seed=9,
            population=PopulationConfig(n_peers=120),
            faults=(
                AdversarialInfestation(
                    "infest", start=1 * HOUR, duration=6 * HOUR,
                    fraction=0.1, profile="free_rider",
                ),
            ),
        )
        result = run_scenario(cfg)
        assert not result.system.auditor.violations
        # Victims were drawn from the full universe (dormant included) and
        # recorded as ground truth even after the cleanup reverted them.
        assert result.system.adversary_truth
        assert set(result.system.adversary_truth.values()) == {"free_rider"}

    def test_defense_engine_with_lazy_peers_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        cfg = tiny_scenario(
            seed=21,
            population=PopulationConfig(n_peers=120),
            adversary=AdversaryConfig(fraction=0.15),
            system=SystemConfig(defense=DefenseConfig(enabled=True)),
        )
        result = run_scenario(cfg)
        assert not result.system.auditor.violations
        assert result.system.control.reputation is not None


class TestActivePeerCap:
    def test_capped_run_stays_clean_and_mostly_dormant(self, monkeypatch):
        # With a cap, only a seeded subset gets boot schedules; everyone
        # else exists as columns until demand summons them.  The run must
        # stay strict-clean and never materialize the whole population.
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        from repro.workload import DemandConfig

        cfg = tiny_scenario(
            seed=13,
            duration_days=0.25,
            population=PopulationConfig(n_peers=200, active_peer_cap=20),
            demand=DemandConfig(total_downloads=40, duration_days=0.25),
        )
        result = run_scenario(cfg)
        assert not result.system.auditor.violations
        store = result.population.store
        assert store.peak_materialized < len(store)
        assert result.logstore.downloads
