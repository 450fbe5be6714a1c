"""Tests for catalog synthesis."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from tests.conftest import env_with_src

from repro.workload.catalog import (
    LARGE_SIZE_RANGE, P2P_PROVIDER_THRESHOLD, PAPER_CUSTOMERS,
    SMALL_SIZE_RANGE, Catalog, CatalogConfig, build_catalog,
)

MB = 1024 * 1024


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(random.Random(1), CatalogConfig())


class TestStructure:
    def test_ten_providers(self, catalog):
        assert len(catalog.providers) == 10

    def test_objects_per_provider(self, catalog):
        cfg = CatalogConfig()
        for provider in catalog.providers:
            assert len(catalog.by_provider[provider.cp_code]) == cfg.objects_per_provider

    def test_table4_rates_applied(self, catalog):
        rates = {p.name: p.upload_default_rate for p in catalog.providers}
        assert rates["Customer D"] == 0.94
        assert rates["Customer A"] == 0.005

    def test_region_mixes_normalised(self, catalog):
        for provider in catalog.providers:
            assert sum(provider.region_mix.values()) == pytest.approx(1.0)

    def test_customer_f_is_europe_only(self, catalog):
        f = next(p for p in catalog.providers if p.name == "Customer F")
        assert set(f.region_mix) == {"Europe"}


class TestP2PGating:
    def test_download_manager_only_providers_have_no_p2p(self, catalog):
        """Providers with ~0 upload defaults use NetSession as a pure DLM."""
        p2p_cps = {o.provider.cp_code for o in catalog.p2p_objects()}
        for index, (name, rate, _mix) in enumerate(PAPER_CUSTOMERS):
            cp = 1001 + index
            if rate < P2P_PROVIDER_THRESHOLD:
                assert cp not in p2p_cps, name

    def test_global_p2p_file_fraction_near_target(self, catalog):
        frac = len(catalog.p2p_objects()) / len(catalog.objects)
        assert frac == pytest.approx(0.017, abs=0.01)

    def test_p2p_objects_are_large(self, catalog):
        for obj in catalog.p2p_objects():
            assert obj.size >= LARGE_SIZE_RANGE[0]

    def test_small_objects_within_range(self, catalog):
        for obj in catalog.objects:
            if not obj.p2p_enabled:
                assert obj.size <= SMALL_SIZE_RANGE[1] * 1.01


class TestSampling:
    def test_popularity_weights_decrease_with_rank(self, catalog):
        for provider in catalog.providers:
            weights = catalog.provider_weights(provider.cp_code)
            assert weights == sorted(weights, reverse=True)

    def test_head_sampled_more_than_tail(self, catalog):
        rng = random.Random(3)
        provider = catalog.providers[0]
        objects = catalog.by_provider[provider.cp_code]
        counts = {o.cid: 0 for o in objects}
        weights = catalog.provider_weights(provider.cp_code)
        for _ in range(2000):
            pick = rng.choices(objects, weights=weights, k=1)[0]
            counts[pick.cid] += 1
        assert counts[objects[0].cid] > counts[objects[-1].cid]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CatalogConfig(objects_per_provider=0)
        with pytest.raises(ValueError):
            CatalogConfig(p2p_enabled_fraction=1.5)


class TestP2PBudget:
    @pytest.mark.parametrize("fraction", [0.6, 1.0])
    def test_fractions_above_one_half_terminate(self, fraction):
        # Half the paper's customers use p2p, so each one's budget is about
        # 2n*f ranks; above f = 0.5 that exceeds the n ranks there are,
        # and the rank draw used to loop forever.  Built in a subprocess
        # so a regression fails on the timeout instead of hanging.
        script = (
            "import random\n"
            "from repro.workload.catalog import CatalogConfig, build_catalog\n"
            "cat = build_catalog(random.Random(1), CatalogConfig("
            f"objects_per_provider=60, p2p_enabled_fraction={fraction}))\n"
            "print(len(cat.p2p_objects()))\n")
        done = subprocess.run([sys.executable, "-c", script], timeout=30,
                              capture_output=True, text=True,
                              env=env_with_src())
        assert done.returncode == 0, done.stderr
        # Every rank of the five p2p-using providers is p2p-enabled.
        assert int(done.stdout) == 5 * 60

    def test_full_head_bias_is_refused(self):
        # At bias 1.0 every rank came from the head window (the top 5%),
        # so a budget larger than that window never filled and
        # build_catalog never returned.
        with pytest.raises(ValueError, match="p2p_head_bias"):
            CatalogConfig(p2p_head_bias=1.0)

    def test_near_full_head_bias_terminates(self):
        # The config that hung at 1.0, one step inside the interval.
        script = (
            "import random\n"
            "from repro.workload.catalog import CatalogConfig, build_catalog\n"
            "cat = build_catalog(random.Random(1), CatalogConfig("
            "objects_per_provider=100, p2p_enabled_fraction=0.05, "
            "p2p_head_bias=0.99))\n"
            "print(len(cat.p2p_objects()))\n")
        done = subprocess.run([sys.executable, "-c", script], timeout=30,
                              capture_output=True, text=True,
                              env=env_with_src())
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 0
