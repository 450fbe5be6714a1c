"""The experiment rows and their paper-shape checks.

Every row must render output and its advertised metrics on the small
scale, and those metrics must hold the paper's qualitative shape — who
wins, what rises with what, where the skew is.  ``SHAPES`` holds that check
once per experiment; the rows in ``HEAVY`` plan extra scenarios of their
own and are ``slow``.  The scenario cache in ``experiments.common`` makes
the light entries cost one small simulation.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

import pytest

import repro.experiments
from repro.experiments import (
    EXPERIMENTS, Experiment, ExperimentOutput, common, run_experiment,
    standard_config,
)
from repro.experiments.common import SCALES

#: Experiments that run extra scenarios of their own (``slow``).
HEAVY = {"exp_baselines", "exp_ablation_locality", "exp_ablation_backstop",
         "exp_ablation_prefetch", "exp_fig5", "exp_lan_updates",
         "exp_mobility", "exp_fig12", "exp_fault_matrix",
         "exp_vod_policies"}

#: Experiment name -> assertions on its small-scale, seed-42 metrics.
SHAPES: dict[str, Callable[[dict], None]] = {}


def shape(name: str):
    """Register the decorated function as ``SHAPES[name]``."""
    def register(check: Callable[[dict], None]) -> Callable[[dict], None]:
        SHAPES[name] = check
        return check
    return register


@shape("exp_table1")
def _table1(m):
    assert m["ips_per_guid"] > 1.0       # IPs outnumber GUIDs
    assert m["countries"] >= 20
    assert m["downloads"] > 0


@shape("exp_table2")
def _table2(m):
    # Regional mixes should track Table 2 within a few percentage points.
    assert m["mean_abs_error_pp"] < 8.0


@shape("exp_table3")
def _table3(m):
    # ">99% of the peers keep their initial setting"
    assert m["keep_initial_fraction"] > 0.97


@shape("exp_table4")
def _table4(m):
    assert m["mean_abs_error_pp"] < 15.0


@shape("exp_fig2")
def _fig2(m):
    # Figure 2: Europe ~35%, North America ~27% of peers.
    assert 0.20 <= m["europe_share"] <= 0.50
    assert 0.10 <= m["north_america_share"] <= 0.40
    assert m["locations"] > 30


@shape("exp_fig3")
def _fig3(m):
    # (a) p2p requests biased large; (b) power law; (c) diurnal swing.
    assert m["p2p_large_request_fraction"] > 0.6
    assert m["popularity_slope"] < -0.4
    assert m["diurnal_peak_to_trough"] > 1.5


@shape("exp_fig4")
def _fig4(m):
    # Peer-assisted downloads run at the same order of magnitude as
    # edge-only ones — somewhat slower in the paper; at small scale the
    # pooled ratio just has to stay in a sane band, with both classes at
    # multiple Mbps.
    assert 0.2 < m["median_speed_ratio_p2p_over_edge"] < 2.0
    assert m["median_edge_mbps"] > 1.0
    assert m["median_p2p_mbps"] > 1.0


@shape("exp_fig5")
def _fig5(m):
    # Efficiency rises with registered copies.
    assert m["monotone_gain"] > 0.1
    assert m["high_copy_efficiency"] > 0.5


@shape("exp_fig6")
def _fig6(m):
    # Zero candidates -> zero efficiency; tens of candidates -> high.
    assert m["zero_peer_efficiency"] < 0.05
    assert m["saturation_efficiency"] > 0.6


@shape("exp_fig7")
def _fig7(m):
    # Larger downloads are terminated more often.
    assert m["monotone_gap"] > 0.0
    assert m["small_file_pause_rate"] < 0.05


@shape("exp_fig8")
def _fig8(m):
    assert m["countries"] >= 3


@shape("exp_fig9")
def _fig9(m):
    # Heavy-tailed upload distribution; some intra-AS traffic.
    assert m["heavy_as_share"] < 0.6
    assert m["observed_ases"] > 20


@shape("exp_fig10")
def _fig10(m):
    # Heavy uploaders are the balanced ones.
    assert m["heavy_mean_imbalance"] <= m["light_mean_imbalance"] + 0.3


@shape("exp_fig11")
def _fig11(m):
    # Heavy-uploader AS pairs exist and trade roughly evenly.
    assert m["pairs"] > 0
    assert m["mean_pair_imbalance"] < 2.0


@shape("exp_fig12")
def _fig12(m):
    # A small minority of installations show rollback trees.
    assert 0.0 < m["nonlinear_fraction"] < 0.08
    assert m["linear_fraction"] > 0.9


@shape("exp_offload")
def _offload(m):
    # §5.1: a small file fraction carries an outsized byte share, and
    # peer-assisted downloads get most bytes from peers.
    assert m["p2p_file_fraction"] < 0.05
    assert m["p2p_byte_share"] > 5 * m["p2p_file_fraction"]
    assert m["mean_peer_efficiency"] > 0.5
    assert m["byte_weighted_efficiency"] > 0.5


@shape("exp_reliability")
def _reliability(m):
    # §5.2: both classes complete the vast majority; p2p pauses more.
    assert m["infra_completed"] > 0.9
    assert m["p2p_completed"] > 0.75
    assert m["p2p_aborted"] >= m["infra_aborted"]


@shape("exp_mobility")
def _mobility(m):
    # §6.2: ~80% single-AS, ~77% within 10 km.
    assert 0.6 <= m["one_as"] <= 0.95
    assert 0.5 <= m["within_10km"] <= 0.95
    assert m["two_as"] > m["more_as"] * 0.5


@shape("exp_baselines")
def _baselines(m):
    # The design-space contrast: only the hybrid offloads while keeping
    # infrastructure-grade completion.
    assert m["infra_offload"] == 0.0
    assert m["hybrid_offload"] > 0.15
    assert m["hybrid_completion"] > 0.85


@shape("exp_ablation_locality")
def _ablation_locality(m):
    # Locality-aware selection keeps traffic local at every radius.
    assert m["locality_gain"] > 0.02
    assert m["locality_aware_intra_region"] > m["random_intra_region"] + 0.2


@shape("exp_ablation_backstop")
def _ablation_backstop(m):
    # Disabling the backstop policy reduces offload.
    assert m["backstop_on_efficiency"] >= m["backstop_off_efficiency"]


@shape("exp_lan_updates")
def _lan_updates(m):
    # LAN sites keep update bytes in the building and speed up the push.
    assert m["lan_site_local"] > 0.5
    assert m["nolan_site_local"] == 0.0
    assert m["lan_median_minutes"] <= m["nolan_median_minutes"]
    assert m["lan_offload"] > 0.5


@shape("exp_ablation_prefetch")
def _ablation_prefetch(m):
    # Prefetching hot objects into thin regions helps a cold start.
    assert m["placement_gain"] > 0.0
    assert m["cold_prefetch_gb"] == 0.0
    assert m["placement_prefetch_gb"] > 0.0


@shape("exp_managed_swarm")
def _managed_swarm(m):
    # Coordinated seeding must not lose to the naive equal split.
    assert m["managed_completed"] >= m["equal_split_completed"]
    if m["managed_completed"] == m["equal_split_completed"]:
        assert (m["managed_mean_minutes"]
                <= m["equal_split_mean_minutes"] * 1.10)


@shape("exp_fault_matrix")
def _fault_matrix(m):
    # The baseline window is healthy, per the §5.2 outcome numbers.
    assert m["baseline_completed"] >= 0.9
    # A total control-plane blackout visibly hurts: downloads in the fault
    # window complete less often or fall back to edge-only delivery.
    assert (m["control_plane_blackout_completion_delta"] < 0
            or m["control_plane_blackout_fallback_delta"] > 0)
    # Faults that only degrade the data path must not break completion.
    assert m["edge_brownout_completed"] >= 0.9
    assert m["churn_storm_completed"] >= 0.9


@shape("exp_blackout_recovery")
def _blackout_recovery(m):
    # §3.8: every tripped peer is back in hybrid within one probe interval.
    assert m["all_within_probe_interval"] == 1.0
    assert m["during_with_peer_bytes"] > 0
    assert m["degraded_seconds"] > 0


@shape("exp_vod_policies")
def _vod_policies(m):
    # Unrestricted peer serving crosses transit at peak, the infra-only
    # CDN offloads nothing, and keeping peers ISP-local never adds transit.
    assert m["unrestricted_peak_transit_bytes"] > 0
    assert m["infra_cdn_offload"] == 0.0
    assert m["isp_local_transit_saving_bytes"] >= 0


@shape("exp_adversarial_resilience")
def _adversarial_resilience(m):
    # Defense-on keeps >= 90% of the clean offload at 10% adversaries, and
    # the edge-log cross-check accepts no inflated usage report.
    assert m["retention_f10_on"] >= 0.90
    assert m["inflated_accepted_total"] == 0
    assert "fp_ban_rate_f10_on" in m
    assert m["corrupted_mb_f10_off"] > 0


@shape("exp_device_tiers")
def _device_tiers(m):
    # The always-on smartrouter tier captures more peer bytes than its
    # population share; class ranking shifts the Fig 4 p2p median.
    assert m["router_capture_ratio"] > 1.0
    assert m["fig4_p2p_median_shift"] > 0.0
    assert m["offload_baseline"] > 0.0
    assert m["router_pop_share_tiers"] > 0.0


class TestScales:
    def test_known_scales_resolve(self):
        for scale in ("small", "standard", "mobility"):
            cfg = standard_config(scale)
            assert cfg.population.n_peers > 0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            standard_config("galactic")

    def test_result_cached_per_scale_and_seed(self):
        a = common._RUNNER.result(standard_config("small", 42))
        b = common._RUNNER.result(standard_config("small", 42))
        assert a is b


class TestRegistry:
    def test_every_module_is_registered_once(self):
        """Every row a module under ``repro/experiments`` defines is in the
        table exactly once, and every module but the shared ones and the
        ``repro scale`` driver defines a row."""
        package = Path(repro.experiments.__file__).parent
        defined = set()
        for path in sorted(package.glob("*.py")):
            if path.stem in ("__init__", "common", "exp_scale"):
                continue
            module = sys.modules[f"repro.experiments.{path.stem}"]
            rows = [v for v in vars(module).values()
                    if isinstance(v, Experiment)]
            assert rows, f"{path.name} defines no row"
            defined.update(id(row) for row in rows)
        registered = [id(row) for row in EXPERIMENTS.values()]
        assert len(registered) == len(set(registered))
        assert set(registered) == defined

    def test_every_experiment_has_a_shape(self):
        assert set(SHAPES) == set(EXPERIMENTS)

    def test_effective_scale(self):
        pinned = {name: row.scale for name, row in EXPERIMENTS.items()
                  if row.scale is not None}
        assert pinned == {"exp_fig12": "mobility", "exp_mobility": "mobility"}
        for name, row in EXPERIMENTS.items():
            for scale in SCALES:
                assert row.scale_for(scale) == pinned.get(name, scale)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in HEAVY else name
    for name in EXPERIMENTS
])
def test_runner_produces_output(name):
    out = run_experiment(name, "small", 42)
    assert isinstance(out, ExperimentOutput)
    assert out.name == name.removeprefix("exp_")
    assert len(out.text) > 40
    assert out.metrics
    for key, value in out.metrics.items():
        assert isinstance(value, (int, float)), key
    SHAPES[name](out.metrics)
