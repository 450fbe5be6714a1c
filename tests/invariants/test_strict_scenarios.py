"""Strict-mode system tests: real scenarios must be sanitizer-clean.

Fast tier runs a representative drill subset; the full 13-scenario matrix
and the golden-parity run are ``slow`` (CI's slow job).  The parity test
is the load-bearing one: auditing must not move a single byte of the
fixed-seed experiment output, in *any* mode.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.experiments.common as common
from repro.core.config import InvariantConfig
from repro.faults.drill import run_drill
from repro.faults.scenarios import scenario_names
from repro.workload import run_scenario

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

STRICT = InvariantConfig(mode="strict")

#: Fast-tier subset: the §3.8 blackout, the soft-state-heavy upgrade
#: (exercises the warning path under strict), and the kitchen sink.
FAST_SCENARIOS = ("control_plane_blackout", "rolling_upgrade", "perfect_storm")


def assert_strict_clean(name):
    # Strict mode raises on the first error, so merely returning is the
    # assertion; the explicit check guards the counters too.
    report = run_drill(name, 42, invariants=STRICT)
    assert report.invariants["mode"] == "strict"
    assert report.invariants["errors"] == 0
    assert report.invariants["final_audits"] == 1


@pytest.mark.parametrize("name", FAST_SCENARIOS)
def test_strict_drill_clean_fast_subset(name):
    assert_strict_clean(name)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [n for n in scenario_names() if n not in FAST_SCENARIOS])
def test_strict_drill_clean_full_matrix(name):
    assert_strict_clean(name)


def test_rolling_upgrade_warnings_do_not_fail_strict():
    # The upgrade leaves stale CN connected-table entries behind — the
    # tolerated soft-state drift the severity model exists for.
    report = run_drill("rolling_upgrade", 3, invariants=STRICT)
    assert report.invariants["errors"] == 0
    assert report.invariants["warnings"] > 0


@pytest.mark.slow
def test_strict_golden_parity(monkeypatch):
    """exp_table1/exp_fig4 output is byte-identical under strict auditing."""
    from repro.experiments import run_experiment

    import dataclasses

    config = common.standard_config("small", 42)
    strict_config = dataclasses.replace(
        config, system=config.system.with_invariants(mode="strict"))
    result = run_scenario(strict_config)
    assert result.system.auditor.mode == "strict"
    assert result.system.auditor.stats.errors == 0
    # Serve the strict-mode run to the experiment renderers: inject it into
    # the artifact store under the *standard* config's fingerprint, so the
    # renderers' lookups hit it (a deliberate cache poisoning — the point
    # is that strict auditing must not have moved a byte).
    from repro.runner import artifact_from_result, fingerprint_config

    fp = fingerprint_config(config)
    monkeypatch.setitem(common._ARTIFACTS, fp,
                        artifact_from_result(result, fingerprint=fp))
    for name in ("exp_table1", "exp_fig4"):
        expected = (GOLDEN_DIR / f"{name}_small_seed42.txt").read_text()
        assert run_experiment(name, "small", 42).text == expected
