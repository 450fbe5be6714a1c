"""Unit tests for the reputation/quarantine engine (repro.adversary)."""

from __future__ import annotations

import pytest

from repro.core.config import DefenseConfig
from repro.adversary.reputation import (
    GOOD, PROBATION, QUARANTINED, ReputationEngine,
)

MB = 1024 * 1024


def engine(seed: int = 7, **overrides) -> ReputationEngine:
    return ReputationEngine(DefenseConfig(enabled=True, **overrides), seed)


class TestScoring:
    def test_contribution_earns_score(self):
        e = engine()
        e.observe("g", 0.0, delivered_bytes=10 * MB)
        assert e.score("g", 0.0) == pytest.approx(10.0, abs=1e-3)

    def test_penalties_cost_score(self):
        e = engine()
        e.observe("g", 0.0, corrupted_pieces=1, refusals=2, slow_serves=1)
        cfg = e.config
        expected = -(cfg.corruption_penalty + 2 * cfg.refusal_penalty
                     + cfg.slow_penalty)
        assert e.score("g", 0.0) == pytest.approx(expected, abs=1e-3)

    def test_score_decays_with_half_life(self):
        e = engine()
        e.observe("g", 0.0, delivered_bytes=8 * MB)
        later = e.score("g", e.config.decay_half_life)
        assert later == pytest.approx(4.0, abs=1e-3)

    def test_score_clamped_at_both_ends(self):
        e = engine()
        e.observe("hero", 0.0, delivered_bytes=10_000 * MB)
        assert e.score("hero", 0.0) == e.config.score_max
        e.observe("villain", 0.0, corrupted_pieces=1_000)
        assert e.score("villain", 0.0) == e.config.score_min

    def test_initial_jitter_is_tiny_and_deterministic(self):
        a, b = engine(seed=3), engine(seed=3)
        assert a.score("g", 0.0) == b.score("g", 0.0)
        assert 0.0 <= a.score("g", 0.0) < 1e-6
        # A different seed (or guid) lands on a different jitter.
        assert engine(seed=4).score("g", 0.0) != a.score("g", 0.0)
        assert a.score("h", 0.0) != a.score("g", 0.0)

    def test_jitter_independent_of_observation_order(self):
        a, b = engine(), engine()
        a.observe("x", 0.0)
        a.observe("y", 0.0)
        b.observe("y", 0.0)
        b.observe("x", 0.0)
        assert a.score("x", 0.0) == b.score("x", 0.0)
        assert a.score("y", 0.0) == b.score("y", 0.0)


class TestStateMachine:
    def test_quarantine_at_threshold(self):
        e = engine()
        # Default penalties: two corrupted pieces cross -10.
        assert e.observe("g", 0.0, corrupted_pieces=1) == GOOD
        assert e.observe("g", 0.0, corrupted_pieces=1) == QUARANTINED
        assert e.stats.quarantines == 1
        assert e.is_quarantined("g", 0.0)

    def test_quarantine_evicts_registrations(self):
        e = engine()
        evicted = []
        e.on_quarantine = lambda guid: evicted.append(guid) or 3
        e.observe("g", 0.0, corrupted_pieces=2)
        assert evicted == ["g"]
        assert e.stats.registrations_evicted == 3

    def test_admits_refuses_during_quarantine_window(self):
        e = engine()
        e.observe("g", 0.0, corrupted_pieces=2)
        inside = e.config.probation_interval - 1.0
        assert not e.admits("g", inside)
        assert e.peers["g"].state == QUARANTINED

    def test_probation_after_interval_then_good_on_contribution(self):
        e = engine()
        e.observe("g", 0.0, corrupted_pieces=2)
        after = e.config.probation_interval + 1.0
        assert e.admits("g", after)
        assert e.peers["g"].state == PROBATION
        assert e.stats.probations == 1
        assert not e.is_quarantined("g", after)
        # Enough verified contribution climbs back above zero -> GOOD.
        assert e.observe("g", after, delivered_bytes=10 * MB) == GOOD

    def test_probation_reoffense_requarantines(self):
        e = engine()
        e.observe("g", 0.0, corrupted_pieces=2)
        after = e.config.probation_interval + 1.0
        e.admits("g", after)
        # probation_score is -5: one corrupted piece (-8) crosses -10 again.
        assert e.observe("g", after, corrupted_pieces=1) == QUARANTINED
        assert e.stats.quarantines == 2

    def test_unknown_peer_is_good_and_admitted(self):
        e = engine()
        assert "nobody" not in e.peers  # no entry reads as GOOD
        assert e.admits("nobody", 0.0)
        assert not e.is_quarantined("nobody", 0.0)


class TestIngestAndWipe:
    def _report(self):
        from repro.core.messages import UsageReport

        return UsageReport(
            guid="downloader", cid="cid:1", cp_code=8001,
            started_at=0.0, ended_at=60.0,
            claimed_edge_bytes=0, claimed_peer_bytes=4 * MB,
            per_uploader_bytes={"up1": 4 * MB},
            per_uploader_corrupt={"bad1": 2},
            per_uploader_refusals={"lazy1": 3},
            per_uploader_slow={"slow1": 1},
        )

    def test_ingest_report_feeds_every_observation_family(self):
        e = engine()
        e.ingest_report(self._report(), 0.0)
        assert e.stats.reports_ingested == 1
        assert e.score("up1", 0.0) > 1.0
        assert e.score("bad1", 0.0) < -10.0  # 2 pieces -> quarantined
        assert e.peers["bad1"].state == QUARANTINED
        assert e.score("lazy1", 0.0) < 0.0
        assert e.score("slow1", 0.0) < 0.0

    def test_wipe_forgets_everything(self):
        e = engine()
        e.ingest_report(self._report(), 0.0)
        assert e.wipe() == 4
        assert "bad1" not in e.peers
        assert not e.is_quarantined("bad1", 0.0)
        assert list(e.entries()) == []

    def test_rank_key_orders_by_score(self):
        class Reg:
            def __init__(self, guid):
                self.guid = guid

        e = engine()
        e.observe("strong", 0.0, delivered_bytes=20 * MB)
        e.observe("weak", 0.0, refusals=4)
        key = e.rank_key(0.0)
        regs = sorted([Reg("weak"), Reg("strong")], key=key, reverse=True)
        assert [r.guid for r in regs] == ["strong", "weak"]
