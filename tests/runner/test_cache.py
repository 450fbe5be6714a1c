"""On-disk result cache correctness: hits are deep-equal, corruption is
detected (never served), version bumps invalidate, eviction respects LRU."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.runner import (
    ResultCache, cache_namespace, event_digest, fingerprint_config,
    record_digest,
)

pytestmark = pytest.mark.runner


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_on_empty_cache(self, cache):
        assert cache.get("0" * 64) is None

    def test_hit_is_deep_equal(self, cache, tiny_artifact):
        cache.put(tiny_artifact.fingerprint, tiny_artifact)
        loaded = cache.get(tiny_artifact.fingerprint)
        assert loaded is not None
        assert loaded is not tiny_artifact  # a real disk round trip
        assert loaded.fingerprint == tiny_artifact.fingerprint
        assert loaded.config == tiny_artifact.config
        assert record_digest(loaded) == record_digest(tiny_artifact)
        assert event_digest(loaded) == event_digest(tiny_artifact)
        assert loaded.timeline == tiny_artifact.timeline
        assert loaded.violations == tiny_artifact.violations

    def test_fingerprint_matches_config(self, cache, tiny_artifact):
        assert tiny_artifact.fingerprint == fingerprint_config(
            tiny_artifact.config)

    def test_no_temp_files_left_behind(self, cache, tiny_artifact):
        cache.put(tiny_artifact.fingerprint, tiny_artifact)
        leftovers = [p for p in cache.root.rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestCorruption:
    def test_truncated_payload_degrades_to_miss(self, cache, tiny_artifact):
        path = cache.put(tiny_artifact.fingerprint, tiny_artifact)
        path.write_bytes(path.read_bytes()[:100])
        assert cache.get(tiny_artifact.fingerprint) is None
        # The corrupt entry was dropped, so the slot rebuilds cleanly.
        assert cache.entries() == []

    def test_bitflip_degrades_to_miss(self, cache, tiny_artifact):
        path = cache.put(tiny_artifact.fingerprint, tiny_artifact)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        assert cache.get(tiny_artifact.fingerprint) is None

    def test_verify_reports_digest_mismatch(self, cache, tiny_artifact):
        path = cache.put(tiny_artifact.fingerprint, tiny_artifact)
        assert cache.verify() == []
        payload = bytearray(path.read_bytes())
        payload[0] ^= 0xFF
        path.write_bytes(bytes(payload))
        problems = cache.verify()
        assert problems == [(tiny_artifact.fingerprint, "digest mismatch")]
        # verify() is diagnostic only: the entry is still on disk.
        assert path.exists()

    def test_verify_reports_missing_payload(self, cache, tiny_artifact):
        path = cache.put(tiny_artifact.fingerprint, tiny_artifact)
        path.unlink()
        assert cache.verify() == [(tiny_artifact.fingerprint,
                                   "missing payload")]


class TestInvalidation:
    def test_schema_version_bump_invalidates(self, cache, tiny_artifact,
                                             monkeypatch):
        import repro.runner.fingerprint as fingerprint_module

        cache.put(tiny_artifact.fingerprint, tiny_artifact)
        monkeypatch.setattr(fingerprint_module, "CACHE_SCHEMA_VERSION",
                            fingerprint_module.CACHE_SCHEMA_VERSION + 1)
        bumped = ResultCache(cache.root)  # namespace resolves at init
        assert bumped.namespace != cache.namespace
        assert bumped.get(tiny_artifact.fingerprint) is None
        # The old entry survives on disk (a branch switch can come back to
        # it) and is flagged stale in the full listing.
        entries = bumped.entries(all_namespaces=True)
        assert [e.stale for e in entries] == [True]

    def test_clear_removes_everything(self, cache, tiny_artifact):
        cache.put(tiny_artifact.fingerprint, tiny_artifact)
        assert cache.clear() == 1
        assert cache.get(tiny_artifact.fingerprint) is None
        assert cache.entries(all_namespaces=True) == []


class TestEviction:
    def _fakes(self, tiny_artifact, n):
        """Distinct fingerprints around one payload (content is irrelevant
        to eviction order)."""
        return [(f"{i:02d}" + "e" * 62,
                 dataclasses.replace(tiny_artifact,
                                     fingerprint=f"{i:02d}" + "e" * 62))
                for i in range(n)]

    def test_lru_eviction_past_entry_budget(self, tmp_path, tiny_artifact):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        fakes = self._fakes(tiny_artifact, 3)
        for fp, artifact in fakes:
            cache.put(fp, artifact)
        kept = {e.fingerprint for e in cache.entries()}
        assert len(kept) == 2
        assert fakes[0][0] not in kept  # oldest last_used went first

    def test_get_refreshes_lru_rank(self, tmp_path, tiny_artifact):
        cache = ResultCache(tmp_path / "cache", max_entries=2)
        fakes = self._fakes(tiny_artifact, 3)
        cache.put(*fakes[0])
        cache.put(*fakes[1])
        assert cache.get(fakes[0][0]) is not None  # touch: now most recent
        cache.put(*fakes[2])
        kept = {e.fingerprint for e in cache.entries()}
        assert fakes[0][0] in kept
        assert fakes[1][0] not in kept

    def test_byte_budget_eviction(self, tmp_path, tiny_artifact):
        payload_size = len(pickle.dumps(tiny_artifact,
                                        protocol=pickle.HIGHEST_PROTOCOL))
        cache = ResultCache(tmp_path / "cache",
                            max_bytes=int(payload_size * 1.5))
        fakes = self._fakes(tiny_artifact, 2)
        for fp, artifact in fakes:
            cache.put(fp, artifact)
        assert len(cache.entries()) == 1

    def test_budgets_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)


class TestNamespaceLayout:
    def test_entries_live_under_the_active_namespace(self, cache,
                                                     tiny_artifact):
        path = cache.put(tiny_artifact.fingerprint, tiny_artifact)
        assert cache_namespace() in path.parts
        assert path.parent.name == tiny_artifact.fingerprint[:2]
