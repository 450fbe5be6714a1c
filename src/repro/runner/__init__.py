"""repro.runner — deterministic process-parallel experiment orchestration.

Six pieces, layered:

* :mod:`~repro.runner.fingerprint` — content hashes for configs and code;
* :mod:`~repro.runner.artifact` — the picklable scenario projection that
  crosses process and disk boundaries;
* :mod:`~repro.runner.digest` — what "the same trace" means: a record
  digest (what the analysis reads) and an event digest (the counters);
* :mod:`~repro.runner.cache` — the on-disk, namespace-versioned result
  cache (``.repro-cache/``, managed by ``repro cache``);
* :mod:`~repro.runner.orchestrator` — fingerprint-deduplicated scheduling
  over a process pool, merging results in caller order;
* :mod:`~repro.runner.sharding` — region-sharded execution: factor one
  scenario per geographic region, fan out, merge, reconcile.

The contract, enforced by ``tests/runner/``: any pipeline built on this
package renders byte-identical output for ``--jobs 1`` and ``--jobs N``,
cold cache and warm.
"""

from repro.runner.artifact import (
    ScenarioArtifact, artifact_from_result, run_scenario_artifact,
)
from repro.runner.cache import DEFAULT_CACHE_DIR, CacheEntry, ResultCache
from repro.runner.digest import event_digest, record_digest
from repro.runner.fingerprint import (
    CACHE_SCHEMA_VERSION, cache_namespace, canonicalize, code_fingerprint,
    fingerprint_config,
)
from repro.runner.orchestrator import Orchestrator, default_jobs, parallel_map
from repro.runner.sharding import (
    merge_shard_artifacts, run_sharded_artifact, shard_configs,
)

__all__ = [
    "ScenarioArtifact", "artifact_from_result", "run_scenario_artifact",
    "CacheEntry", "ResultCache", "DEFAULT_CACHE_DIR",
    "event_digest", "record_digest",
    "CACHE_SCHEMA_VERSION", "cache_namespace", "canonicalize",
    "code_fingerprint", "fingerprint_config",
    "Orchestrator", "parallel_map", "default_jobs",
    "merge_shard_artifacts", "run_sharded_artifact", "shard_configs",
]
