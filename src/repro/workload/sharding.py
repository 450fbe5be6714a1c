"""Region-sharded scenario decomposition: the config leaf.

A sharded scenario factors one trace into per-geographic-region
sub-scenarios (Table 2's regions), runs them across the
:mod:`repro.runner` process pool, and merges the shard artifacts — trace
concatenation in sorted region order, fieldwise counter sums, plus a
deterministic cross-region flow-reconciliation pass at the shard
boundaries (see :mod:`repro.runner.sharding`).

The decomposition itself is always per region; ``shards`` only sets how
many pool workers the region sub-scenarios fan out across.  That split is
what makes ``shards=1`` and ``shards=4`` byte-identical *by construction*
— the same sub-scenarios run either way, each deterministic from its own
config — while remaining a cache key so the parity stays checked rather
than assumed.

Like :mod:`repro.vod.config`, this module is deliberately dependency-free
(stdlib and :mod:`repro.bounds` only) so :class:`ShardingConfig` is
importable from the workload layer without dragging in the runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import bound, check_bounds

__all__ = ["ShardingConfig"]


@dataclass(frozen=True)
class ShardingConfig:
    """Region-sharded execution of one scenario.

    Attached to :class:`~repro.workload.scenario.ScenarioConfig` as the
    ``sharding`` leaf (default ``None`` = the classic single-process,
    single-trace run; nothing about an unsharded scenario changes).
    """

    #: Process-pool fan-out for the region sub-scenarios: a positive int.
    #: Output bytes are invariant to this knob by construction.
    shards: int = bound("[1, inf)", 2)

    def __post_init__(self):
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ValueError(
                f"shards must be a positive int, got {self.shards!r}")
        check_bounds(self)

    def resolve_shards(self) -> int:
        """Always ``self.shards``: the width is a plain field.  Kept only
        because ``benchmarks/perf/harness`` calls it and a PR may not change
        the benchmark it is measured with; nothing under ``src/`` calls it.
        Goes with ROADMAP item 1b."""
        return self.shards
