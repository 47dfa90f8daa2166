"""``repro.fleet`` — parallel device-fleet orchestration.

The paper's evaluation spans hundreds of chips; the simulator's
embarrassingly parallel structure (chip fabrication is a pure function
of ``(master_seed, group, serial)``) lets a fleet of worker processes
rebuild disjoint device shards locally and run them concurrently.  This
package provides:

* :mod:`repro.fleet.sharding` — deterministic work decomposition,
* :mod:`repro.fleet.executor` — a process-pool engine with a serial
  fallback, chunked dispatch, per-shard metrics, and crash surfacing,
* :mod:`repro.fleet.cache` — a content-addressed on-disk result cache.

The experiments themselves are registered once, in
:data:`repro.experiments.runner.EXPERIMENTS`; the executor looks a name
up there on first use, so this package imports nothing from
:mod:`repro.experiments` at module level.

Quickstart::

    from repro.fleet import FleetExecutor
    from repro.experiments import DEFAULT_CONFIG

    outcome = FleetExecutor(workers=4).run("fig6", DEFAULT_CONFIG)
    print(outcome.result.format_table())
    print(outcome.describe())          # per-shard wall-time accounting

Serial and parallel runs are byte-identical for a fixed seed: see
``docs/fleet.md`` for the shard protocol and the contract that
guarantees it.
"""

from .cache import ENV_CACHE_DIR, ResultCache, cache_key, default_cache_dir
from .executor import (
    ENV_WORKERS,
    FleetExecutor,
    FleetOutcome,
    FleetWorkerError,
    ShardStats,
    resolve_workers,
)
from .sharding import Shard, default_shard_count, partition, plan_shards

__all__ = [
    "ENV_CACHE_DIR",
    "ENV_WORKERS",
    "FleetExecutor",
    "FleetOutcome",
    "FleetWorkerError",
    "ResultCache",
    "Shard",
    "ShardStats",
    "cache_key",
    "default_cache_dir",
    "default_shard_count",
    "partition",
    "plan_shards",
    "resolve_workers",
]
