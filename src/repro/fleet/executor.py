"""Process-pool execution engine for sharded experiments.

``FleetExecutor`` fans an experiment's work units out across worker
processes (``concurrent.futures.ProcessPoolExecutor``) and merges the
per-shard payloads back in deterministic order.  Key properties:

* **one registry** — the experiment module comes from
  :data:`repro.experiments.runner.EXPERIMENTS`, imported on first use so
  this package imports nothing from :mod:`repro.experiments`;
* **serial fallback** — ``workers=0`` (the default, also settable via
  ``$REPRO_FLEET_WORKERS``) runs every unit in-process through the exact
  same shard/merge code path, so serial and parallel runs are
  byte-identical by construction;
* **chunked dispatch** — units are grouped into ~2 shards per worker
  (see :func:`repro.fleet.sharding.default_shard_count`) to amortize
  dispatch overhead while keeping the pool load-balanced;
* **nothing stateful crosses the process boundary** — a worker receives
  ``(module path, config, unit keys)`` and rebuilds its shard's devices
  locally from the deterministic fabrication streams;
* **crash surfacing** — a worker exception is re-raised in the parent as
  :class:`FleetWorkerError` naming the shard and its units, with the
  original exception chained.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ReproError
from .sharding import Shard, default_shard_count, plan_shards

__all__ = ["ENV_WORKERS", "FleetExecutor", "FleetOutcome", "FleetWorkerError",
           "ShardStats", "resolve_workers"]

#: Environment variable supplying the default worker count.
ENV_WORKERS = "REPRO_FLEET_WORKERS"


def resolve_workers(value: int | None = None) -> int:
    """Resolve a worker count: explicit value > environment > serial.

    ``0`` means run serially in-process; a negative value means "one
    worker per CPU".
    """
    if value is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ReproError(
                f"${ENV_WORKERS} must be an integer, got {raw!r}") from None
    if value < 0:
        return os.cpu_count() or 1
    return value


class FleetWorkerError(ReproError):
    """A worker process failed while executing a shard."""

    def __init__(self, shard: Shard, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard.index + 1}/{shard.total} of experiment "
            f"{shard.experiment!r} failed on units {list(shard.units)!r}: "
            f"{type(cause).__name__}: {cause}")
        self.shard = shard


@dataclass(frozen=True)
class ShardStats:
    """Wall-time accounting for one executed shard."""

    index: int
    n_units: int
    wall_s: float
    worker_pid: int


@dataclass(frozen=True)
class FleetOutcome:
    """A merged experiment result plus per-shard execution metrics."""

    experiment: str
    result: Any
    workers: int
    n_units: int
    shard_stats: tuple[ShardStats, ...] = field(default_factory=tuple)
    wall_s: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shard_stats)

    @property
    def busy_s(self) -> float:
        """Summed worker wall time (the serial-equivalent cost)."""
        return sum(stats.wall_s for stats in self.shard_stats)

    def describe(self) -> str:
        mode = (f"{self.workers} workers" if self.workers else "serial")
        return (f"{self.experiment}: {self.n_units} units in "
                f"{self.n_shards} shards on {mode}; wall {self.wall_s:.2f}s, "
                f"worker-busy {self.busy_s:.2f}s")


def _execute_shard(module_path: str, config: Any, units: tuple,
                   kwargs: Mapping[str, Any], collect_telemetry: bool = False,
                   ) -> tuple[list, float, int, dict | None]:
    """Worker entry point: rebuild devices locally and run one shard.

    Must stay a module-level function so the pool can pickle a reference
    to it; receives only primitives, a frozen config, and unit keys.
    When the parent runs with telemetry, the worker activates a local
    registry and ships its snapshot back for merging, so an N-worker run
    reports the same deterministic counters as a serial one.
    """
    import importlib

    module = importlib.import_module(module_path)
    snapshot = None
    started = time.perf_counter()
    if collect_telemetry:
        from ..telemetry.registry import Telemetry, activate, deactivate

        local = activate(Telemetry())
        try:
            payloads = module.run_shard(config, units, **dict(kwargs))
        finally:
            deactivate()
        snapshot = local.snapshot()
    else:
        payloads = module.run_shard(config, units, **dict(kwargs))
    return payloads, time.perf_counter() - started, os.getpid(), snapshot


class FleetExecutor:
    """Run registered experiments over a pool of worker processes."""

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)

    def run(self, name: str, config: Any, *, n_shards: int | None = None,
            **kwargs: Any) -> FleetOutcome:
        """Execute experiment ``name`` and merge shard payloads.

        Extra keyword arguments are forwarded to the experiment's
        ``shard_units`` / ``run_shard`` / ``merge`` hooks (e.g. fig10's
        ``trials``); they must be picklable primitives.
        """
        from ..experiments.runner import experiment_module
        from ..telemetry.registry import active as telemetry_active

        module = experiment_module(name)
        units = tuple(module.shard_units(config, **kwargs))
        started = time.perf_counter()
        if n_shards is None:
            n_shards = default_shard_count(len(units), self.workers)
        shards = plan_shards(name, units, n_shards)
        telemetry = telemetry_active()
        if telemetry is not None:
            # Everything here is execution shape (a serial run_experiment
            # never routes through the executor), so notes/histograms
            # only — counters must stay identical serial vs. parallel.
            telemetry.note(f"fleet.{name}.workers", self.workers)
            telemetry.note(f"fleet.{name}.shards", len(shards))
            telemetry.note(f"fleet.{name}.units", len(units))
            telemetry.note(f"fleet.{name}.backend",
                           getattr(config, "backend", None))
        if self.workers == 0 or len(shards) <= 1:
            payload_lists, stats = self._run_in_process(module, config,
                                                        shards, kwargs)
        else:
            payload_lists, stats = self._run_pool(module, config, shards,
                                                  kwargs, telemetry)
        if telemetry is not None:
            for shard_stats in stats:
                telemetry.observe("fleet.shard_wall_s", shard_stats.wall_s)
            merge_context = telemetry.phase("fleet.merge")
        else:
            merge_context = nullcontext()
        with merge_context:
            payloads = [payload for shard_payloads in payload_lists
                        for payload in shard_payloads]
            result = module.merge(config, payloads, **kwargs)
        return FleetOutcome(
            experiment=name, result=result, workers=self.workers,
            n_units=len(units), shard_stats=tuple(stats),
            wall_s=time.perf_counter() - started)

    def _run_in_process(self, module, config, shards, kwargs):
        payload_lists, stats = [], []
        for shard in shards:
            shard_started = time.perf_counter()
            try:
                payloads = module.run_shard(config, shard.units, **kwargs)
            except Exception as error:
                raise FleetWorkerError(shard, error) from error
            payload_lists.append(payloads)
            stats.append(ShardStats(shard.index, shard.n_units,
                                    time.perf_counter() - shard_started,
                                    os.getpid()))
        return payload_lists, stats

    def _run_pool(self, module, config, shards, kwargs, telemetry=None):
        payload_lists: list = [None] * len(shards)
        stats: list = [None] * len(shards)
        module_path = module.__name__
        collect = telemetry is not None
        with ProcessPoolExecutor(max_workers=min(self.workers,
                                                 len(shards))) as pool:
            futures = {
                pool.submit(_execute_shard, module_path, config, shard.units,
                            kwargs, collect): shard
                for shard in shards
            }
            for future, shard in futures.items():
                try:
                    payloads, wall_s, pid, snapshot = future.result()
                except BrokenProcessPool as error:
                    raise FleetWorkerError(shard, error) from error
                except Exception as error:
                    raise FleetWorkerError(shard, error) from error
                payload_lists[shard.index] = payloads
                stats[shard.index] = ShardStats(shard.index, shard.n_units,
                                                wall_s, pid)
                if telemetry is not None and snapshot is not None:
                    telemetry.merge_snapshot(snapshot)
        return payload_lists, stats
