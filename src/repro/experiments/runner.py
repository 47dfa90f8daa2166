"""Run every experiment and print the paper-style tables.

Usage::

    python -m repro experiments            # quick configuration
    python -m repro experiments --only fig9 fig10
    python -m repro experiments --only fig6 fig11 --workers 4
    python -m repro experiments --list

``python -m repro.experiments.runner`` takes the same flags, and
``python -m repro report`` takes the shared run flags of
:func:`add_run_arguments`.

:data:`EXPERIMENTS` is the one experiment registry; every module in it
speaks the shard protocol.  ``--workers N`` fans an experiment's work
units out over N worker processes (see :mod:`repro.fleet`);
``--workers 0`` — the default, also settable via
``$REPRO_FLEET_WORKERS`` — runs the same hooks serially in-process.
``--backend`` picks the engine: ``fused`` (the default) runs each
shard's lanes as one cohort — a lane is a trial for fig6/fig9/fig10/nist
and a module for the device sweeps fig7/fig8/fig11/fig12/table1 — and
``scalar`` runs the reference one device at a time.  Both produce
byte-identical results, so the result cache is keyed with the backend
normalized out.  Results are memoized in a content-addressed on-disk
cache keyed by (experiment, config, package version); disable with
``--no-cache``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

from ..backend_names import DEFAULT_BACKEND
from ..errors import ReproError
from . import (
    ddr4_outlook,
    fig6_retention,
    fig7_maj3,
    fig8_half_m,
    fig9_fmaj_coverage,
    fig10_fmaj_stability,
    fig11_puf_hd,
    fig12_puf_env,
    latency,
    nist_randomness,
    table1,
    timing_sweep,
)
from .base import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["EXPERIMENTS", "Run", "add_run_arguments", "cache_stats",
           "experiment_module", "format_cache_stats", "main", "parse_run",
           "record_cache_notes", "run_experiment"]

#: name -> (description, module).  The one experiment registry: every
#: module speaks the shard protocol (``shard_units`` / ``run_shard`` /
#: ``merge``, see docs/fleet.md), which both the serial path of
#: :func:`run_experiment` and :class:`repro.fleet.FleetExecutor` drive.
EXPERIMENTS: dict[str, tuple[str, ModuleType]] = {
    "table1": ("Table I — group capability matrix", table1),
    "fig6": ("Figure 6 — retention profiles under Frac", fig6_retention),
    "fig7": ("Figure 7 — MAJ3 verification of Frac", fig7_maj3),
    "fig8": ("Figure 8 — Half-m evaluation", fig8_half_m),
    "fig9": ("Figure 9 — F-MAJ coverage sweep", fig9_fmaj_coverage),
    "fig10": ("Figure 10 — F-MAJ stability CDFs", fig10_fmaj_stability),
    "fig11": ("Figure 11 — PUF intra/inter Hamming distance", fig11_puf_hd),
    "fig12": ("Figure 12 — PUF under voltage/temperature changes",
              fig12_puf_env),
    "nist": ("Section VI-B2 — NIST SP800-22 on whitened responses",
             nist_randomness),
    "latency": ("Latency accounting (7/18 cycles, +29%, 1.5 us)", latency),
    "timing": ("Timing-window exploration (Frac/glitch windows)",
               timing_sweep),
    "ddr4": ("Section VII outlook on hypothetical DDR4 profiles",
             ddr4_outlook),
}


def experiment_module(name: str) -> ModuleType:
    """The module registered under ``name`` in :data:`EXPERIMENTS`."""
    try:
        return EXPERIMENTS[name][1]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, config: ExperimentConfig = DEFAULT_CONFIG, *,
                   workers: int = 0, cache=None):
    """Run one experiment by name and return its result object.

    ``workers == 0`` runs the module's ``shard_units`` / ``run_shard`` /
    ``merge`` hooks in-process as one shard; ``workers > 0`` routes the
    experiment through :class:`repro.fleet.FleetExecutor`.  Passing a
    :class:`repro.fleet.ResultCache` as ``cache`` memoizes the result on
    disk — its ``hits``/``stores`` counters tell the caller whether the
    result was recomputed.  Serial, parallel, and cached runs on either
    backend of the same (experiment, config, version) are all
    byte-identical; the cache key therefore normalizes
    ``config.backend`` out, so a fused run can serve a later scalar
    request and vice versa.
    """
    module = experiment_module(name)

    from ..telemetry.registry import active as telemetry_active
    from .base import stage

    telemetry = telemetry_active()
    key = None
    if cache is not None:
        from ..fleet import cache_key

        # The backend never changes results (the conformance contract),
        # so it must not change the cache address either.
        key = cache_key(name, config.scaled(backend=DEFAULT_BACKEND))
        hit, result = cache.fetch(key)
        if hit:
            if telemetry is not None:
                telemetry.count("experiment.cache_hits")
            return result

    with stage(f"experiment.{name}"):
        if workers:
            from ..fleet import FleetExecutor

            result = FleetExecutor(workers).run(name, config).result
        else:
            units = module.shard_units(config)
            result = module.merge(config, module.run_shard(config, units))
    if telemetry is not None:
        telemetry.count("experiment.runs")

    if cache is not None and key is not None:
        cache.store(key, result, meta={"experiment": name,
                                       "config": repr(config)})
    return result


def cache_stats() -> dict[str, dict[str, int]]:
    """Plan-cache and xir-compile-cache statistics for this process.

    Imports lazily so asking for statistics never pulls the fused
    pipeline (or NumPy-heavy executor modules) into processes that only
    run the scalar engine.
    """
    from ..controller.plan import plan_cache_info
    from ..xir import xir_cache_info

    return {"plan": plan_cache_info(), "xir": xir_cache_info()}


def format_cache_stats(stats: dict[str, dict[str, int]] | None = None) -> str:
    """One-line human rendering, printed by ``--cache-stats``."""
    stats = stats if stats is not None else cache_stats()
    plan, xir = stats["plan"], stats["xir"]
    return (f"cache stats: plan {plan['hits']} hits / "
            f"{plan['misses']} misses (size {plan['size']}/"
            f"{plan['capacity']}); xir {xir['misses']} compiles / "
            f"{xir['hits']} reuses (size {xir['size']}/{xir['capacity']})")


def record_cache_notes(telemetry) -> None:
    """Attach cache statistics to a telemetry session as *notes*.

    Notes are execution-shape metadata: hit/miss counts vary with
    worker sharding and run history, so they are excluded from
    deterministic snapshots (the conformance suite compares counters
    only) while still appearing in ``format_summary`` output.
    """
    stats = cache_stats()
    telemetry.note("plan.cache_hits", stats["plan"]["hits"])
    telemetry.note("plan.cache_misses", stats["plan"]["misses"])
    telemetry.note("xir.compiles", stats["xir"]["misses"])


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the flags every experiment run takes.

    ``python -m repro experiments`` (:func:`main`) and ``python -m repro
    report`` both take exactly these; :func:`parse_run` reads them.
    """
    parser.add_argument("--only", nargs="*", metavar="NAME",
                        help="run only the named experiments")
    parser.add_argument("--seed", type=int, default=DEFAULT_CONFIG.master_seed)
    parser.add_argument("--columns", type=int, default=DEFAULT_CONFIG.columns,
                        help="row width in bits (paper: 65536)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes to shard experiments over "
                             "(0 = serial; -1 = one per CPU; default "
                             "$REPRO_FLEET_WORKERS or 0)")
    parser.add_argument("--backend", default=DEFAULT_BACKEND, metavar="NAME",
                        help="execution engine (fused or scalar; default: "
                             f"{DEFAULT_BACKEND}); both are "
                             "conformance-gated to byte-identical results")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute results even if cached")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default "
                             "$REPRO_FLEET_CACHE or ~/.cache/repro-fleet)")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect counters/phase timers: experiments "
                             "prints a summary, report adds a section to "
                             "RESULTS.md")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a repro-trace/1 JSON-lines event trace "
                             "(implies --telemetry)")


@dataclass(frozen=True)
class Run:
    """An experiment run as the flags of :func:`add_run_arguments` ask."""

    config: ExperimentConfig
    names: list[str]
    workers: int
    #: A :class:`repro.fleet.ResultCache`, or None under ``--no-cache``.
    cache: Any
    telemetry: bool
    trace_out: str | None

    def session(self) -> AbstractContextManager:
        """The telemetry session the flags ask for, else a null context."""
        from ..telemetry import session

        if self.telemetry or self.trace_out is not None:
            return session(trace_path=self.trace_out)
        return nullcontext(None)


def parse_run(arguments: argparse.Namespace,
              output: str | None = None) -> Run | None:
    """Check the shared run flags and resolve them into a :class:`Run`.

    An unknown ``--backend`` or ``--only`` name, a ``--columns`` the
    model refuses, a ``--trace-out`` path that cannot be written, or an
    output directory that cannot be created (the result cache, or
    ``output``, the command's own) prints one ``error:`` line and
    returns None before any experiment runs; the command then exits 2.
    """
    from ..fleet import ResultCache, resolve_workers
    from ..telemetry.tracer import claim_trace_path

    try:
        config = DEFAULT_CONFIG.scaled(master_seed=arguments.seed,
                                       columns=arguments.columns,
                                       backend=arguments.backend)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    names = arguments.only or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment {', '.join(map(repr, unknown))}; "
              f"choose from {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return None
    cache = None if arguments.no_cache else ResultCache(arguments.cache_dir)
    # Claim every path the run writes into now, so one that cannot be
    # written is refused before any experiment runs.
    if arguments.trace_out is not None:
        try:
            claim_trace_path(arguments.trace_out).close()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return None
    directories = [Path(output)] if output is not None else []
    if cache is not None:
        directories.append(cache.directory)
    try:
        for directory in directories:
            directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        print(f"error: cannot create directory {directory}: "
              f"{error.strerror}", file=sys.stderr)
        return None
    return Run(
        config=config,
        names=names,
        workers=resolve_workers(arguments.workers),
        cache=cache,
        telemetry=arguments.telemetry,
        trace_out=arguments.trace_out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="FracDRAM reproduction experiment runner")
    add_run_arguments(parser)
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print plan/xir compile-cache statistics "
                             "after the run")
    arguments = parser.parse_args(argv)

    if arguments.list:
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:<10s} {description}")
        return 0

    run = parse_run(arguments)
    if run is None:
        return 2
    cache = run.cache
    with run.session() as telemetry:
        for name in run.names:
            description, _ = EXPERIMENTS[name]
            print("=" * 72)
            print(f"{name}: {description}")
            print("=" * 72)
            started = time.time()
            hits_before = cache.hits if cache is not None else 0
            result = run_experiment(name, run.config, workers=run.workers,
                                    cache=cache)
            print(result.format_table())
            cached = cache is not None and cache.hits > hits_before
            suffix = " (cache hit)" if cached else ""
            print(f"\n[{name} completed in "
                  f"{time.time() - started:.1f}s{suffix}]\n")
        if telemetry is not None:
            record_cache_notes(telemetry)
            print(telemetry.format_summary())
            if run.trace_out:
                print(f"trace written to {run.trace_out}")
    if arguments.cache_stats:
        print(format_cache_stats())
    return 0


if __name__ == "__main__":
    sys.exit(main())
