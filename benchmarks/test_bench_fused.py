"""Benchmark: fused xir executor vs the scalar per-command engine.

The fused backend compiles an experiment pass to a phase-op schedule
once and replays it as whole-batch kernels (see ``docs/performance.md``
and ``repro.xir``), eliminating the per-command Python dispatch the
scalar engine pays per command and per module.  Two regimes are
measured:

* **fig11 steady state** — the PUF-serving regime (one enrolled fleet
  answering challenge sets repeatedly, as ``repro.service`` does): the
  device is fabricated once, then each round collects both noise epochs
  of a 24-challenge set over 54 module lanes.  All structure is
  compile/bind-cache resident, so the round measures pure execution.
  Rows are narrowed to 64 columns, the dispatch-bound regime the device
  axis targets (the per-lane RNG draws, identical on every engine by the
  byte-identity contract, scale with columns and bound all engines below
  at wide rows).  This is the tentpole regime: the fused engine must
  deliver >= 11.5x over scalar.
* **fig6 end-to-end** — the retention experiment fabricates fresh
  devices and spends most of its wall inside the *shared* leak
  draws and an adaptively sequential bisection,
  none of which fusion can remove.  The honest expectation there is
  bounded: fused must beat scalar by >= 1.5x; the measured numbers are
  recorded, not inflated.

Byte-identity across the engines is asserted unconditionally in both
regimes.  Speedup thresholds are asserted only on machines with
>= 4 CPUs (shared single-core runners time-slice too noisily to gate
on); the measured numbers are always printed and recorded in
``BENCH_fused.json`` via :mod:`record`.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fused.py -s
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once
from record import record_bench

from repro.dram.batched import BatchedChip
from repro.experiments import fig6_retention, fig11_puf_hd
from repro.experiments.base import make_chip
from repro.puf.frac_puf import FracPuf
from repro.xir.puf import FusedFracPuf

#: Target for the dispatch-bound fig11 steady-state regime: about
#: 0.75x of the lowest measured speedup (15.5x; 17.6-18.6x on a 2-CPU
#: host), so a fused slowdown of about a third fails it.
SCALAR_SPEEDUP_TARGET = 11.5
#: Honest target for the leak-bound fig6 end-to-end regime.
FIG6_SCALAR_TARGET = 1.5

#: 9 Frac-capable groups x 6 serials = 54 module lanes.
MODULES_PER_GROUP = 6
N_CHALLENGES = 24
N_EPOCHS = 2


def _assert_speedups() -> bool:
    """Gate speedup assertions on having real parallel headroom."""
    return (os.cpu_count() or 1) >= 4


def _best_wall(function, rounds):
    best, result = None, None
    for _ in range(rounds):
        started = time.perf_counter()
        result = function()
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return best, result


def test_fig11_fused_speedup(benchmark, bench_config, capsys):
    config = bench_config.scaled(columns=64)
    units = fig11_puf_hd.shard_units(config,
                                     modules_per_group=MODULES_PER_GROUP)
    challenges = fig11_puf_hd.default_challenges(config, N_CHALLENGES)

    def make_fleet():
        return BatchedChip.from_fleet(units, geometry=config.geometry(),
                                      master_seed=config.master_seed,
                                      epochs=[0] * len(units))

    def collect_scalar(pairs):
        epochs = []
        for epoch in range(N_EPOCHS):
            responses = []
            for chip, puf in pairs:
                chip.reseed_noise(epoch)
                responses.append(puf.evaluate_many(challenges))
            epochs.append(np.stack(responses, axis=0))
        return epochs

    def collect_fused(puf):
        epochs = []
        for epoch in range(N_EPOCHS):
            puf.reseed_noise(epoch)
            epochs.append(puf.evaluate_many(challenges))
        return epochs

    # Enroll each engine's fleet once (steady state: fabrication and
    # compile/bind warmup are not part of the measured round).
    scalar_pairs = [(chip, FracPuf(chip))
                    for chip in (make_chip(group_id, config, serial)
                                 for group_id, serial in units)]
    fused_puf = FusedFracPuf(make_fleet())
    collect_scalar(scalar_pairs)
    collect_fused(fused_puf)

    scalar_wall, scalar = _best_wall(
        lambda: collect_scalar(scalar_pairs), rounds=2)
    started = time.perf_counter()
    run_once(benchmark, collect_fused, fused_puf)
    first = time.perf_counter() - started
    rest, fused = _best_wall(lambda: collect_fused(fused_puf), rounds=2)
    fused_wall = min(first, rest)

    # Byte-identity is unconditional: fusion must never change the
    # science.
    for scalar_epoch, fused_epoch in zip(scalar, fused):
        assert np.array_equal(scalar_epoch, fused_epoch), (
            "fused responses differ from scalar")

    scalar_speedup = scalar_wall / fused_wall
    benchmark.extra_info["backend"] = "fused"
    benchmark.extra_info["lanes"] = len(units)
    benchmark.extra_info["fig11_scalar_wall_s"] = round(scalar_wall, 3)
    benchmark.extra_info["fig11_fused_wall_s"] = round(fused_wall, 3)
    benchmark.extra_info["fig11_speedup_vs_scalar"] = round(scalar_speedup, 2)
    record_bench("fused", benchmark.extra_info)
    with capsys.disabled():
        print(f"\nfig11 fused steady state ({len(units)} module lanes): "
              f"scalar {scalar_wall:.2f}s, fused {fused_wall:.2f}s "
              f"({scalar_speedup:.1f}x)")

    if _assert_speedups():
        assert scalar_speedup >= SCALAR_SPEEDUP_TARGET, (
            f"expected >= {SCALAR_SPEEDUP_TARGET}x fused speedup over "
            f"scalar, got {scalar_speedup:.2f}x")


def test_fig6_fused_speedup(benchmark, bench_config, capsys):
    config = bench_config.scaled(columns=64)

    scalar_wall, scalar = _best_wall(
        lambda: fig6_retention.run(config.scaled(backend="scalar")),
        rounds=2)
    started = time.perf_counter()
    run_once(benchmark, fig6_retention.run, config.scaled(backend="fused"))
    first = time.perf_counter() - started
    rest, fused = _best_wall(
        lambda: fig6_retention.run(config.scaled(backend="fused")),
        rounds=2)
    fused_wall = min(first, rest)

    assert fused.format_table() == scalar.format_table(), (
        "fused fig6 table differs from scalar")

    scalar_speedup = scalar_wall / fused_wall
    extra = {
        "backend": "fused",
        "fig6_scalar_wall_s": round(scalar_wall, 3),
        "fig6_fused_wall_s": round(fused_wall, 3),
        "fig6_speedup_vs_scalar": round(scalar_speedup, 2),
    }
    benchmark.extra_info.update(extra)
    record_bench("fused_fig6", benchmark.extra_info)
    with capsys.disabled():
        print(f"\nfig6 fused end-to-end: scalar {scalar_wall:.2f}s, "
              f"fused {fused_wall:.2f}s ({scalar_speedup:.1f}x)")

    if _assert_speedups():
        assert scalar_speedup >= FIG6_SCALAR_TARGET, (
            f"expected >= {FIG6_SCALAR_TARGET}x fused speedup over "
            f"scalar on fig6, got {scalar_speedup:.2f}x")
