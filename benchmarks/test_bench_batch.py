"""Benchmark: trial-batched execution engine vs the scalar path.

The fig6 benchmark profiles retention on 48 lanes (every vendor group x
4 serials) twice: once as 48 scalar :class:`RetentionProfiler` runs and
once as a single :class:`BatchedRetentionProfiler` pass, asserting the
per-lane bucket tensors are byte-identical and that the batched engine
delivers the >= 3x wall-clock speedup the batching work targets at
batch >= 32.  The fig9 benchmark times the full coverage sweep scalar
vs batched at the default configuration; its lanes are (chip,
sub-array target) views, ``chips_per_group`` x 4 targets (8 here), still
below the wide-batch regime, so it asserts byte-identity and records
the (modest) speedup without a threshold.

Speedups are recorded in the pytest-benchmark JSON via ``extra_info``
(``--benchmark-json``), alongside the measured wall times.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py -s
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once
from record import record_bench

from repro.analysis.retention import (
    BatchedRetentionProfiler,
    RetentionProfiler,
)
from repro.backends import DEFAULT_BACKEND
from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.rng import derive_rng
from repro.dram.vendor import GROUPS
from repro.experiments import fig9_fmaj_coverage
from repro.experiments.base import (
    ExperimentConfig,
    make_chip,
    make_fd,
    subarray_targets,
)
from repro.experiments.fig6_retention import FRAC_COUNTS, _sample_rows

#: 12 groups x 4 serials = 48 lanes — comfortably in the batch >= 32
#: regime the speedup target is specified for.
SERIALS = (0, 1, 2, 3)
SPEEDUP_TARGET = 3.0


def _lanes(config: ExperimentConfig) -> list[tuple[str, int]]:
    return [(group_id, serial) for group_id in GROUPS for serial in SERIALS]


def _lane_targets(config: ExperimentConfig, group_id: str,
                  serial: int) -> list[tuple[int, int]]:
    geometry = config.geometry()
    rng = derive_rng(config.master_seed, "fig6bench", group_id, serial)
    return _sample_rows(config, 2, rng, geometry.rows_per_bank,
                        geometry.n_banks)


def _run_scalar(config: ExperimentConfig):
    profiles = []
    for group_id, serial in _lanes(config):
        fd = make_fd(group_id, config, serial)
        targets = _lane_targets(config, group_id, serial)
        profiles.append(RetentionProfiler(fd).profile_rows(targets,
                                                           FRAC_COUNTS))
    return profiles


def _run_batched(config: ExperimentConfig):
    lanes = _lanes(config)
    chips = [make_chip(group_id, config, serial)
             for group_id, serial in lanes]
    per_lane_targets = [_lane_targets(config, group_id, serial)
                        for group_id, serial in lanes]
    profiler = BatchedRetentionProfiler(
        BatchedFracDram(BatchedChip.from_chips(chips)))
    return profiler.profile_rows(per_lane_targets, FRAC_COUNTS)


def test_fig6_batch_speedup(benchmark, bench_config, capsys):
    started = time.perf_counter()
    scalar = _run_scalar(bench_config)
    scalar_wall = time.perf_counter() - started

    started = time.perf_counter()
    batched = run_once(benchmark, _run_batched, bench_config)
    batched_wall = time.perf_counter() - started

    speedup = scalar_wall / batched_wall
    benchmark.extra_info["backend"] = DEFAULT_BACKEND
    benchmark.extra_info["lanes"] = len(_lanes(bench_config))
    benchmark.extra_info["scalar_wall_s"] = round(scalar_wall, 3)
    benchmark.extra_info["batched_wall_s"] = round(batched_wall, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    record_bench("batch", benchmark.extra_info)
    with capsys.disabled():
        print(f"\nfig6 batch engine ({len(_lanes(bench_config))} lanes): "
              f"scalar {scalar_wall:.2f}s, batched {batched_wall:.2f}s, "
              f"speedup {speedup:.2f}x")

    # Byte-identity is unconditional: batching must never change the
    # science.
    assert len(scalar) == len(batched)
    for lane, (reference, candidate) in enumerate(zip(scalar, batched)):
        assert np.array_equal(reference.buckets, candidate.buckets), (
            f"lane {lane} buckets differ between scalar and batched")

    assert speedup >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x batched speedup at "
        f"{len(_lanes(bench_config))} lanes, got {speedup:.2f}x "
        f"(scalar {scalar_wall:.2f}s, batched {batched_wall:.2f}s)")


def test_fig9_batch_identity(benchmark, bench_config, capsys):
    started = time.perf_counter()
    scalar = fig9_fmaj_coverage.run(bench_config.scaled(backend="scalar"))
    scalar_wall = time.perf_counter() - started

    started = time.perf_counter()
    batched = run_once(benchmark, fig9_fmaj_coverage.run, bench_config)
    batched_wall = time.perf_counter() - started

    speedup = scalar_wall / batched_wall
    benchmark.extra_info["scalar_wall_s"] = round(scalar_wall, 3)
    benchmark.extra_info["batched_wall_s"] = round(batched_wall, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    with capsys.disabled():
        lanes = (bench_config.chips_per_group
                 * len(subarray_targets(bench_config)))
        print(f"\nfig9 batch engine ({lanes} lanes): "
              f"scalar {scalar_wall:.2f}s, batched {batched_wall:.2f}s, "
              f"speedup {speedup:.2f}x")

    assert batched.format_table() == scalar.format_table(), (
        "fig9 batched table differs from scalar")
