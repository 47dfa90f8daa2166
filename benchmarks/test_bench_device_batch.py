"""Benchmark: device-batched execution engine vs the scalar path.

The fig11 PUF HD study is the canonical device sweep: every Frac-capable
vendor group contributes several modules, each answering the same
challenge set at two noise epochs.  The scalar path fabricates and
drives one chip at a time; the device-batched path evaluates the whole
fleet as lanes of one :meth:`BatchedChip.from_fleet` cohort.

The benchmark geometry narrows the rows to 128 columns (and widens the
fleet to 54 modules).  Device batching amortizes the per-command Python
dispatch that dominates the scalar path when rows are narrow; the
per-lane measurement-noise draws, which the byte-identity contract
forbids merging across lanes, scale with the column count and are paid
equally by both paths.  Narrow rows are therefore the regime the device
axis is designed for — wide-row workloads are bounded below by the
identical per-lane RNG cost on either path.

The benchmark asserts the rendered results are byte-identical
(unconditional — batching must never change the science) and asserts
the >= 3x wall-clock speedup the device-batching work targets.  Each
path is timed twice and scored on its best wall time, which damps
machine noise without changing what is measured.

Speedups are recorded in the pytest-benchmark JSON via ``extra_info``
(``--benchmark-json``), alongside the measured wall times.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_device_batch.py -s
"""

from __future__ import annotations

import time

from conftest import run_once
from record import record_bench

from repro.backends import DEFAULT_BACKEND
from repro.experiments import fig11_puf_hd
from repro.experiments.report import result_to_dict

SPEEDUP_TARGET = 3.0
#: 9 Frac-capable groups x 6 serials = 54 module lanes.
MODULES_PER_GROUP = 6
N_CHALLENGES = 24


def _best_wall(function, *args, **kwargs):
    """Best-of-2 wall time for one run of ``function`` (plus its result)."""
    best, result = None, None
    for _ in range(2):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    return best, result


def test_fig11_device_batch_speedup(benchmark, bench_config, capsys):
    config = bench_config.scaled(columns=128)

    scalar_wall, scalar = _best_wall(
        fig11_puf_hd.run, config.scaled(backend="scalar"),
        n_challenges=N_CHALLENGES, modules_per_group=MODULES_PER_GROUP)

    started = time.perf_counter()
    run_once(benchmark, fig11_puf_hd.run, config,
             n_challenges=N_CHALLENGES, modules_per_group=MODULES_PER_GROUP)
    first_batched = time.perf_counter() - started
    second_batched, batched = _best_wall(
        fig11_puf_hd.run, config,
        n_challenges=N_CHALLENGES, modules_per_group=MODULES_PER_GROUP)
    batched_wall = min(first_batched, second_batched)

    lanes = len(fig11_puf_hd.shard_units(
        config, modules_per_group=MODULES_PER_GROUP))
    speedup = scalar_wall / batched_wall
    benchmark.extra_info["backend"] = DEFAULT_BACKEND
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["scalar_wall_s"] = round(scalar_wall, 3)
    benchmark.extra_info["batched_wall_s"] = round(batched_wall, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    record_bench("device_batch", benchmark.extra_info)
    with capsys.disabled():
        print(f"\nfig11 device batch ({lanes} module lanes): "
              f"scalar {scalar_wall:.2f}s, batched {batched_wall:.2f}s, "
              f"speedup {speedup:.2f}x")

    # Byte-identity is unconditional: batching must never change the
    # science.
    assert result_to_dict(batched) == result_to_dict(scalar), (
        "fig11 device-batched result differs from scalar")

    assert speedup >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x device-batched speedup at "
        f"{lanes} lanes, got {speedup:.2f}x "
        f"(scalar {scalar_wall:.2f}s, batched {batched_wall:.2f}s)")
