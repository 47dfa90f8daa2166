"""Compile-cache, bind-cache and cache-stats surface behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.experiments import ExperimentConfig, fig6_retention
from repro.experiments.runner import (
    cache_stats,
    format_cache_stats,
    main as runner_main,
    record_cache_notes,
)
from repro.telemetry import session as telemetry_session
from repro.xir import clear_xir_cache, compile_program, ir, xir_cache_info
from repro.xir.executor import FusedRunner

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)

OPS = (ir.WriteRow(0, "t", True), ir.Frac(0, "t", 3), ir.ReadRow(0, "t"))


def make_runner(units=(("B", 0), ("C", 0))):
    device = BatchedChip.from_fleet(list(units), geometry=GEOMETRY,
                                    master_seed=7,
                                    epochs=[0] * len(units))
    return FusedRunner(BatchedFracDram(device).mc)


def fig6_payloads(units):
    """One fig6 shard's payloads, with profiles as comparable lists."""
    return [(kind, group_id,
             None if profile is None else profile.buckets.tolist())
            for kind, group_id, profile in fig6_retention.run_shard(
                ExperimentConfig(columns=128), units)]


class TestCompileCache:
    def test_recompile_is_a_cache_hit(self):
        runner = make_runner()
        clear_xir_cache()
        mc = runner.mc
        first = compile_program(OPS, enforce=False, timing=mc.timing,
                                electrical=mc.electrical,
                                n_banks=GEOMETRY.n_banks,
                                rows_per_subarray=GEOMETRY.rows_per_subarray)
        info = xir_cache_info()
        assert (info["misses"], info["hits"]) == (1, 0)
        second = compile_program(OPS, enforce=False, timing=mc.timing,
                                 electrical=mc.electrical,
                                 n_banks=GEOMETRY.n_banks,
                                 rows_per_subarray=GEOMETRY.rows_per_subarray)
        assert second is first
        info = xir_cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)

    def test_lane_class_is_part_of_the_key(self):
        runner = make_runner()
        clear_xir_cache()
        mc = runner.mc
        relaxed = compile_program(OPS, enforce=False, timing=mc.timing,
                                  electrical=mc.electrical,
                                  n_banks=GEOMETRY.n_banks,
                                  rows_per_subarray=GEOMETRY.rows_per_subarray)
        enforcing = compile_program(OPS, enforce=True, timing=mc.timing,
                                    electrical=mc.electrical,
                                    n_banks=GEOMETRY.n_banks,
                                    rows_per_subarray=GEOMETRY.rows_per_subarray)
        assert enforcing is not relaxed
        assert xir_cache_info()["misses"] == 2

    def test_tokens_are_process_unique(self):
        runner = make_runner()
        clear_xir_cache()
        mc = runner.mc
        first = compile_program(OPS, enforce=False, timing=mc.timing,
                                electrical=mc.electrical,
                                n_banks=GEOMETRY.n_banks,
                                rows_per_subarray=GEOMETRY.rows_per_subarray)
        other = compile_program(OPS[:1] + OPS[2:], enforce=False,
                                timing=mc.timing, electrical=mc.electrical,
                                n_banks=GEOMETRY.n_banks,
                                rows_per_subarray=GEOMETRY.rows_per_subarray)
        # Distinct programs never share a token (executor-side caches
        # key on it), and a cache hit preserves the original's token.
        assert first.token != other.token
        again = compile_program(OPS, enforce=False, timing=mc.timing,
                                electrical=mc.electrical,
                                n_banks=GEOMETRY.n_banks,
                                rows_per_subarray=GEOMETRY.rows_per_subarray)
        assert again.token == first.token

    def test_shard_payload_does_not_depend_on_cache_history(self):
        """The cache's FORK002 exemption, checked on real shards.

        ``compile_program`` may mutate module state inside a worker only
        because its result is a pure function of the key.  A fig6 shard
        of spacing-enforcing groups (J, K) and one of relaxed groups
        (B, C) compile the same op lists, so each shard's payload must
        be the same whether the cache starts empty or was warmed by the
        other shard.  Two units per shard keep both on the lane path.
        """
        enforcing, relaxed = ("J", "K"), ("B", "C")
        for units, warmer in ((enforcing, relaxed), (relaxed, enforcing)):
            clear_xir_cache()
            cold = fig6_payloads(units)
            clear_xir_cache()
            fig6_payloads(warmer)
            assert fig6_payloads(units) == cold, (
                f"shard {units} changed after shard {warmer} warmed the "
                "xir compile cache")


class TestBindCache:
    def test_repeated_binding_is_cached(self):
        """Second run reuses the binding and stays byte-identical to a
        twin runner that never had the cache hit (noise streams advance
        between runs, so runs are compared position-by-position)."""
        runner = make_runner()
        twin = make_runner()
        rows = {"t": [3, 5]}
        assert np.array_equal(runner.run(OPS, rows=rows)[0],
                              twin.run(OPS, rows=rows)[0])
        assert len(runner._bind_cache) == 1
        assert np.array_equal(runner.run(OPS, rows=rows)[0],
                              twin.run(OPS, rows=rows)[0])
        assert len(runner._bind_cache) == 1

    def test_distinct_rows_bind_separately(self):
        runner = make_runner()
        runner.run(OPS, rows={"t": [3, 5]})
        runner.run(OPS, rows={"t": [4, 5]})
        assert len(runner._bind_cache) == 2

    def test_binding_survives_noise_reseed(self):
        """Cached bindings hold no RNG state: reseeding must change the
        draws (fresh streams) without stale-generator reuse."""
        runner = make_runner()
        rows = {"t": [3, 5]}
        before = runner.run(OPS, rows=rows)[0].copy()
        runner.device.reseed_noise(1)
        runner.run(OPS, rows=rows)
        assert len(runner._bind_cache) == 1
        runner.device.reseed_noise(0)
        # Back on epoch 0 the stream positions differ from the first
        # call, but the generators must be the *new* epoch-0 ones; a
        # cached stale generator would raise or silently desync.  Run
        # a fresh twin runner to the same stream position and compare.
        twin = make_runner()
        twin.device.reseed_noise(1)
        twin.run(OPS, rows=rows)
        twin.device.reseed_noise(0)
        assert np.array_equal(runner.run(OPS, rows=rows)[0],
                              twin.run(OPS, rows=rows)[0])


class TestCacheStatsSurfaces:
    def test_cache_stats_shape(self):
        stats = cache_stats()
        for engine in ("plan", "xir"):
            assert {"size", "capacity", "hits", "misses"} <= set(
                stats[engine])

    def test_format_cache_stats_mentions_both_caches(self):
        line = format_cache_stats()
        assert "plan" in line and "xir" in line

    def test_notes_recorded_but_not_deterministic(self):
        with telemetry_session() as telemetry:
            record_cache_notes(telemetry)
            full = telemetry.snapshot()
            deterministic = telemetry.snapshot(deterministic=True)
        assert {"plan.cache_hits", "plan.cache_misses",
                "xir.compiles"} <= set(full["notes"])
        # Conformance compares deterministic snapshots; cache traffic
        # varies with run history and must stay out of them.
        assert "notes" not in deterministic

    def test_cli_cache_stats_flag(self, capsys):
        assert runner_main(["--only", "latency", "--no-cache",
                            "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache stats: plan" in out
