"""Fleet determinism: serial, parallel, and cached runs are identical.

The contract under test (see docs/fleet.md): for a fixed
``master_seed``, ``run(config)`` and a fleet run over any number of
workers/shards must produce byte-identical ``format_table()`` output,
and a cache hit must reproduce every result field.
"""

import pytest

from repro.experiments import ExperimentConfig, fig6_retention, fig11_puf_hd
from repro.experiments.report import result_to_dict
from repro.experiments.runner import run_experiment
from repro.fleet import FleetExecutor, ResultCache

CONFIG = ExperimentConfig(columns=128, rows_per_subarray=16,
                          subarrays_per_bank=2, n_banks=2, chips_per_group=1)


class TestShardInvariance:
    """Shard decomposition must not leak into results (in-process)."""

    def test_fig6_single_vs_many_shards(self):
        whole = fig6_retention.run(CONFIG).format_table()
        sharded = run_experiment("fig6", CONFIG)
        resharded = FleetExecutor(0).run("fig6", CONFIG, n_shards=5)
        assert sharded.format_table() == whole
        assert resharded.result.format_table() == whole

    def test_fig11_single_vs_many_shards(self):
        whole = fig11_puf_hd.run(CONFIG).format_table()
        resharded = FleetExecutor(0).run("fig11", CONFIG, n_shards=7)
        assert resharded.result.format_table() == whole

    def test_merge_accepts_shuffled_payloads(self):
        units = fig6_retention.shard_units(CONFIG)
        payloads = fig6_retention.run_shard(CONFIG, units)
        shuffled = list(reversed(payloads))
        assert (fig6_retention.merge(CONFIG, shuffled).format_table()
                == fig6_retention.merge(CONFIG, payloads).format_table())


@pytest.mark.fleet
class TestParallelDeterminism:
    """Worker processes reproduce the serial tables byte for byte."""

    def test_fig6_parallel_identical(self):
        serial = fig6_retention.run(CONFIG).format_table()
        parallel = FleetExecutor(2).run("fig6", CONFIG).result.format_table()
        assert parallel == serial

    def test_fig11_parallel_identical(self):
        serial = fig11_puf_hd.run(CONFIG).format_table()
        parallel = FleetExecutor(2).run("fig11", CONFIG).result.format_table()
        assert parallel == serial


class TestCacheDeterminism:
    def test_cache_hit_reproduces_every_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = run_experiment("fig6", CONFIG, cache=cache)
        assert cache.stores == 1
        cached = run_experiment("fig6", CONFIG, cache=cache)
        assert cache.hits == 1
        assert cached.format_table() == fresh.format_table()
        assert result_to_dict(cached) == result_to_dict(fresh)

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("fig6", CONFIG, cache=cache)
        run_experiment("fig6", CONFIG.scaled(master_seed=7), cache=cache)
        assert cache.stores == 2
