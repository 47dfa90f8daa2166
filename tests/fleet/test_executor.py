"""Fleet executor: serial fallback, pools, metrics, crash surfacing."""

import os

import pytest

from repro.experiments import ExperimentConfig, runner
from repro.errors import ReproError
from repro.fleet import FleetExecutor, FleetWorkerError, resolve_workers

from . import _toy_experiment

CONFIG = ExperimentConfig(columns=128)


@pytest.fixture
def toy_registered(monkeypatch):
    monkeypatch.setitem(runner.EXPERIMENTS, "toy", ("toy", _toy_experiment))


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_WORKERS", raising=False)
        assert resolve_workers() == 0

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "5")
        assert resolve_workers() == 5

    def test_negative_means_cpu_count(self):
        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_bad_environment_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "many")
        with pytest.raises(ReproError):
            resolve_workers()


class TestSerialExecution:
    def test_merged_result_in_unit_order(self, toy_registered):
        outcome = FleetExecutor(0).run("toy", CONFIG)
        assert outcome.result["values"] == [unit * 10 for unit in range(8)]
        assert outcome.n_units == 8
        assert outcome.n_shards == 1
        assert outcome.workers == 0

    def test_kwargs_forwarded(self, toy_registered):
        outcome = FleetExecutor(0).run("toy", CONFIG, n_units=3)
        assert outcome.result["values"] == [0, 10, 20]

    def test_stats_recorded(self, toy_registered):
        outcome = FleetExecutor(0).run("toy", CONFIG, n_shards=4)
        assert outcome.n_shards == 4
        assert all(stats.wall_s >= 0.0 for stats in outcome.shard_stats)
        assert outcome.busy_s <= outcome.wall_s + 1e-6
        assert "serial" in outcome.describe()

    def test_crash_names_the_shard(self, toy_registered):
        with pytest.raises(FleetWorkerError, match="toy.*poisoned unit 5"):
            FleetExecutor(0).run("toy", CONFIG, poison=5)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            FleetExecutor(0).run("not-an-experiment", CONFIG)


@pytest.mark.fleet
class TestPoolExecution:
    def test_matches_serial(self, toy_registered):
        serial = FleetExecutor(0).run("toy", CONFIG).result
        parallel = FleetExecutor(2).run("toy", CONFIG).result
        assert parallel == serial

    def test_runs_in_worker_processes(self, toy_registered):
        outcome = FleetExecutor(2).run("toy", CONFIG)
        assert outcome.n_shards > 1
        assert all(stats.worker_pid != os.getpid()
                   for stats in outcome.shard_stats)

    def test_worker_crash_surfaces(self, toy_registered):
        with pytest.raises(FleetWorkerError, match="poisoned unit 2"):
            FleetExecutor(2).run("toy", CONFIG, poison=2)

    def test_explicit_shard_count(self, toy_registered):
        outcome = FleetExecutor(2).run("toy", CONFIG, n_shards=3)
        assert outcome.n_shards == 3
        assert outcome.result["values"] == [unit * 10 for unit in range(8)]
