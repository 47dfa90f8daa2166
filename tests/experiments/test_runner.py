"""Experiment runner CLI."""

import pytest

from repro.backends import BackendError
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, main, run_experiment
from repro.fleet import ResultCache


class TestRunner:
    def test_registry_covers_every_paper_artifact(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "nist", "latency", "timing", "ddr4"}

    def test_run_experiment_by_name(self):
        result = run_experiment("latency")
        assert result.frac_cycles == 7

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_every_module_speaks_the_shard_protocol(self):
        """Serial runs and the fleet both drive these three hooks."""
        missing = [(name, hook) for name, (_, module) in EXPERIMENTS.items()
                   for hook in ("shard_units", "run_shard", "merge")
                   if not callable(getattr(module, hook, None))]
        assert missing == []

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_only_flag_runs_selected(self, capsys):
        assert main(["--only", "latency"]) == 0
        out = capsys.readouterr().out
        assert "Frac operation" in out
        assert "Figure 11" not in out


class TestBackendName:
    """An unknown backend is refused when the config is built."""

    def test_unknown_backend_refused_by_config(self):
        with pytest.raises(BackendError, match="unknown backend 'nope'"):
            ExperimentConfig(backend="nope")

    def test_unknown_backend_refused_by_scaled(self):
        with pytest.raises(BackendError, match="unknown backend 'nope'"):
            ExperimentConfig().scaled(backend="nope")

    def test_unknown_backend_never_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = ExperimentConfig(columns=64)
        run_experiment("fig8", config.scaled(backend="scalar"), cache=cache)
        assert cache.stores == 1
        with pytest.raises(BackendError):
            run_experiment("fig8", config.scaled(backend="nope"),
                           cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)


class TestGeometryRefusal:
    """A geometry the model refuses is refused when the config is built."""

    @pytest.mark.parametrize("overrides, message", [
        ({"columns": 0}, "columns=0"),
        ({"rows_per_subarray": 9}, "rows_per_subarray must be >= 10"),
    ], ids=["columns", "rows_per_subarray"])
    def test_refused_by_config(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(**overrides)
