"""Experiment runner CLI."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_experiment
from repro.fleet import SHARDABLE_EXPERIMENTS, UnshardableExperimentError


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

    def test_every_experiment_is_shardable(self):
        """``--workers`` trusts the fleet registry to name every runner."""
        assert set(EXPERIMENTS) == set(SHARDABLE_EXPERIMENTS)

    def test_unregistered_experiment_refuses_workers(self, monkeypatch):
        """A runner the fleet does not know fails instead of running serially."""
        monkeypatch.setitem(EXPERIMENTS, "unregistered",
                            ("not in the fleet registry", lambda config: None))
        with pytest.raises(UnshardableExperimentError, match="unregistered"):
            run_experiment("unregistered", workers=2)

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_only_flag_runs_selected(self, capsys):
        assert main(["--only", "latency"]) == 0
        out = capsys.readouterr().out
        assert "Frac operation" in out
        assert "Figure 11" not in out
