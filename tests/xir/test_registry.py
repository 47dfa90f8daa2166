"""The fused-experiment registry and lowering-refusal diagnostics.

``repro.xir.XIR_LOWERED_EXPERIMENTS`` is the documented contract for
which experiments ride the fused executor under ``--backend fused``
(everything else runs per-command primitives on the same lanes).
Pinning it here keeps the registry and the docs from drifting apart
silently; the fused leg of
``tests/backends/test_conformance_experiments.py`` checks that exactly
these experiments run xir programs.
"""

from __future__ import annotations

import pytest

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.xir import XIR_LOWERED_EXPERIMENTS, XirLoweringError, ir
from repro.xir.executor import FusedRunner

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)


def test_registry_pins_the_lowered_experiments():
    assert XIR_LOWERED_EXPERIMENTS == ("fig6", "fig7", "fig8", "fig9",
                                       "fig10", "fig11", "fig12", "nist",
                                       "table1")


def test_registry_names_real_experiments():
    from repro.experiments.runner import EXPERIMENTS

    for name in XIR_LOWERED_EXPERIMENTS:
        assert name in EXPERIMENTS


class _ReachedFusedRunner(Exception):
    """Raised by the spied runner to stop the experiment at its first run."""


def test_lowered_experiments_accept_the_fused_backend(monkeypatch):
    """Under ``--backend fused`` each lowered experiment runs xir programs.

    ``FusedRunner.run`` is replaced by one that raises on its first
    call, so each experiment stops at its first xir program; the full
    fused runs (and the converse, that no other experiment runs one)
    are in the backend conformance suite.
    """
    from repro.experiments import ExperimentConfig
    from repro.experiments.runner import run_experiment

    def reached(self, *args, **kwargs):
        raise _ReachedFusedRunner

    monkeypatch.setattr(FusedRunner, "run", reached)
    config = ExperimentConfig(
        master_seed=2022, columns=64, rows_per_subarray=16,
        subarrays_per_bank=2, n_banks=2, chips_per_group=2,
        backend="fused")
    for name in XIR_LOWERED_EXPERIMENTS:
        with pytest.raises(_ReachedFusedRunner):
            run_experiment(name, config)


def test_refusal_names_the_offending_op():
    """An unlowerable program's error points at the experiment op."""
    device = BatchedChip.from_fleet([("B", 0), ("B", 1)], geometry=GEOMETRY,
                                    master_seed=7, epochs=[0, 0])
    runner = FusedRunner(BatchedFracDram(device).mc)
    ops = (ir.WriteRow(0, "t", True), ir.ReadRow(1, "t"))
    with pytest.raises(XirLoweringError,
                       match=r"while lowering ReadRow\(bank=1, rows='t'\)"):
        runner.run(ops, rows={"t": [1, 1]})
