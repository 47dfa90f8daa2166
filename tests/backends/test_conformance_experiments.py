"""Experiment conformance: all 12 experiments x both engines.

The headline gate of ``--backend``: running any experiment on either
engine produces byte-identical canonical results *and* byte-identical
deterministic telemetry counters.  The scalar engine is the reference;
nothing may diverge from it.
"""

import pytest

from repro.backends import BACKENDS
from repro.errors import UnsupportedOperationError
from repro.experiments import nist_randomness
from repro.experiments.runner import EXPERIMENTS
from repro.xir import XIR_LOWERED_EXPERIMENTS
from repro.xir.executor import FusedRunner

from .conftest import CONFIG, run_on_backend

ALL_EXPERIMENTS = tuple(EXPERIMENTS)


def spy_xir_runs(monkeypatch) -> list[int]:
    """Record the op count of every xir program the fused executor runs."""
    calls: list[int] = []
    original = FusedRunner.run

    def spy(self, ops, **kwargs):
        calls.append(len(ops))
        return original(self, ops, **kwargs)

    monkeypatch.setattr(FusedRunner, "run", spy)
    return calls


def test_suite_covers_all_experiments():
    # The conformance matrix must grow with the experiment table.
    assert len(ALL_EXPERIMENTS) == 12


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_backends_byte_identical(name, backends, monkeypatch):
    reference_result, reference_counters = run_on_backend(name, "scalar")
    xir_runs = spy_xir_runs(monkeypatch)
    for backend in backends:
        if backend == "scalar":
            continue
        result, counters = run_on_backend(name, backend)
        assert result == reference_result, (
            f"{backend!r} result diverged from scalar on {name}")
        assert counters == reference_counters, (
            f"{backend!r} telemetry counters diverged from scalar on {name}")
    # The fused leg runs xir programs exactly for the lowered experiments.
    assert bool(xir_runs) == (name in XIR_LOWERED_EXPERIMENTS), (
        f"{len(xir_runs)} xir program(s) ran on {name}")


@pytest.mark.parametrize("name", ("fig6", "fig8", "fig10", "fig11"))
def test_backend_conformance_holds_under_fleet_workers(name, backends):
    """Sharded runs on both engines reproduce the serial run exactly.

    fig8 and fig10 put single units in shards of their own under two
    workers (fig8's units 4 and 5; fig10's two group-B MAJ3 stability
    serials), so the fused leg also runs one-lane cohorts.
    """
    reference_result, reference_counters = run_on_backend(name, "scalar")
    for backend in backends:
        result, counters = run_on_backend(name, backend, workers=2)
        assert result == reference_result
        assert counters == reference_counters


@pytest.mark.parametrize("backend", BACKENDS)
def test_nist_refuses_a_group_that_cannot_frac(backend):
    """Group J drops the Frac PRECHARGEs: no engine may emit responses."""
    config = CONFIG.scaled(backend=backend)
    units = nist_randomness.shard_units(config, group_id="J")[:2]
    with pytest.raises(UnsupportedOperationError, match="group J"):
        nist_randomness.run_shard(config, units, group_id="J")
