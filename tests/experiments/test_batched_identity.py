"""Fused-vs-scalar byte-identity for the lane experiments.

The lane contract is absolute: ``--backend fused``, ``--backend fused
--workers W`` (any W), and ``--backend scalar`` must all produce the
same result, byte for byte, because per-lane RNG streams are derived
exactly as the scalar path derives per-trial (or per-module) streams.
These tests pin that contract at a small configuration for every lane
experiment — the trial-batched fig6/fig9/fig10/nist and the
device-batched fig7/fig8/fig11/fig12/table1 — by comparing canonical
JSON renderings of the result objects.  The remaining experiments
(latency, timing, ddr4) have no lane axis but still speak the fleet
shard protocol; the runner's serial shard path must reproduce each
module's own ``run()``.
"""

import json

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.report import result_to_dict
from repro.experiments.runner import EXPERIMENTS, run_experiment

#: Two chips per group so the serial-lane experiments genuinely batch;
#: small geometry keeps each run to a couple of seconds.
CONFIG = ExperimentConfig(
    master_seed=2022, columns=128, rows_per_subarray=16,
    subarrays_per_bank=2, n_banks=2, chips_per_group=2)

BATCHED_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                       "fig12", "nist", "table1")

SHARD_ONLY_EXPERIMENTS = ("latency", "timing", "ddr4")


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def scalar_renderings():
    return {name: canonical(run_experiment(name,
                                           CONFIG.scaled(backend="scalar")))
            for name in BATCHED_EXPERIMENTS}


@pytest.mark.parametrize("name", BATCHED_EXPERIMENTS)
def test_auto_batch_matches_scalar(name, scalar_renderings):
    batched = canonical(run_experiment(name, CONFIG))
    assert batched == scalar_renderings[name], (
        f"{name}: auto-batched result differs from scalar")


@pytest.mark.fleet
@pytest.mark.parametrize("name", BATCHED_EXPERIMENTS)
def test_batch_composes_with_workers(name, scalar_renderings):
    """Fused under ``workers=2`` equals scalar.

    Each shard's lanes form their own cohort, so the lane batches change
    with the sharding; the bytes must not.
    """
    sharded = canonical(run_experiment(name, CONFIG.scaled(backend="fused"),
                                       workers=2))
    assert sharded == scalar_renderings[name], (
        f"{name}: fused --workers 2 result differs from scalar")


@pytest.mark.parametrize("name", SHARD_ONLY_EXPERIMENTS)
def test_shard_protocol_matches_run(name):
    _, module = EXPERIMENTS[name]
    direct = canonical(module.run(CONFIG))
    sharded = canonical(run_experiment(name, CONFIG))
    assert sharded == direct, (
        f"{name}: serial shard-protocol result differs from run()")
