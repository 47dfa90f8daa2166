"""Shared fixtures for the cross-backend conformance suite.

The suite's contract: both engines in :data:`BACKENDS` are
interchangeable — byte-identical experiment results, program outcomes,
and telemetry counters.  Helpers here run one (backend, workload) pair
and produce canonical byte strings for comparison.
"""

import json
from pathlib import Path

import pytest

from repro.backends import BACKENDS, ProgramRequest, execute_program
from repro.controller import assemble_program
from repro.dram.parameters import GeometryParams
from repro.experiments import ExperimentConfig
from repro.experiments.report import result_to_dict
from repro.experiments.runner import run_experiment
from repro.telemetry import session as telemetry_session

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Small but non-degenerate: two chips per group so device-batched
#: experiments genuinely vectorize, 64-bit rows for speed.
CONFIG = ExperimentConfig(
    master_seed=2022, columns=64, rows_per_subarray=16,
    subarrays_per_bank=2, n_banks=2, chips_per_group=2)

#: Geometry matching the corpus programs' 32-bit WR payloads.
CORPUS_GEOMETRY = GeometryParams(
    n_banks=2, subarrays_per_bank=2, rows_per_subarray=16, columns=32)

#: A fleet mixing fast groups with group J (drops closely spaced
#: commands), so conformance also covers the drop path.
CORPUS_DEVICES = (("B", 0), ("C", 0), ("J", 0), ("B", 1))


def corpus_paths() -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.sfc"))
    assert paths, f"program corpus missing under {CORPUS_DIR}"
    return paths


def canonical_result(result) -> str:
    """Canonical JSON rendering of an experiment result object."""
    return json.dumps(result_to_dict(result), sort_keys=True)


def run_on_backend(name: str, backend: str, *,
                   workers: int = 0) -> tuple[str, str]:
    """Run experiment ``name`` on ``backend``; canonical (result, counters).

    Counters come from a deterministic telemetry snapshot, so the pair
    captures both the observable result and the engine's accounting.
    """
    with telemetry_session() as telemetry:
        result = run_experiment(name, CONFIG.scaled(backend=backend),
                                workers=workers)
        counters = telemetry.snapshot(deterministic=True)["counters"]
    return canonical_result(result), json.dumps(counters, sort_keys=True)


def execute_corpus_program(path: Path, backend: str) -> str:
    """Render one corpus program's outcome on one backend."""
    program = assemble_program(path.read_text(), label=path.name)
    request = ProgramRequest(program=program, devices=CORPUS_DEVICES,
                             geometry=CORPUS_GEOMETRY, master_seed=2022)
    return execute_program(request, backend).render()


@pytest.fixture(scope="session")
def backends() -> tuple[str, ...]:
    assert BACKENDS == ("fused", "scalar")
    return BACKENDS
