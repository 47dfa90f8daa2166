"""Shared fixtures: small, fast device configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DramChip, FracDram, GeometryParams


TINY_GEOMETRY = GeometryParams(
    n_banks=2, subarrays_per_bank=2, rows_per_subarray=16, columns=64)


def chip_streams(chip: DramChip) -> list:
    """Every sub-array noise-generator state of a scalar chip."""
    return [[subarray._noise.rng.bit_generator.state
             for subarray in bank.subarrays]
            for bank in chip.banks]


def lane_streams(device, lane: int) -> list:
    """Every sub-array noise-generator state of one lane of a batch,
    nested like :func:`chip_streams`."""
    return [[cell._noises[lane].rng.bit_generator.state
             for cell in bank_cells]
            for bank_cells in device.cells]


@pytest.fixture(autouse=True)
def _isolated_fleet_cache(monkeypatch, tmp_path_factory):
    """Keep the fleet result cache out of the user's real cache dir.

    CLI code paths default to an on-disk cache under ~/.cache; tests
    must never read stale entries from — or write into — the
    developer's cache, so every test gets a throwaway directory.
    """
    monkeypatch.setenv("REPRO_FLEET_CACHE",
                       str(tmp_path_factory.mktemp("fleet-cache")))


@pytest.fixture
def geometry() -> GeometryParams:
    return TINY_GEOMETRY


@pytest.fixture
def chip_b(geometry: GeometryParams) -> DramChip:
    """A deterministic group B chip (Frac + three-row + four-row)."""
    return DramChip("B", geometry=geometry, serial=0, master_seed=1234)


@pytest.fixture
def fd_b(chip_b: DramChip) -> FracDram:
    return FracDram(chip_b)


@pytest.fixture
def chip_c(geometry: GeometryParams) -> DramChip:
    """Group C: four-row activation only."""
    return DramChip("C", geometry=geometry, serial=0, master_seed=1234)


@pytest.fixture
def fd_c(chip_c: DramChip) -> FracDram:
    return FracDram(chip_c)


@pytest.fixture
def chip_j(geometry: GeometryParams) -> DramChip:
    """Group J: command-spacing enforcement, nothing works."""
    return DramChip("J", geometry=geometry, serial=0, master_seed=1234)


@pytest.fixture
def fd_j(chip_j: DramChip) -> FracDram:
    return FracDram(chip_j)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


@pytest.fixture
def random_bits(rng: np.random.Generator):
    def make(n: int = TINY_GEOMETRY.columns, p: float = 0.5) -> np.ndarray:
        return rng.random(n) < p
    return make
