"""Shared configuration and helpers for the experiment harnesses.

Every experiment module exposes ``run(config) -> *Result`` where the
result carries the measured series plus a ``format_table()`` renderer that
prints the same rows/series the paper reports.  ``ExperimentConfig``
scales the simulated hardware: the defaults are sized so the full suite
runs in minutes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..backend_names import DEFAULT_BACKEND, check_backend
from ..core.ops import FracDram
from ..dram.chip import DramChip
from ..dram.environment import Environment
from ..dram.parameters import GeometryParams
from ..dram.vendor import GroupProfile
from ..errors import ConfigurationError
from ..telemetry.registry import active as _telemetry_active

__all__ = ["ExperimentConfig", "make_chip", "make_fd", "markdown_table",
           "percent", "stage"]


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time a named pipeline stage on the active telemetry registry.

    The run/shard/merge stages of every experiment (and the fleet
    executor's dispatch) wrap themselves in ``stage(...)`` so a
    ``--telemetry`` run reports where the wall time went.  With no
    registry active this is a no-op.
    """
    telemetry = _telemetry_active()
    if telemetry is None:
        yield
        return
    with telemetry.phase(name):
        yield


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``columns`` is the simulated row width in bits (the paper's module rows
    are 65536 bits = 8 KB); ``chips_per_group`` is how many distinct chip
    instances ("modules") to fabricate per vendor group.
    """

    master_seed: int = 2022
    columns: int = 1024
    rows_per_subarray: int = 16
    subarrays_per_bank: int = 2
    n_banks: int = 2
    chips_per_group: int = 2
    #: The engine every lane stage runs on (see :mod:`repro.backends`):
    #: ``"fused"`` (the default) runs a stage's trials or modules as
    #: lanes of one cohort, ``"scalar"`` runs the reference one at a
    #: time.  Both are conformance-gated to byte-identical results and
    #: telemetry counters, so this knob never changes outputs.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        # A config the model refuses raises here, before anything runs
        # or is served from the result cache.  Fleet workers unpickle
        # configs without these checks; the parent made them.
        if self.rows_per_subarray < 10:
            raise ConfigurationError(
                "rows_per_subarray must be >= 10 (group B's four-row set "
                "uses local rows {8,1,0,9})")
        try:
            self.geometry()
        except ValueError as error:
            raise ConfigurationError(
                f"{error} (n_banks={self.n_banks}, subarrays_per_bank="
                f"{self.subarrays_per_bank}, columns={self.columns})"
            ) from None
        check_backend(self.backend)

    def geometry(self) -> GeometryParams:
        return GeometryParams(
            n_banks=self.n_banks,
            subarrays_per_bank=self.subarrays_per_bank,
            rows_per_subarray=self.rows_per_subarray,
            columns=self.columns,
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


DEFAULT_CONFIG = ExperimentConfig()


def make_chip(group: str | GroupProfile, config: ExperimentConfig,
              serial: int = 0,
              environment: Environment | None = None) -> DramChip:
    """Fabricate one deterministic chip for an experiment."""
    return DramChip(
        group,
        geometry=config.geometry(),
        serial=serial,
        master_seed=config.master_seed,
        environment=environment,
    )


def make_fd(group: str | GroupProfile, config: ExperimentConfig,
            serial: int = 0) -> FracDram:
    return FracDram(make_chip(group, config, serial))


def percent(value: float, digits: int = 1) -> str:
    """Render a fraction as a fixed-width percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple GitHub-flavored markdown table."""
    header_line = "| " + " | ".join(str(h) for h in headers) + " |"
    separator = "|" + "|".join("---" for _ in headers) + "|"
    body = ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join([header_line, separator, *body])


def subarray_targets(config: ExperimentConfig) -> list[tuple[int, int]]:
    """All (bank, subarray) pairs of the configured geometry."""
    return [(bank, subarray)
            for bank in range(config.n_banks)
            for subarray in range(config.subarrays_per_bank)]


def input_combos(columns: int) -> list[tuple[tuple[int, int, int], list[np.ndarray]]]:
    """The paper's six MAJ3 input combinations as full-row operand sets."""
    patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return [
        (pattern, [np.full(columns, bool(value)) for value in pattern])
        for pattern in patterns
    ]
