"""Program requests and outcomes shared by both engines.

:func:`repro.backends.execute_program` runs a :class:`ProgramRequest`,
an assembled SoftMC :class:`~repro.controller.program.Program` over a
fleet of simulated devices, on either engine and returns a
:class:`ProgramOutcome`.  Both engines must produce **byte-identical**
outcomes and telemetry counters; the conformance suite under
``tests/backends/`` enforces this across all experiments, a program
corpus, and fuzzed programs.  See ``docs/backends.md`` for the full
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING

import numpy as np

from ..backend_names import BackendError
from ..controller.commands import Activate, CommandSequence, ReadRow, WriteRow
from ..controller.program import Program
from ..dram.parameters import GeometryParams
from ..dram.vendor import get_group
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dram.batched import BatchedChip
    from ..dram.chip import DramChip

__all__ = ["DeviceResult", "ProgramOutcome", "ProgramRequest",
           "chip_state_digest", "lane_state_digest", "validate_request"]


@dataclass(frozen=True)
class ProgramRequest:
    """One program execution over a fleet of deterministic devices.

    ``devices`` are ``(group_id, serial)`` module specs — each fabricates
    the exact chip ``make_chip``/``BatchedChip.from_fleet`` would build
    from ``(master_seed, group, serial)``, so every backend sees
    bit-identical silicon.
    """

    program: Program
    devices: tuple[tuple[str, int], ...] = (("B", 0),)
    geometry: GeometryParams = field(default_factory=GeometryParams)
    master_seed: int = 2022


@dataclass(frozen=True)
class DeviceResult:
    """One device's observable outcome of a program run."""

    group: str
    serial: int
    reads: tuple[np.ndarray, ...]
    cycles: int
    dropped_commands: int
    state_digest: str


@dataclass(frozen=True)
class ProgramOutcome:
    """Backend-agnostic result: per-device data plus telemetry counters.

    Two outcomes from conforming backends render identically —
    :meth:`render` is the byte-comparable surface the conformance suite
    and the ``run-program`` CLI both use.
    """

    label: str
    devices: tuple[DeviceResult, ...]
    counters: dict[str, int]

    def render(self) -> str:
        lines = [f"program {self.label}: {len(self.devices)} device(s)"]
        for index, device in enumerate(self.devices):
            lines.append(f"device {index}: group {device.group} "
                         f"serial {device.serial}")
            lines.append(f"  cycles {device.cycles}  "
                         f"dropped {device.dropped_commands}  "
                         f"state {device.state_digest}")
            for read_index, data in enumerate(device.reads):
                bits = "".join("1" if bit else "0" for bit in data)
                lines.append(f"  read {read_index}: {bits}")
        lines.append("counters:")
        if not self.counters:
            lines.append("  (none)")
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]}")
        return "\n".join(lines) + "\n"


def chip_state_digest(chip: "DramChip") -> str:
    """BLAKE2b over every sub-array's cell voltages, in (bank, sub) order."""
    digest = blake2b(digest_size=16)
    for bank in chip.banks:
        for subarray in bank.subarrays:
            digest.update(np.ascontiguousarray(subarray.cell_v).tobytes())
    return digest.hexdigest()


def lane_state_digest(device: "BatchedChip", lane: int) -> str:
    """The batched equivalent of :func:`chip_state_digest` for one lane."""
    digest = blake2b(digest_size=16)
    for bank_cells in device.cells:
        for cell in bank_cells:
            digest.update(np.ascontiguousarray(cell.cell_v[lane]).tobytes())
    return digest.hexdigest()


def validate_request(request: ProgramRequest) -> None:
    """Reject programs that address outside the requested geometry.

    Raises :class:`BackendError` naming the offending step/command, so a
    bad ``run-program`` invocation fails with a diagnosis instead of a
    physics-layer traceback from deep inside an engine.
    """
    if not request.devices:
        raise BackendError("a program request needs at least one device")
    for group_id, serial in request.devices:
        try:
            get_group(group_id)
        except ReproError as error:
            raise BackendError(f"unknown device group {group_id!r}: "
                               f"{error}") from None
        if int(serial) < 0:
            raise BackendError(f"device serial must be non-negative, "
                               f"got {serial!r}")
    geometry = request.geometry
    for step_index, step in enumerate(request.program.steps):
        if not isinstance(step, CommandSequence):
            continue  # LeakStep
        for command_index, timed in enumerate(step):
            command = timed.command
            where = (f"step {step_index} command {command_index} "
                     f"({command.KIND})")
            bank = getattr(command, "bank", None)
            if bank is not None and bank >= geometry.n_banks:
                raise BackendError(
                    f"{where}: bank {bank} out of range "
                    f"(geometry has {geometry.n_banks} banks)")
            if isinstance(command, (Activate, ReadRow, WriteRow)):
                if command.row >= geometry.rows_per_bank:
                    raise BackendError(
                        f"{where}: row {command.row} out of range "
                        f"(geometry has {geometry.rows_per_bank} rows "
                        f"per bank)")
            if isinstance(command, WriteRow) and (
                    len(command.data) != geometry.columns):
                raise BackendError(
                    f"{where}: WR payload is {len(command.data)} bits but "
                    f"the geometry has {geometry.columns} columns")
