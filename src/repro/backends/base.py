"""The :class:`Backend` protocol plus shared request/outcome types.

One contract, two engines.  A backend

* executes an assembled SoftMC :class:`~repro.controller.program.Program`
  over a fleet of simulated devices (:meth:`Backend.execute_program`), and
* sets the lane width of every batched experiment stage
  (:meth:`Backend.lane_width`, reached through ``ExperimentConfig.backend``),

and every registered engine must produce **byte-identical** results and
telemetry counters — the conformance suite under ``tests/backends/``
enforces this across all experiments, a program corpus, and fuzzed
programs.  See ``docs/backends.md`` for the full contract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ..controller.commands import Activate, CommandSequence, ReadRow, WriteRow
from ..controller.program import Program
from ..dram.parameters import GeometryParams
from ..dram.vendor import get_group
from ..errors import ReproError
from ..telemetry import registry as _registry
from .registry import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dram.batched import BatchedChip
    from ..dram.chip import DramChip

__all__ = ["Backend", "DeviceResult", "ProgramOutcome", "ProgramRequest",
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


class Backend(abc.ABC):
    """An interchangeable execution engine behind the registry.

    Subclasses implement :meth:`_execute` (program execution over a
    device fleet) and :meth:`lane_width` (the experiment dispatch
    policy); the shared :meth:`execute_program` wrapper adds request
    validation and telemetry collection so every engine reports the same
    counter surface.
    """

    name: ClassVar[str]
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def lane_width(self, auto: int) -> int:
        """Effective lane width for a batched experiment stage.

        ``auto`` is the stage's natural lane count.  Returning 1 forces
        the scalar path.  Must be >= 1.
        """

    @abc.abstractmethod
    def _execute(self, request: ProgramRequest) -> tuple[DeviceResult, ...]:
        """Run the validated program on every requested device."""

    def execute_program(self, request: ProgramRequest, *,
                        trace_path=None) -> ProgramOutcome:
        """Validate and run ``request``; collect a telemetry snapshot.

        Runs under a nested telemetry registry so the returned
        ``counters`` reflect exactly this program execution; counts are
        folded back into any enclosing registry afterwards.
        ``trace_path`` additionally writes a ``repro-trace/1`` JSON-lines
        event trace of the execution.
        """
        validate_request(request)
        with _registry.session(trace_path=trace_path) as telemetry:
            devices = self._execute(request)
            snapshot = telemetry.snapshot()
        enclosing = _registry.active()
        if enclosing is not None:
            enclosing.merge_snapshot(snapshot)
        counters = {name: int(value)
                    for name, value in snapshot["counters"].items()}
        return ProgramOutcome(label=request.program.label,
                              devices=tuple(devices), counters=counters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<backend {self.name}: {self.description}>"
