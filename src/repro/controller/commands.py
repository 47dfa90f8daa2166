"""DRAM command model for the software memory controller.

Commands are small frozen dataclasses; a :class:`CommandSequence` is an
ordered list of :class:`TimedCommand` with cycle offsets relative to the
sequence start plus an explicit total ``duration`` (the idle tail needed
for the last command to complete is part of the sequence, exactly like the
paper's "7 memory cycles for a Frac: two command cycles plus five idle
cycles").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from ..errors import CommandSequenceError

__all__ = [
    "Command",
    "Activate",
    "Precharge",
    "PrechargeAll",
    "ReadRow",
    "WriteRow",
    "TimedCommand",
    "CommandSequence",
]


@dataclass(frozen=True)
class Command:
    """Base class for DRAM bus commands."""

    #: Short bus mnemonic family ("ACT", "PRE", ...) — stable identifiers
    #: used by telemetry counters and the ``repro-trace/1`` event schema.
    KIND: ClassVar[str] = "CMD"

    def mnemonic(self) -> str:
        return type(self).__name__.upper()


@dataclass(frozen=True)
class Activate(Command):
    """Open ``row`` in ``bank`` (raise its word-line)."""

    bank: int
    row: int

    KIND = "ACT"

    def mnemonic(self) -> str:
        return f"ACT(b{self.bank},r{self.row})"


@dataclass(frozen=True)
class Precharge(Command):
    """Close all rows in ``bank`` and precharge its bit-lines."""

    bank: int

    KIND = "PRE"

    def mnemonic(self) -> str:
        return f"PRE(b{self.bank})"


@dataclass(frozen=True)
class PrechargeAll(Command):
    """Precharge every bank."""

    KIND = "PREA"

    def mnemonic(self) -> str:
        return "PREA"


@dataclass(frozen=True)
class ReadRow(Command):
    """Sample the sensed row buffer of ``row`` (whole-row burst read).

    The real controller would issue column READs; the model samples the
    full row buffer at once, which is equivalent for our experiments and
    keeps the data path simple.
    """

    bank: int
    row: int

    KIND = "RD"

    def mnemonic(self) -> str:
        return f"RD(b{self.bank},r{self.row})"


@dataclass(frozen=True)
class WriteRow(Command):
    """Drive ``data`` (a logical bit vector) into the open row."""

    bank: int
    row: int
    data: tuple[bool, ...]

    KIND = "WR"

    def mnemonic(self) -> str:
        return f"WR(b{self.bank},r{self.row})"

    @staticmethod
    def from_bits(bank: int, row: int, bits: Sequence[bool]) -> "WriteRow":
        return WriteRow(bank, row, tuple(bool(b) for b in np.asarray(bits).ravel()))


@dataclass(frozen=True)
class TimedCommand:
    """A command scheduled at a cycle offset from sequence start."""

    cycle: int
    command: Command

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise CommandSequenceError("command cycle offsets must be >= 0")


@dataclass(frozen=True)
class CommandSequence:
    """An immutable, time-ordered command stream.

    ``duration`` includes the trailing idle cycles needed for the final
    command to complete; concatenating sequences back-to-back is therefore
    always electrically safe *for in-spec sequences* (FracDRAM sequences
    are deliberately not in-spec, but their builders still account for the
    completion tail).
    """

    commands: tuple[TimedCommand, ...]
    duration: int
    label: str = ""
    #: Machine-readable operation tag set by the sequence builders
    #: ("frac", "half-m", "row-copy", ...); "" for ad-hoc or mixed
    #: sequences.  Telemetry keys per-operation counters off this.
    op: str = ""

    def __post_init__(self) -> None:
        previous = -1
        for timed in self.commands:
            if timed.cycle <= previous:
                raise CommandSequenceError(
                    f"commands must be strictly increasing in time: "
                    f"{timed.command.mnemonic()} at cycle {timed.cycle} "
                    f"follows cycle {previous}")
            previous = timed.cycle
        if self.commands and self.duration <= self.commands[-1].cycle:
            raise CommandSequenceError(
                "sequence duration must extend past the last command")
        if self.duration < 0:
            raise CommandSequenceError("duration must be non-negative")

    def __iter__(self) -> Iterator[TimedCommand]:
        return iter(self.commands)

    def __len__(self) -> int:
        return len(self.commands)

    def shifted(self, offset: int) -> "CommandSequence":
        """Copy with all cycle offsets moved by ``offset`` (>= 0 result)."""
        return CommandSequence(
            tuple(TimedCommand(tc.cycle + offset, tc.command) for tc in self.commands),
            self.duration + offset,
            self.label,
            self.op,
        )

    def then(self, other: "CommandSequence") -> "CommandSequence":
        """Concatenate ``other`` after this sequence completes."""
        shifted = other.shifted(self.duration)
        return CommandSequence(
            self.commands + shifted.commands,
            shifted.duration,
            label=f"{self.label}+{other.label}".strip("+"),
            op=self.op if self.op == other.op else "",
        )

    def describe(self) -> str:
        """Human-readable one-line-per-command trace."""
        lines = [f"# {self.label or 'sequence'} ({self.duration} cycles)"]
        lines.extend(
            f"  @{timed.cycle:>4d}  {timed.command.mnemonic()}"
            for timed in self.commands)
        return "\n".join(lines)


def sequence(commands: Sequence[TimedCommand], duration: int,
             label: str = "") -> CommandSequence:
    """Convenience constructor accepting any command iterable."""
    return CommandSequence(tuple(commands), duration, label)
