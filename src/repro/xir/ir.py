"""Experiment-level IR: whole physics phases as ops.

An experiment pass is a small *program* of *experiment ops*
(:class:`WriteRow`, :class:`WriteData`, :class:`Frac`, :class:`ReadRow`,
:class:`RefreshRow`, :class:`PrechargeAll`, :class:`Leak`,
:class:`RowCopy`, :class:`MultiRow`, :class:`HalfM`, and the literal
:class:`Commands` stream a SoftMC program compiles to), which the
compiler (:mod:`repro.xir.compile`) lowers into a flat list of *phase
ops* — charge share, sense, partial amplification, write, freeze,
glitch rollback and overwrite, readout, close, leak — over the full
``(lanes, rows, cols)`` state.

Ops other than :class:`Commands` do not carry concrete rows: they name
*parameters* (``rows="target"``, ``dt="wait"``) bound at execution
time, so one compiled program replays across every sweep point, row
sample and lane batch.  See ``docs/performance.md`` for the pipeline
walk-through and the byte-identity argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ..controller.commands import CommandSequence

__all__ = [
    "Commands",
    "Frac",
    "HalfM",
    "Leak",
    "MultiRow",
    "Op",
    "PrechargeAll",
    "ReadRow",
    "RefreshRow",
    "RowCopy",
    "WriteData",
    "WriteRow",
    "signature",
]


@dataclass(frozen=True)
class WriteRow:
    """In-spec ACT/WRITE/PRE storing a constant fill value."""

    bank: int
    rows: str
    value: bool


@dataclass(frozen=True)
class WriteData:
    """In-spec ACT/WRITE/PRE storing per-lane data bound at run time.

    Same command template as :class:`WriteRow`, but the stored plane is
    a run-time binding (``data[rows]``, one ``(lanes, columns)`` bool
    array) instead of a compile-time constant — the op the fMAJ flows
    need to store three distinct operand planes per trial without
    recompiling per payload.
    """

    bank: int
    rows: str


@dataclass(frozen=True)
class Frac:
    """``n_frac`` back-to-back Frac operations (ACT, interrupting PRE)."""

    bank: int
    rows: str
    n_frac: int


@dataclass(frozen=True)
class ReadRow:
    """Destructive whole-row read; emits one readout plane."""

    bank: int
    rows: str


@dataclass(frozen=True)
class PrechargeAll:
    """Close every bank (reach a known idle state)."""


@dataclass(frozen=True)
class Leak:
    """Stop command traffic for a bound duration (retention leakage)."""

    dt: str


@dataclass(frozen=True)
class RowCopy:
    """ComputeDRAM-style in-DRAM copy through the driven bit-lines."""

    bank: int
    src: str
    dst: str


@dataclass(frozen=True)
class MultiRow:
    """ComputeDRAM multi-row activation: ACT(r1)-PRE-ACT(r2), then sense.

    The zero-gap PRE-ACT aborts the close, the decoder glitch opens the
    extra rows, and the sense amplifiers restore the charge-shared
    majority into every opened row before the final PRECHARGE.
    """

    bank: int
    r1: str
    r2: str


@dataclass(frozen=True)
class HalfM:
    """The four-row activation interrupted inside the amplify window."""

    bank: int
    r1: str
    r2: str


@dataclass(frozen=True)
class RefreshRow:
    """Per-row refresh: in-spec activate (restore) and close."""

    bank: int
    rows: str


@dataclass(frozen=True)
class Commands:
    """A literal command stream: rows and write data are its own.

    A SoftMC program compiles to one of these per command chunk (see
    :func:`repro.backends.fused.execute_fused`); every lane issues the
    same commands, so nothing is bound at run time.
    """

    sequence: CommandSequence


Op = Union[WriteRow, WriteData, Frac, ReadRow, RefreshRow, PrechargeAll,
           Leak, RowCopy, MultiRow, HalfM, Commands]

#: Every op a program may contain; each lowers directly to phase ops.
PRIMITIVE_OPS = (WriteRow, WriteData, Frac, ReadRow, RefreshRow,
                 PrechargeAll, Leak, RowCopy, MultiRow, HalfM, Commands)


def signature(ops: Sequence[Op]) -> tuple:
    """Structural cache key of a program: op kinds and static fields.

    Two programs with the same signature lower to the same phase-op
    structure (rows and durations are bound later), so the signature is
    the compile-cache key (together with the lane class and timing).
    """
    return tuple(
        (type(op).__name__,) + tuple(
            getattr(op, name) for name in op.__dataclass_fields__)
        for op in ops)
