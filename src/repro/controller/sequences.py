"""Builders for every command sequence the paper uses.

Each builder returns a :class:`CommandSequence` with offsets in 2.5 ns
memory cycles, including the completion tail, so the controller's cycle
counter directly yields the latency figures the paper reports:

* ``frac_sequence`` — 7 cycles per Frac (ACT, PRE back-to-back + 5 idle),
  Section III-A.
* ``row_copy_sequence`` — 18 cycles (ComputeDRAM-style copy through the
  driven bit-lines), Section VI-A.1.
* ``multi_row_sequence`` — ACT(R1)-PRE-ACT(R2) with zero idle cycles, then
  enough idle time for the sense amplifiers to fire (the MAJ3 / F-MAJ
  charge-sharing compute), Section II-D.
* ``half_m_sequence`` — the same four-row activation interrupted by a
  trailing PRECHARGE before the sense amps fire, Section III-B.
"""

from __future__ import annotations

from typing import Sequence as SequenceType

from ..dram.parameters import ElectricalParams, TimingParams
from .commands import (
    Activate,
    CommandSequence,
    Precharge,
    PrechargeAll,
    ReadRow,
    TimedCommand,
    WriteRow,
)

__all__ = [
    "precharge_all_sequence",
    "write_row_sequence",
    "read_row_sequence",
    "refresh_row_sequence",
    "frac_sequence",
    "multi_row_sequence",
    "half_m_sequence",
    "row_copy_sequence",
    "sequence_label",
    "FRAC_OP_CYCLES",
    "ROW_COPY_CYCLES",
]

#: Latency of one Frac operation: 2 command cycles + 5 idle (Section III-A).
FRAC_OP_CYCLES: int = 7

#: Latency of one in-DRAM row copy (Section VI-A.1).
ROW_COPY_CYCLES: int = 18


def sequence_label(op: str, bank: int | None,
                   activated: SequenceType[int]) -> str:
    """The ``label`` of a paper sequence, from its op, its bank and the
    rows it activates in issue order (a Frac ladder activates its row
    once per Frac)."""
    if op == "precharge-all":
        return op
    if op == "frac":
        return f"frac x{len(activated)} b{bank} r{activated[0]}"
    if op == "row-copy":
        return f"row-copy b{bank} {activated[0]}->{activated[1]}"
    if op in ("multi-row-act", "half-m"):
        return f"{op} b{bank} ({activated[0]},{activated[1]})"
    return f"{op} b{bank} r{activated[0]}"


def precharge_all_sequence(timing: TimingParams | None = None) -> CommandSequence:
    """Close every bank; used to reach a known idle state."""
    timing = timing or TimingParams()
    return CommandSequence(
        (TimedCommand(0, PrechargeAll()),), timing.t_rp,
        label="precharge-all", op="precharge-all")


def write_row_sequence(bank: int, row: int, bits: SequenceType[bool],
                       timing: TimingParams | None = None) -> CommandSequence:
    """In-spec ACTIVATE, whole-row WRITE, PRECHARGE."""
    timing = timing or TimingParams()
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, row)),
            TimedCommand(timing.t_rcd, WriteRow.from_bits(bank, row, bits)),
            TimedCommand(timing.t_ras, Precharge(bank)),
        ),
        timing.row_cycle,
        label=sequence_label("write-row", bank, (row,)),
        op="write-row",
    )


def read_row_sequence(bank: int, row: int,
                      timing: TimingParams | None = None) -> CommandSequence:
    """In-spec ACTIVATE, whole-row READ, PRECHARGE (destructive for
    fractional values: the sense amplifiers rail the cells)."""
    timing = timing or TimingParams()
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, row)),
            TimedCommand(timing.t_rcd, ReadRow(bank, row)),
            TimedCommand(timing.t_ras, Precharge(bank)),
        ),
        timing.row_cycle,
        label=sequence_label("read-row", bank, (row,)),
        op="read-row",
    )


def refresh_row_sequence(bank: int, row: int,
                         timing: TimingParams | None = None) -> CommandSequence:
    """Per-row refresh: activate (restore) and close."""
    timing = timing or TimingParams()
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, row)),
            TimedCommand(timing.t_ras, Precharge(bank)),
        ),
        timing.row_cycle,
        label=sequence_label("refresh", bank, (row,)),
        op="refresh",
    )


def frac_sequence(bank: int, row: int, n_frac: int = 1,
                  timing: TimingParams | None = None) -> CommandSequence:
    """``n_frac`` back-to-back Frac operations on ``row``.

    Each Frac is ACT at cycle t, PRE at t+1 — the PRECHARGE interrupts the
    activation before the sense amps fire, leaving the cell at the shared
    fractional voltage — followed by the 5 idle cycles the PRECHARGE needs
    to complete before the next ACT may start (7 cycles total).
    """
    if n_frac < 1:
        raise ValueError("n_frac must be >= 1")
    timing = timing or TimingParams()
    commands = []
    for index in range(n_frac):
        start = index * FRAC_OP_CYCLES
        commands.append(TimedCommand(start, Activate(bank, row)))
        commands.append(TimedCommand(start + 1, Precharge(bank)))
    return CommandSequence(
        tuple(commands), n_frac * FRAC_OP_CYCLES,
        label=sequence_label("frac", bank, (row,) * n_frac), op="frac")


def multi_row_sequence(bank: int, r1: int, r2: int,
                       timing: TimingParams | None = None,
                       electrical: ElectricalParams | None = None,
                       ) -> CommandSequence:
    """ACT(R1)-PRE-ACT(R2) with zero idle cycles, then let the SAs fire.

    This is the ComputeDRAM multi-row-activation: the PRE at cycle 1 is
    aborted by the ACT at cycle 2, the decoder glitch opens the extra
    row(s), charge sharing decides the bit-line, and after the sense-enable
    delay the amplified majority value is restored into *all* open rows.
    The final PRECHARGE closes everything.
    """
    timing = timing or TimingParams()
    electrical = electrical or ElectricalParams()
    settle_at = 2 + electrical.sense_enable_cycles + 2
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, r1)),
            TimedCommand(1, Precharge(bank)),
            TimedCommand(2, Activate(bank, r2)),
            TimedCommand(settle_at, Precharge(bank)),
        ),
        settle_at + timing.t_rp,
        label=sequence_label("multi-row-act", bank, (r1, r2)),
        op="multi-row-act",
    )


def half_m_sequence(bank: int, r1: int, r2: int,
                    timing: TimingParams | None = None) -> CommandSequence:
    """Four-row activation interrupted before the sense amps fire.

    The trailing PRE at cycle 4 lands inside the sense-enable window of the
    ACT at cycle 2, so the shared (fractional) voltages are frozen into the
    cells of all four opened rows (Figure 4).
    """
    timing = timing or TimingParams()
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, r1)),
            TimedCommand(1, Precharge(bank)),
            TimedCommand(2, Activate(bank, r2)),
            TimedCommand(4, Precharge(bank)),
        ),
        4 + timing.t_rp,
        label=sequence_label("half-m", bank, (r1, r2)),
        op="half-m",
    )


def row_copy_sequence(bank: int, src: int, dst: int,
                      timing: TimingParams | None = None,
                      electrical: ElectricalParams | None = None,
                      ) -> CommandSequence:
    """ComputeDRAM-style in-DRAM row copy (18 cycles).

    ACT(src) runs long enough for the sense amps to fire; the PRE-ACT(dst)
    pair then aborts the close while the bit-lines are still driven, so the
    destination row is overwritten with the sensed source data.
    """
    timing = timing or TimingParams()
    electrical = electrical or ElectricalParams()
    pre_at = electrical.sense_enable_cycles + 1
    act_dst_at = pre_at + 1
    final_pre_at = act_dst_at + electrical.sense_enable_cycles + 2
    return CommandSequence(
        (
            TimedCommand(0, Activate(bank, src)),
            TimedCommand(pre_at, Precharge(bank)),
            TimedCommand(act_dst_at, Activate(bank, dst)),
            TimedCommand(final_pre_at, Precharge(bank)),
        ),
        final_pre_at + timing.t_rp + 1,
        label=sequence_label("row-copy", bank, (src, dst)),
        op="row-copy",
    )
