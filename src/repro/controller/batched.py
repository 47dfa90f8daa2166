"""Batched SoftMC: one compiled sequence replayed across trial lanes.

:class:`BatchedSoftMC` drives a :class:`~repro.dram.batched.BatchedChip`.
Each :meth:`run` call issues one *template* :class:`CommandSequence` to a
set of lanes at once: the sequence shape (cycle offsets, command kinds,
banks) is lane-uniform, while row addresses and write data may vary per
lane via ``lane_rows`` / ``lane_data`` overrides.  That split is exactly
what makes the compiled-plan cache (:mod:`repro.controller.plan`) sound
here — JEDEC violations never depend on rows or data, so one plan
annotates every lane and counter increments are simply multiplied by the
lane count.

The convenience wrappers mirror :class:`~repro.controller.softmc.SoftMC`
one-for-one but take per-lane row vectors.  ``write_row`` builds its
template with an *empty* :class:`WriteRow` payload and ships the real
bits through ``lane_data`` as a NumPy array, skipping the per-trial
``tuple(bool(b) ...)`` conversion that dominates the scalar write path.

Strict (JEDEC-raising) mode is deliberately not offered: validation
campaigns run scalar.  Per-lane cycle counters live in ``self.cycles``
(lane ``i`` of a batch is cycle-identical to scalar trial ``i``).
"""

from __future__ import annotations

from typing import Sequence as SequenceType

import numpy as np

from ..dram.batched import BatchedChip
from ..dram.parameters import MEMORY_CYCLE_NS, ElectricalParams, TimingParams
from ..telemetry.registry import active as _telemetry_active
from .commands import (
    Activate,
    CommandSequence,
    Precharge,
    PrechargeAll,
    ReadRow,
    WriteRow,
)
from .plan import plan_for
from . import sequences as seq

__all__ = ["BatchedSoftMC"]


class BatchedSoftMC:
    """Software memory controller replaying sequences across lanes."""

    def __init__(self, device: BatchedChip, *,
                 timing: TimingParams | None = None,
                 electrical: ElectricalParams | None = None) -> None:
        self.device = device
        self.timing = timing or TimingParams()
        self.electrical = electrical or device.groups[0].electrical
        #: Per-lane cycle counters (lane i mirrors scalar trial i).
        self.cycles = np.zeros(device.n_lanes, dtype=np.int64)

    @property
    def n_lanes(self) -> int:
        return self.device.n_lanes

    def all_lanes(self) -> list[int]:
        return list(range(self.device.n_lanes))

    def elapsed_ns(self, lane: int) -> float:
        """Wall-clock bus time consumed so far by ``lane``."""
        return int(self.cycles[lane]) * MEMORY_CYCLE_NS

    # ------------------------------------------------------------------
    # core engine
    # ------------------------------------------------------------------

    def run(self, sequence: CommandSequence, lanes: SequenceType[int], *,
            lane_rows: dict[int, SequenceType[int]] | None = None,
            lane_data: dict[int, np.ndarray] | None = None,
            ) -> list[np.ndarray]:
        """Issue ``sequence`` on every lane in ``lanes`` at once.

        ``lane_rows[i]`` overrides the row of command ``i`` per lane (in
        ``lanes`` order); ``lane_data[i]`` the write payload (``(L, C)``
        bool, or ``(C,)`` broadcast).  Returns one ``(L, C)`` array per
        READ, in issue order.
        """
        lane_rows = lane_rows or {}
        lane_data = lane_data or {}
        telemetry = _telemetry_active()
        plan = None
        if telemetry is not None:
            plan = plan_for(self.timing, sequence)
            self._record_sequence(telemetry, sequence, lanes, lane_rows)
        reads: list[np.ndarray] = []
        base = self.cycles.copy()
        for index, timed in enumerate(sequence):
            command = timed.command
            cycles = base + timed.cycle
            rows = lane_rows.get(index)
            if rows is None and hasattr(command, "row"):
                rows = [command.row] * len(lanes)
            if telemetry is not None:
                self._record_command(
                    telemetry, command, cycles, lanes, rows,
                    plan.violations[index], plan.violation_events[index])
            if isinstance(command, Activate):
                self.device.activate(command.bank, rows, lanes, cycles)
            elif isinstance(command, Precharge):
                self.device.precharge(command.bank, lanes, cycles)
            elif isinstance(command, PrechargeAll):
                self.device.precharge_all(lanes, cycles)
            elif isinstance(command, ReadRow):
                self.device.settle(lanes, cycles)
                reads.append(self.device.row_buffer_logical(
                    command.bank, rows, lanes))
            elif isinstance(command, WriteRow):
                self.device.settle(lanes, cycles)
                data = lane_data.get(index)
                if data is None:
                    data = np.asarray(command.data, dtype=bool)
                self.device.write_open(command.bank, rows, lanes, data)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown command {command!r}")
        lane_arr = np.asarray(lanes, dtype=np.intp)
        self.cycles[lane_arr] = base[lane_arr] + sequence.duration
        self.device.finish(lanes, self.cycles)
        return reads

    def idle(self, cycles: int, lanes: SequenceType[int]) -> None:
        """Advance the bus clock without issuing commands."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.cycles[np.asarray(lanes, dtype=np.intp)] += cycles
        self.device.finish(lanes, self.cycles)

    def _record_sequence(self, telemetry, sequence: CommandSequence,
                         lanes: SequenceType[int],
                         lane_rows: dict[int, SequenceType[int]]) -> None:
        n_lanes = len(lanes)
        telemetry.count("controller.sequences", n_lanes)
        if sequence.op:
            telemetry.count(f"controller.seq.{sequence.op}", n_lanes)
            if sequence.op == "frac":
                # One Frac operation per ACT/PRE pair, per lane.
                telemetry.count("controller.frac_ops",
                                (len(sequence) // 2) * n_lanes)
        if telemetry.tracer is None:
            return
        labels = [sequence.label] * n_lanes
        if lane_rows and sequence.op:
            # The template names the first lane's rows; label every lane
            # from the rows it activates.
            acts = [(index, timed.command)
                    for index, timed in enumerate(sequence)
                    if isinstance(timed.command, Activate)]
            activated = zip(*(lane_rows.get(index, [act.row] * n_lanes)
                              for index, act in acts))
            labels = [seq.sequence_label(sequence.op, acts[0][1].bank,
                                         [int(row) for row in rows])
                      for rows in activated]
        for lane, label in zip(lanes, labels):
            telemetry.emit("sequence", {
                "label": label,
                "op": sequence.op,
                "start_cycle": int(self.cycles[lane]),
                "duration": sequence.duration,
                "n_commands": len(sequence),
            })

    def _record_command(self, telemetry, command, cycles: np.ndarray,
                        lanes: SequenceType[int],
                        rows: SequenceType[int] | None,
                        violations, violation_events) -> None:
        n_lanes = len(lanes)
        telemetry.count("controller.commands", n_lanes)
        telemetry.count(f"controller.{command.KIND.lower()}", n_lanes)
        if violations:
            telemetry.count("controller.jedec_violations",
                            len(violations) * n_lanes)
            for violation in violations:
                telemetry.count(
                    f"controller.jedec.{violation.constraint.lower()}",
                    n_lanes)
        # One pre-rendered violation list per compiled plan, shared by
        # every lane's event — never mutated downstream.
        events = list(violation_events)
        for index, lane in enumerate(lanes):
            telemetry.emit("command", {
                "cmd": command.KIND,
                "bank": getattr(command, "bank", None),
                "row": int(rows[index]) if rows is not None else None,
                "cycle": int(cycles[lane]),
                "violations": events,
            })

    # ------------------------------------------------------------------
    # convenience wrappers (one per paper sequence, rows per lane)
    # ------------------------------------------------------------------

    def precharge_all(self, lanes: SequenceType[int]) -> None:
        self.run(seq.precharge_all_sequence(self.timing), lanes)

    def write_row(self, bank: int, rows: SequenceType[int],
                  bits: np.ndarray, lanes: SequenceType[int]) -> None:
        """In-spec ACT/WRITE/PRE; ``bits`` is ``(L, C)`` or broadcast ``(C,)``."""
        template = seq.write_row_sequence(bank, int(rows[0]), (), self.timing)
        self.run(template, lanes, lane_rows={0: rows, 1: rows},
                 lane_data={1: bits})

    def fill_row(self, bank: int, rows: SequenceType[int], value: bool,
                 lanes: SequenceType[int]) -> None:
        """Store all-ones or all-zeros into each lane's row."""
        bits = np.full(int(self.device.columns), bool(value))
        self.write_row(bank, rows, bits, lanes)

    def read_row(self, bank: int, rows: SequenceType[int],
                 lanes: SequenceType[int]) -> np.ndarray:
        (data,) = self.run(
            seq.read_row_sequence(bank, int(rows[0]), self.timing),
            lanes, lane_rows={0: rows, 1: rows})
        return data

    def refresh_row(self, bank: int, rows: SequenceType[int],
                    lanes: SequenceType[int]) -> None:
        self.run(seq.refresh_row_sequence(bank, int(rows[0]), self.timing),
                 lanes, lane_rows={0: rows})

    def frac(self, bank: int, rows: SequenceType[int],
             n_frac: int, lanes: SequenceType[int]) -> None:
        """Issue ``n_frac`` Frac operations on each lane's row."""
        template = seq.frac_sequence(bank, int(rows[0]), n_frac, self.timing)
        lane_rows = {2 * index: rows for index in range(n_frac)}
        self.run(template, lanes, lane_rows=lane_rows)

    def multi_row_activate(self, bank: int, r1s: SequenceType[int],
                           r2s: SequenceType[int],
                           lanes: SequenceType[int]) -> None:
        template = seq.multi_row_sequence(
            bank, int(r1s[0]), int(r2s[0]), self.timing, self.electrical)
        self.run(template, lanes, lane_rows={0: r1s, 2: r2s})

    def half_m(self, bank: int, r1s: SequenceType[int],
               r2s: SequenceType[int], lanes: SequenceType[int]) -> None:
        template = seq.half_m_sequence(
            bank, int(r1s[0]), int(r2s[0]), self.timing)
        self.run(template, lanes, lane_rows={0: r1s, 2: r2s})

    def row_copy(self, bank: int, srcs: SequenceType[int],
                 dsts: SequenceType[int], lanes: SequenceType[int]) -> None:
        template = seq.row_copy_sequence(
            bank, int(srcs[0]), int(dsts[0]), self.timing, self.electrical)
        self.run(template, lanes, lane_rows={0: srcs, 2: dsts})
