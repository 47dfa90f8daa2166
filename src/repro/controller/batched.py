"""Batched SoftMC: paper sequences across trial lanes.

:class:`BatchedSoftMC` drives a :class:`~repro.dram.batched.BatchedChip`
and mirrors :class:`~repro.controller.softmc.SoftMC` one-for-one, with
per-lane row vectors.  Per-lane cycle counters live in ``self.cycles``
(lane ``i`` of a batch is cycle-identical to scalar trial ``i``).

The in-spec wrappers (``write_row``, ``fill_row``, ``read_row``,
``frac``, ``row_copy`` and ``precharge_all``) are thin builders of
:mod:`repro.xir` programs: each builds one xir op and runs it on the
fused executor.  A wrapper replays its op per command (:meth:`replay`:
the op's compiler template, issued through :meth:`run`) only when the
device has an open row on one of its lanes or the compiler refuses the
op before any lane runs — a Frac on lanes that enforce command spacing,
whose dropped PRECHARGEs leave the row open, a row copy that crosses
sub-arrays, or such a lane's last command being too recent for the
compiled drop predictions.  Both paths produce the same bits, counters,
trace events and noise-stream positions.

:meth:`run` is the per-command walk: it issues one *template*
:class:`CommandSequence` to a set of lanes at once.  The sequence shape
(cycle offsets, command kinds, banks) is lane-uniform, while row
addresses and write data may vary per lane via ``lane_rows`` /
``lane_data`` overrides.  That split is exactly what makes the
compiled-plan cache (:mod:`repro.controller.plan`) sound here — JEDEC
violations never depend on rows or data, so one plan annotates every
lane and counter increments are simply multiplied by the lane count.
``multi_row_activate``, ``half_m`` and ``refresh_row`` stay on it: the
compiler refuses the activation glitch, and no xir op refreshes a row.

Strict (JEDEC-raising) mode is deliberately not offered: validation
campaigns run scalar.
"""

from __future__ import annotations

from typing import Mapping, Sequence as SequenceType

import numpy as np

from ..dram.batched import BatchedChip
from ..dram.parameters import MEMORY_CYCLE_NS, ElectricalParams, TimingParams
from ..telemetry.registry import active as _telemetry_active
from ..xir import ir
from ..xir.compile import XirLoweringError, template
from ..xir.executor import FusedRunner
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
    # xir ops: compiled, or replayed per command
    # ------------------------------------------------------------------

    def replay(self, op: ir.Op, *, rows: Mapping[str, SequenceType[int]],
               lanes: SequenceType[int],
               data: Mapping[str, np.ndarray] | None = None,
               ) -> list[np.ndarray]:
        """Issue ``op``'s command template per command through :meth:`run`.

        ``rows`` and ``data`` bind the op's parameters as
        :meth:`FusedRunner.run <repro.xir.executor.FusedRunner.run>`
        takes them.  This is the reference walk a wrapper falls back to,
        and the per-command oracle the compiled path is tested against.
        """
        sequence, row_params = template(op, self.timing, self.electrical)
        lane_rows = {index: rows[param] for index, param in row_params.items()}
        lane_data = {}
        if isinstance(op, (ir.WriteRow, ir.WriteData)):
            bits = (np.full(int(self.device.columns), op.value)
                    if isinstance(op, ir.WriteRow) else data[op.rows])
            lane_data = {index: bits for index, timed in enumerate(sequence)
                         if isinstance(timed.command, WriteRow)}
        return self.run(sequence, lanes, lane_rows=lane_rows,
                        lane_data=lane_data)

    def _run_op(self, op: ir.Op, lanes: SequenceType[int],
                rows: Mapping[str, SequenceType[int]],
                data: Mapping[str, np.ndarray] | None = None,
                ) -> list[np.ndarray]:
        """Run ``op`` as a one-op xir program, or :meth:`replay` it.

        A runner is built per call: caching one here would tie the
        controller and its runner into a reference cycle.
        """
        if self.device.lanes_idle(lanes):
            try:
                return FusedRunner(self).run((op,), rows=rows, lanes=lanes,
                                             data=data)
            except XirLoweringError:
                pass  # refused before any lane ran
        return self.replay(op, rows=rows, lanes=lanes, data=data)

    # ------------------------------------------------------------------
    # convenience wrappers (one per paper sequence, rows per lane)
    # ------------------------------------------------------------------

    def precharge_all(self, lanes: SequenceType[int]) -> None:
        self._run_op(ir.PrechargeAll(), lanes, {})

    def write_row(self, bank: int, rows: SequenceType[int],
                  bits: np.ndarray, lanes: SequenceType[int]) -> None:
        """In-spec ACT/WRITE/PRE; ``bits`` is ``(L, C)`` or broadcast ``(C,)``."""
        bits = np.broadcast_to(np.asarray(bits, dtype=bool),
                               (len(lanes), int(self.device.columns)))
        self._run_op(ir.WriteData(bank, "row"), lanes, {"row": rows},
                     {"row": bits})

    def fill_row(self, bank: int, rows: SequenceType[int], value: bool,
                 lanes: SequenceType[int]) -> None:
        """Store all-ones or all-zeros into each lane's row."""
        self._run_op(ir.WriteRow(bank, "row", bool(value)), lanes,
                     {"row": rows})

    def read_row(self, bank: int, rows: SequenceType[int],
                 lanes: SequenceType[int]) -> np.ndarray:
        (data,) = self._run_op(ir.ReadRow(bank, "row"), lanes, {"row": rows})
        return data

    def refresh_row(self, bank: int, rows: SequenceType[int],
                    lanes: SequenceType[int]) -> None:
        self.run(seq.refresh_row_sequence(bank, int(rows[0]), self.timing),
                 lanes, lane_rows={0: rows})

    def frac(self, bank: int, rows: SequenceType[int],
             n_frac: int, lanes: SequenceType[int]) -> None:
        """Issue ``n_frac`` Frac operations on each lane's row."""
        self._run_op(ir.Frac(bank, "row", n_frac), lanes, {"row": rows})

    def multi_row_activate(self, bank: int, r1s: SequenceType[int],
                           r2s: SequenceType[int],
                           lanes: SequenceType[int]) -> None:
        self.run(seq.multi_row_sequence(bank, int(r1s[0]), int(r2s[0]),
                                        self.timing, self.electrical),
                 lanes, lane_rows={0: r1s, 2: r2s})

    def half_m(self, bank: int, r1s: SequenceType[int],
               r2s: SequenceType[int], lanes: SequenceType[int]) -> None:
        self.run(seq.half_m_sequence(bank, int(r1s[0]), int(r2s[0]),
                                     self.timing),
                 lanes, lane_rows={0: r1s, 2: r2s})

    def row_copy(self, bank: int, srcs: SequenceType[int],
                 dsts: SequenceType[int], lanes: SequenceType[int]) -> None:
        self._run_op(ir.RowCopy(bank, "src", "dst"), lanes,
                     {"src": srcs, "dst": dsts})
