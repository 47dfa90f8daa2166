"""Batched SoftMC: paper sequences across trial lanes, compiled.

:class:`BatchedSoftMC` mirrors :class:`~repro.controller.softmc.SoftMC`
over a :class:`~repro.dram.batched.BatchedChip`, with per-lane row
vectors.  Per-lane cycle counters live in ``self.cycles`` (lane ``i``
of a batch is cycle-identical to scalar trial ``i``).

Each wrapper (``write_row``, ``fill_row``, ``read_row``,
``refresh_row``, ``frac``, ``row_copy``, ``multi_row_activate``,
``half_m`` and ``precharge_all``) is a thin builder: it builds one
:mod:`repro.xir` op and runs it as a one-op program on the fused
executor, the lane engine's only walker.  The op's command stream is
:func:`repro.xir.compile.template`, the same one the scalar controller
issues per command, so every lane's bits, counters, trace events and
noise-stream position are the scalar trial's.  An op the compiler
refuses raises :class:`~repro.xir.compile.XirLoweringError` before any
lane runs; the scalar engine is the per-command reference.

Strict (JEDEC-raising) mode is deliberately not offered: validation
campaigns run scalar.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Sequence as SequenceType

import numpy as np

from ..dram.batched import BatchedChip
from ..dram.parameters import MEMORY_CYCLE_NS, ElectricalParams, TimingParams
from ..xir import ir
from ..xir.executor import FusedRunner

__all__ = ["BatchedSoftMC"]


class BatchedSoftMC:
    """Software memory controller running paper sequences across lanes."""

    def __init__(self, device: BatchedChip, *,
                 timing: TimingParams | None = None,
                 electrical: ElectricalParams | None = None) -> None:
        self.device = device
        self.timing = timing or TimingParams()
        self.electrical = electrical or device.groups[0].electrical
        #: Per-lane cycle counters (lane i mirrors scalar trial i).
        self.cycles = np.zeros(device.n_lanes, dtype=np.int64)
        #: The fused executor every op runs on.  It refers back to this
        #: controller weakly, so the two form no reference cycle (an
        #: enrollment cohort is freed when dropped, not at the next
        #: cyclic GC), and its bind caches serve repeated calls.
        self.runner = FusedRunner(weakref.proxy(self))

    @property
    def n_lanes(self) -> int:
        return self.device.n_lanes

    def all_lanes(self) -> list[int]:
        return list(range(self.device.n_lanes))

    def elapsed_ns(self, lane: int) -> float:
        """Wall-clock bus time consumed so far by ``lane``."""
        return int(self.cycles[lane]) * MEMORY_CYCLE_NS

    def _run_op(self, op: ir.Op, lanes: SequenceType[int],
                rows: Mapping[str, SequenceType[int]],
                data: Mapping[str, np.ndarray] | None = None,
                ) -> list[np.ndarray]:
        """Run ``op`` as a one-op xir program."""
        return self.runner.run((op,), rows=rows, lanes=lanes, data=data)

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
        self._run_op(ir.RefreshRow(bank, "row"), lanes, {"row": rows})

    def frac(self, bank: int, rows: SequenceType[int],
             n_frac: int, lanes: SequenceType[int]) -> None:
        """Issue ``n_frac`` Frac operations on each lane's row."""
        self._run_op(ir.Frac(bank, "row", n_frac), lanes, {"row": rows})

    def multi_row_activate(self, bank: int, r1s: SequenceType[int],
                           r2s: SequenceType[int],
                           lanes: SequenceType[int]) -> None:
        self._run_op(ir.MultiRow(bank, "r1", "r2"), lanes,
                     {"r1": r1s, "r2": r2s})

    def half_m(self, bank: int, r1s: SequenceType[int],
               r2s: SequenceType[int], lanes: SequenceType[int]) -> None:
        self._run_op(ir.HalfM(bank, "r1", "r2"), lanes,
                     {"r1": r1s, "r2": r2s})

    def row_copy(self, bank: int, srcs: SequenceType[int],
                 dsts: SequenceType[int], lanes: SequenceType[int]) -> None:
        self._run_op(ir.RowCopy(bank, "src", "dst"), lanes,
                     {"src": srcs, "dst": dsts})
