"""Batched FracDRAM facade: paper operations across trial lanes.

:class:`BatchedFracDram` mirrors :class:`~repro.core.ops.FracDram` over a
:class:`~repro.dram.batched.BatchedChip`: every operation takes per-lane
row vectors (and ``(L, C)`` operand planes) and runs once across all
lanes instead of L scalar times, as compiled :mod:`repro.xir` programs —
the primitives through :class:`BatchedSoftMC`'s wrappers, one op each,
the multi-row activation and Half-m included.

``maj3``/``f_maj`` run their operand stores and Frac ladder as one
program, the multi-row activation through
:meth:`BatchedSoftMC.multi_row_activate`, and the readout as a third.
Every program starts and ends precharged, so each lane's command stream
and noise draws stay those of the scalar primitives.  Program shapes
depend only on static fields (row count, ``init_ones``, ``n_frac``), so
each flow compiles once and replays across trials.

Multi-row operations take a pre-resolved
:class:`~repro.core.ops.MultiRowPlan`.  Plans depend only on the vendor
decoder profile, the row map and the geometry, so experiments resolve
them once on a scalar :class:`FracDram` donor and share them across all
lanes of a batch — which also keeps the (deliberately fiddly) glitch
planning logic in exactly one place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..controller.batched import BatchedSoftMC
from ..dram.batched import BatchedChip
from ..errors import ConfigurationError
from ..xir import ir
from .ops import FMajConfig, MultiRowPlan

__all__ = ["BatchedFracDram"]


class BatchedFracDram:
    """High-level FracDRAM operations over a batched device."""

    def __init__(self, device: BatchedChip) -> None:
        self.device = device
        # Command templates are shared across lanes, so every lane must
        # agree on electrical timing (a fleet batch may mix vendor groups
        # otherwise — decoders, couplings and polarity stay per lane).
        electrical = device.groups[0].electrical
        for group in device.groups[1:]:
            if group.electrical != electrical:
                raise ConfigurationError(
                    "all lanes of a batch must share electrical timing "
                    f"(lane group {group.group_id!r} differs from "
                    f"{device.groups[0].group_id!r})")
        self.mc = BatchedSoftMC(device, electrical=electrical)

    @property
    def n_lanes(self) -> int:
        return self.device.n_lanes

    def all_lanes(self) -> list[int]:
        return list(range(self.device.n_lanes))

    @property
    def columns(self) -> int:
        return int(self.device.columns)

    def _uniform(self, row: int, lanes: Sequence[int]) -> list[int]:
        return [int(row)] * len(lanes)

    # ------------------------------------------------------------------
    # basic data path
    # ------------------------------------------------------------------

    def write_row(self, bank: int, rows: Sequence[int], bits: np.ndarray,
                  lanes: Sequence[int]) -> None:
        self.mc.write_row(bank, rows, bits, lanes)

    def fill_row(self, bank: int, rows: Sequence[int], value: bool,
                 lanes: Sequence[int]) -> None:
        self.mc.fill_row(bank, rows, value, lanes)

    def read_row(self, bank: int, rows: Sequence[int],
                 lanes: Sequence[int]) -> np.ndarray:
        return self.mc.read_row(bank, rows, lanes)

    def precharge_all(self, lanes: Sequence[int]) -> None:
        self.mc.precharge_all(lanes)

    def advance_time(self, seconds: float, lanes: Sequence[int]) -> None:
        self.device.advance_time(seconds, lanes)

    # ------------------------------------------------------------------
    # FracDRAM primitives
    # ------------------------------------------------------------------

    def frac(self, bank: int, rows: Sequence[int], n_frac: int,
             lanes: Sequence[int]) -> None:
        self.mc.frac(bank, rows, n_frac, lanes)

    def row_copy(self, bank: int, srcs: Sequence[int], dsts: Sequence[int],
                 lanes: Sequence[int]) -> None:
        self.mc.row_copy(bank, srcs, dsts, lanes)

    def multi_row_activate(self, plan: MultiRowPlan,
                           lanes: Sequence[int]) -> None:
        r1, r2 = plan.act_pair
        self.mc.multi_row_activate(plan.bank, self._uniform(r1, lanes),
                                   self._uniform(r2, lanes), lanes)

    def half_m_activate(self, plan: MultiRowPlan,
                        lanes: Sequence[int]) -> None:
        r1, r2 = plan.act_pair
        self.mc.half_m(plan.bank, self._uniform(r1, lanes),
                       self._uniform(r2, lanes), lanes)

    def run_program(self, ops: Sequence[ir.Op], *,
                    rows: dict[str, Sequence[int]],
                    dts: dict[str, float] | None = None,
                    lanes: Sequence[int] | None = None,
                    data: dict[str, np.ndarray] | None = None,
                    ) -> list[np.ndarray]:
        """Run an xir program on this driver's controller."""
        return self.mc.runner.run(ops, rows=rows, dts=dts, lanes=lanes,
                                data=data)

    # ------------------------------------------------------------------
    # in-memory majority (plan shared, operands per lane)
    # ------------------------------------------------------------------

    def maj3(self, plan: MultiRowPlan, operands: np.ndarray,
             lanes: Sequence[int]) -> np.ndarray:
        """Majority-of-three; ``operands`` is ``(L, 3, C)`` lane-major."""
        ops, rows, data = self._store_program(plan, operands, None, lanes)
        self.mc.runner.run(ops, rows=rows, lanes=lanes, data=data)
        self.multi_row_activate(plan, lanes)
        return self._read_result(plan, 0, lanes)

    def f_maj(self, plan: MultiRowPlan, operands: np.ndarray,
              config: FMajConfig, lanes: Sequence[int]) -> np.ndarray:
        """F-MAJ via four-row activation; ``operands`` is ``(L, 3, C)``."""
        if not 0 <= config.frac_position < plan.n_rows:
            raise ConfigurationError(
                f"frac_position {config.frac_position} outside opened set")
        frac_row = plan.opened[config.frac_position]
        store_ops, rows, data = self._store_program(
            plan, operands, config.frac_position, lanes)
        ops = (ir.WriteRow(plan.bank, "fr", config.init_ones),)
        if config.n_frac > 0:
            ops += (ir.Frac(plan.bank, "fr", config.n_frac),)
        rows["fr"] = self._uniform(frac_row, lanes)
        self.mc.runner.run(ops + store_ops, rows=rows, lanes=lanes, data=data)
        self.multi_row_activate(plan, lanes)
        result_position = 0 if config.frac_position != 0 else 1
        return self._read_result(plan, result_position, lanes)

    def _store_program(self, plan: MultiRowPlan, operands: np.ndarray,
                       skip_position: int | None, lanes: Sequence[int],
                       ) -> tuple[tuple[ir.Op, ...], dict[str, list[int]],
                                  dict[str, np.ndarray]]:
        operands = np.asarray(operands, dtype=bool)
        target_positions = [index for index in range(plan.n_rows)
                            if index != skip_position]
        expected = (len(lanes), len(target_positions), self.columns)
        if operands.shape != expected:
            raise ConfigurationError(
                f"operand shape {operands.shape} != {expected}")
        ops: tuple[ir.Op, ...] = ()
        rows: dict[str, list[int]] = {}
        data: dict[str, np.ndarray] = {}
        for slot, position in enumerate(target_positions):
            param = f"op{slot}"
            ops += (ir.WriteData(plan.bank, param),)
            rows[param] = self._uniform(plan.opened[position], lanes)
            data[param] = operands[:, slot]
        return ops, rows, data

    def _read_result(self, plan: MultiRowPlan, position: int,
                     lanes: Sequence[int]) -> np.ndarray:
        (read,) = self.mc.runner.run(
            (ir.ReadRow(plan.bank, "rd"),),
            rows={"rd": self._uniform(plan.opened[position], lanes)},
            lanes=lanes)
        return read
