"""Fused Frac-PUF evaluation (fig11, nist, serving) on the xir pipeline.

:class:`FusedFracPuf` keeps :class:`~repro.puf.batched_puf
.BatchedFracPuf`'s challenge handling (reserved-row bookkeeping, noise
epochs, stacking) and fuses the evaluation hot path — row copy, the
``n_frac`` Frac burst, the destructive read — into compiled xir
programs.  :meth:`evaluate_many` chains the *entire* challenge set into
one program, inserting each sub-array's one-time reserved-row fill as an
:class:`~repro.xir.ir.WriteRow` at exactly the position the lazy
batched fill would run (first touch, in challenge order), so command
order and per-lane RNG draw order match the batched engine bit for bit.
A whole HD collection then costs one bind + one kernel replay, and the
program compiles once per fill pattern per process (epoch 0 carries the
fills; every later epoch reuses the fill-free shape).
"""

from __future__ import annotations

import numpy as np

from ..puf.batched_puf import BatchedFracPuf
from ..puf.frac_puf import Challenge, reserved_row
from . import ir

__all__ = ["FusedFracPuf"]


class FusedFracPuf(BatchedFracPuf):
    """Challenge/response PUF with the fused evaluation pass."""

    def evaluate_many(self, challenges: list[Challenge]) -> np.ndarray:
        """Stacked responses, ``(n_lanes, len(challenges), response_bits)``.

        The whole challenge set runs as one chained program; lane ``i``
        still equals the scalar ``FracPuf.evaluate_many`` for module
        ``i`` byte for byte (reserved-row fills land at their lazy
        first-touch positions, draws stay in per-lane stream order).
        """
        if not challenges:
            return np.empty((self.n_lanes, 0, self.response_bits), dtype=bool)
        rows_per_subarray = int(self.bfd.device.geometry.rows_per_subarray)
        n_lanes = self.n_lanes
        ops: list[ir.Op] = []
        rows: dict[str, list[int]] = {}
        prepared = set(self._prepared_reserved)
        for index, challenge in enumerate(challenges):
            bank, row = challenge.bank, challenge.row
            reserved = reserved_row(row, rows_per_subarray)
            if (bank, reserved) not in prepared:
                ops.append(ir.WriteRow(bank, f"fill{index}", True))
                rows[f"fill{index}"] = [reserved] * n_lanes
                prepared.add((bank, reserved))
            ops.append(ir.RowCopy(bank, f"res{index}", f"row{index}"))
            ops.append(ir.Frac(bank, f"row{index}", self.n_frac))
            ops.append(ir.ReadRow(bank, f"row{index}"))
            rows[f"res{index}"] = [reserved] * n_lanes
            rows[f"row{index}"] = [row] * n_lanes
        reads = self.bfd.run_program(tuple(ops), rows=rows)
        self._prepared_reserved = prepared
        return np.stack(reads, axis=1)
