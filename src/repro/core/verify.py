"""Destructive verification of fractional values (Section IV-B).

A fractional value cannot simply be read out — activation fires the sense
amplifiers, which rail the cell.  The paper proposes two indirect methods,
both implemented here:

* **MAJ3 method** (:func:`verify_frac_by_maj3`) — perform MAJ3 twice with
  the same fractional value in two operand rows and a carrier of all-ones
  (giving X1) then all-zeros (giving X2).  Columns where X1 = 1 and X2 = 0
  prove the stored value was neither rail: a genuine fractional value.

* **Retention method** — the monotone relationship between initial cell
  voltage and retention time; implemented in
  :mod:`repro.analysis.retention` and re-exported here for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..errors import ConfigurationError
from ..xir import ir
from .ops import FracDram, MultiRowPlan

__all__ = ["MajVerifyResult", "verify_frac_by_maj3",
           "batched_verify_frac_by_maj3", "COMBO_LABELS"]

#: The four possible (X1, X2) outcomes, in reporting order.
COMBO_LABELS: tuple[str, ...] = ("X1=1,X2=1", "X1=0,X2=0", "X1=1,X2=0", "X1=0,X2=1")

FracRowSpec = Literal["R1R2", "R1R3"]


@dataclass(frozen=True)
class MajVerifyResult:
    """Per-column X1/X2 outcomes of the MAJ3 verification procedure."""

    x1: np.ndarray
    x2: np.ndarray

    @property
    def verified_mask(self) -> np.ndarray:
        """Columns proving a fractional value (X1 = 1 and X2 = 0)."""
        return self.x1 & ~self.x2

    @property
    def verified_fraction(self) -> float:
        return float(np.mean(self.verified_mask))

    def combo_fractions(self) -> dict[str, float]:
        """Proportion of columns in each (X1, X2) combination (Figure 7)."""
        x1, x2 = self.x1, self.x2
        return {
            "X1=1,X2=1": float(np.mean(x1 & x2)),
            "X1=0,X2=0": float(np.mean(~x1 & ~x2)),
            "X1=1,X2=0": float(np.mean(x1 & ~x2)),
            "X1=0,X2=1": float(np.mean(~x1 & x2)),
        }


def _prepare_frac_rows(fd: FracDram, plan: MultiRowPlan, rows: tuple[int, ...],
                       init_ones: bool, n_frac: int) -> None:
    for row in rows:
        fd.fill_row(plan.bank, row, init_ones)
        if n_frac > 0:
            fd.frac(plan.bank, row, n_frac)


def verify_frac_by_maj3(
    fd: FracDram,
    bank: int,
    *,
    frac_rows: FracRowSpec = "R1R2",
    init_ones: bool = True,
    n_frac: int = 1,
    subarray: int = 0,
) -> MajVerifyResult:
    """Run the Section IV-B2 procedure on one sub-array's MAJ3 triple.

    ``frac_rows`` selects which two of the opened triple (R1, R2, R3) hold
    the fractional value — the paper evaluates both "R1R2" (carrier in R3)
    and "R1R3" (carrier in R2).  ``n_frac = 0`` is the no-Frac baseline,
    in which the rows simply hold the init value.
    """
    plan = fd.triple_plan(bank, subarray)
    r1, r2, r3 = plan.opened
    if frac_rows == "R1R2":
        fractional, carrier = (r1, r2), r3
    elif frac_rows == "R1R3":
        fractional, carrier = (r1, r3), r2
    else:
        raise ConfigurationError(
            f"frac_rows must be 'R1R2' or 'R1R3', got {frac_rows!r}")

    ones = np.ones(fd.columns, dtype=bool)

    _prepare_frac_rows(fd, plan, fractional, init_ones, n_frac)
    fd.write_row(bank, carrier, ones)
    fd.multi_row_activate(plan)
    x1 = fd.read_row(bank, plan.opened[0])

    _prepare_frac_rows(fd, plan, fractional, init_ones, n_frac)
    fd.write_row(bank, carrier, ~ones)
    fd.multi_row_activate(plan)
    x2 = fd.read_row(bank, plan.opened[0])

    return MajVerifyResult(x1=x1.astype(bool), x2=x2.astype(bool))


def batched_verify_frac_by_maj3(
    bfd,
    plan: MultiRowPlan,
    *,
    frac_rows: FracRowSpec = "R1R2",
    init_ones: bool = True,
    n_frac: int = 1,
    lanes: "list[int] | None" = None,
) -> list[MajVerifyResult]:
    """Run :func:`verify_frac_by_maj3` on every lane of a batch at once.

    ``bfd`` is a :class:`~repro.core.batched_ops.BatchedFracDram`; the
    plan is shared across lanes (it depends only on decoder/row-map/
    geometry, uniform within a group cohort).  Lane ``i`` of the result
    list is byte-identical to the scalar procedure on chip ``i``.

    ``lanes`` restricts the pass to a subset of the batch — the serving
    layer uses this to run per-vendor-group attestation sub-passes on a
    mixed :meth:`~repro.dram.batched.BatchedChip.from_fleet` cohort,
    whose groups resolve different multi-row plans.  The result list is
    ordered like ``lanes`` (default: all lanes in order).

    Each pass runs its in-spec phases as compiled :mod:`repro.xir`
    programs: one prepares the fractional rows (write, then the Frac
    ladder when ``n_frac > 0``) and then the carrier, and one reads the
    result row.  Only the three-row activation between them runs per
    command (the compiler refuses to lower its decoder glitch).
    """
    r1, r2, r3 = plan.opened
    if frac_rows == "R1R2":
        fractional, carrier = (r1, r2), r3
    elif frac_rows == "R1R3":
        fractional, carrier = (r1, r3), r2
    else:
        raise ConfigurationError(
            f"frac_rows must be 'R1R2' or 'R1R3', got {frac_rows!r}")

    if lanes is None:
        lanes = bfd.all_lanes()
    else:
        lanes = [int(lane) for lane in lanes]
        if not lanes:
            return []
    bank = plan.bank

    def uniform(row: int) -> list[int]:
        return [int(row)] * len(lanes)

    rows = {"carrier": uniform(carrier), "result": uniform(plan.opened[0])}
    prepare: tuple[ir.Op, ...] = ()
    for slot, row in enumerate(fractional):
        param = f"frac{slot}"
        rows[param] = uniform(row)
        prepare += (ir.WriteRow(bank, param, init_ones),)
        if n_frac > 0:
            prepare += (ir.Frac(bank, param, n_frac),)

    def maj3_pass(carrier_ones: bool) -> np.ndarray:
        bfd.run_program(
            prepare + (ir.WriteRow(bank, "carrier", carrier_ones),),
            rows=rows, lanes=lanes)
        bfd.multi_row_activate(plan, lanes)
        (read,) = bfd.run_program((ir.ReadRow(bank, "result"),),
                                  rows=rows, lanes=lanes)
        return read

    x1 = maj3_pass(True)
    x2 = maj3_pass(False)

    return [MajVerifyResult(x1=x1[lane].astype(bool),
                            x2=x2[lane].astype(bool))
            for lane in range(len(lanes))]
