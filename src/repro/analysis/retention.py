"""Retention-time profiling (Sections IV-B1 and V-A, Figure 6).

The retention method turns the invisible cell voltage into an observable:
the higher the starting voltage, the longer the cell holds a readable one.
The profiler reproduces the paper's procedure exactly:

1. store all-ones into the target row;
2. issue ``n_frac`` Frac operations (zero for the baseline);
3. stop all command traffic for time ``t`` (simulated leakage);
4. read the row; bits that read zero have retention below ``t``.

Repeating with increasing ``t`` brackets each cell's retention into the
paper's six coarse ranges: 0, 0-10 min, 10-30 min, 30-60 min, 1-12 h,
> 12 h.  A retention of exactly zero means the final Frac already pushed
the voltage below the sensing threshold.

Cells are then classified by how their retention range moves as more Frac
operations are issued (Figure 6's bracket numbers):

* ``long`` — always in the > 12 h bucket (never profiled down);
* ``monotonic`` — retention never increases and strictly decreases at
  least once: the proof-of-concept population (~55% in the paper);
* ``other`` — irregular movement, attributed to variable retention time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.batched_ops import BatchedFracDram
from ..core.ops import FracDram
from ..xir import ir

__all__ = [
    "RETENTION_PROBE_TIMES_S",
    "RETENTION_BUCKET_LABELS",
    "N_BUCKETS",
    "BatchedRetentionProfiler",
    "CellCategory",
    "RetentionProfile",
    "RetentionProfiler",
    "classify_cells",
]

#: Probe times bracketing the paper's six buckets (seconds).
RETENTION_PROBE_TIMES_S: tuple[float, ...] = (0.0, 600.0, 1800.0, 3600.0, 43200.0)

RETENTION_BUCKET_LABELS: tuple[str, ...] = (
    "0", "0-10min", "10-30min", "30-60min", "1-12h", ">12h")

N_BUCKETS: int = len(RETENTION_BUCKET_LABELS)


class CellCategory:
    """Figure 6 cell categories."""

    LONG = "long"
    MONOTONIC = "monotonic"
    OTHER = "other"


@dataclass(frozen=True)
class RetentionProfile:
    """Bucket indices per (frac count, column) for one profiled row.

    ``buckets[i, c]`` is the retention bucket of column ``c`` after
    ``n_fracs[i]`` Frac operations; bucket ``N_BUCKETS - 1`` is > 12 h.
    """

    n_fracs: tuple[int, ...]
    buckets: np.ndarray

    def pdf(self, frac_index: int) -> np.ndarray:
        """Probability density over the six buckets at one Frac count."""
        counts = np.bincount(self.buckets[frac_index], minlength=N_BUCKETS)
        return counts / counts.sum()

    def pdf_matrix(self) -> np.ndarray:
        """(len(n_fracs), N_BUCKETS) PDF heat-map column data (Figure 6)."""
        return np.stack([self.pdf(i) for i in range(len(self.n_fracs))])

    def category_fractions(self) -> dict[str, float]:
        categories = classify_cells(self.buckets)
        total = categories.size
        return {
            CellCategory.LONG: float(np.mean(categories == CellCategory.LONG)),
            CellCategory.MONOTONIC: float(
                np.mean(categories == CellCategory.MONOTONIC)),
            CellCategory.OTHER: float(np.mean(categories == CellCategory.OTHER)),
        } if total else {}


def classify_cells(buckets: np.ndarray) -> np.ndarray:
    """Classify each column by its bucket trajectory across Frac counts.

    ``buckets`` has shape (n_frac_settings, n_columns).
    """
    top = N_BUCKETS - 1
    always_top = np.all(buckets == top, axis=0)
    non_increasing = np.all(np.diff(buckets, axis=0) <= 0, axis=0)
    decreases = np.any(np.diff(buckets, axis=0) < 0, axis=0)
    monotonic = non_increasing & decreases & ~always_top
    categories = np.full(buckets.shape[1], CellCategory.OTHER, dtype=object)
    categories[monotonic] = CellCategory.MONOTONIC
    categories[always_top] = CellCategory.LONG
    return categories


class RetentionProfiler:
    """Runs the bracketing procedure on rows of one device."""

    def __init__(self, fd: FracDram, *,
                 probe_times_s: Sequence[float] = RETENTION_PROBE_TIMES_S) -> None:
        if list(probe_times_s) != sorted(probe_times_s):
            raise ValueError("probe times must be ascending")
        self.fd = fd
        self.probe_times_s = tuple(probe_times_s)

    def _alive_after(self, bank: int, row: int, n_frac: int,
                     wait_s: float) -> np.ndarray:
        """One pass: init ones, Frac, leak, read; True where the bit held."""
        self.fd.fill_row(bank, row, True)
        if n_frac > 0:
            self.fd.frac(bank, row, n_frac)
        if wait_s > 0:
            # Chips with command-spacing checks drop the Frac PRECHARGEs
            # and leave the row open; close everything before leaking.
            self.fd.precharge_all()
            self.fd.advance_time(wait_s)
        return self.fd.read_row(bank, row).astype(bool)

    def bucket_row(self, bank: int, row: int, n_frac: int) -> np.ndarray:
        """Retention bucket index per column for one Frac count."""
        n_cols = self.fd.columns
        bucket = np.full(n_cols, N_BUCKETS - 1, dtype=int)
        resolved = np.zeros(n_cols, dtype=bool)
        for probe_index, wait_s in enumerate(self.probe_times_s):
            alive = self._alive_after(bank, row, n_frac, wait_s)
            newly_dead = ~alive & ~resolved
            bucket[newly_dead] = probe_index
            resolved |= newly_dead
            if resolved.all():
                break
        return bucket

    def profile_row(self, bank: int, row: int,
                    n_fracs: Sequence[int] = (0, 1, 2, 3, 4, 5),
                    ) -> RetentionProfile:
        """Full Figure 6 profile of one row across Frac counts."""
        buckets = np.stack(
            [self.bucket_row(bank, row, n) for n in n_fracs])
        return RetentionProfile(tuple(n_fracs), buckets)

    def profile_rows(self, targets: Sequence[tuple[int, int]],
                     n_fracs: Sequence[int] = (0, 1, 2, 3, 4, 5),
                     ) -> RetentionProfile:
        """Profile several (bank, row) targets and pool their columns."""
        profiles = [self.profile_row(bank, row, n_fracs) for bank, row in targets]
        pooled = np.concatenate([p.buckets for p in profiles], axis=1)
        return RetentionProfile(tuple(n_fracs), pooled)


class BatchedRetentionProfiler:
    """The bracketing procedure across all lanes of a batched device.

    Lane ``i`` of the batch produces bit-for-bit the profile the scalar
    :class:`RetentionProfiler` produces on lane ``i``'s donor chip: the
    per-probe early exit (stop probing a row once every column has
    resolved) is tracked per lane, so a lane that resolves early simply
    drops out of the remaining probe passes — exactly the commands (and
    noise draws) its scalar run would have skipped.
    """

    def __init__(self, bfd: BatchedFracDram, *,
                 probe_times_s: Sequence[float] = RETENTION_PROBE_TIMES_S) -> None:
        if list(probe_times_s) != sorted(probe_times_s):
            raise ValueError("probe times must be ascending")
        self.bfd = bfd
        self.probe_times_s = tuple(probe_times_s)

    def _alive_after(self, bank: int, sub_rows: Sequence[int], n_frac: int,
                     wait_s: float, lanes: Sequence[int]) -> np.ndarray:
        """One pass over ``lanes``; returns ``(len(lanes), C)`` bools.

        The pass is one xir program per ``(n_frac, wait?)`` shape; the
        shapes repeat across every probed row, probe time and lane
        cohort, so a whole figure runs on a handful of compilations.
        """
        ops: list[ir.Op] = [ir.WriteRow(bank, "t", True)]
        if n_frac > 0:
            ops.append(ir.Frac(bank, "t", n_frac))
        if wait_s > 0:
            # Chips with command-spacing checks drop the Frac PRECHARGEs
            # and leave the row open; close everything before leaking.
            ops.append(ir.PrechargeAll())
            ops.append(ir.Leak("w"))
        ops.append(ir.ReadRow(bank, "t"))
        (alive,) = self.bfd.run_program(ops, rows={"t": sub_rows},
                                        dts={"w": wait_s}, lanes=lanes)
        return alive

    def bucket_row(self, bank: int, rows: Sequence[int], n_frac: int,
                   lanes: Sequence[int]) -> np.ndarray:
        """Bucket index per (lane, column); ``rows`` is indexed by lane id.

        Lanes outside ``lanes`` keep the default (> 12 h) bucket.
        """
        n_cols = self.bfd.columns
        bucket = np.full((self.bfd.n_lanes, n_cols), N_BUCKETS - 1, dtype=int)
        resolved = np.zeros((self.bfd.n_lanes, n_cols), dtype=bool)
        active = list(lanes)
        for probe_index, wait_s in enumerate(self.probe_times_s):
            sub_rows = [rows[lane] for lane in active]
            alive = self._alive_after(bank, sub_rows, n_frac, wait_s, active)
            active_arr = np.asarray(active, dtype=np.intp)
            newly_dead = ~alive & ~resolved[active_arr]
            bucket[active_arr] = np.where(
                newly_dead, probe_index, bucket[active_arr])
            resolved[active_arr] |= newly_dead
            active = [lane for lane in active if not resolved[lane].all()]
            if not active:
                break
        return bucket

    def profile_row(self, bank: int, rows: Sequence[int],
                    n_fracs: Sequence[int], lanes: Sequence[int]) -> np.ndarray:
        """``(len(n_fracs), n_lanes, C)`` buckets for one target per lane."""
        return np.stack(
            [self.bucket_row(bank, rows, n, lanes) for n in n_fracs])

    def profile_rows(self, per_lane_targets: Sequence[Sequence[tuple[int, int]]],
                     n_fracs: Sequence[int] = (0, 1, 2, 3, 4, 5),
                     lanes: Sequence[int] | None = None,
                     ) -> list[RetentionProfile]:
        """Profile one target list per lane; pool columns per lane.

        ``per_lane_targets[i]`` is the (bank, row) list for ``lanes[i]``;
        all lists must have the same length and target ``j`` must name the
        same bank on every lane (rows may differ — target sampling is
        bank-major and lane-uniform in counts, so this always holds for
        the experiment harnesses).
        """
        if lanes is None:
            lanes = list(range(self.bfd.n_lanes))
        n_targets = len(per_lane_targets[0])
        if any(len(targets) != n_targets for targets in per_lane_targets):
            raise ValueError("per-lane target lists must have equal length")
        per_target: list[np.ndarray] = []
        for j in range(n_targets):
            banks = {targets[j][0] for targets in per_lane_targets}
            if len(banks) != 1:
                raise ValueError(
                    f"target {j} names multiple banks {sorted(banks)}")
            rows = [0] * self.bfd.n_lanes
            for position, lane in enumerate(lanes):
                rows[lane] = per_lane_targets[position][j][1]
            per_target.append(
                self.profile_row(banks.pop(), rows, n_fracs, lanes))
        return [
            RetentionProfile(
                tuple(n_fracs),
                np.concatenate([pt[:, lane, :] for pt in per_target], axis=1))
            for lane in lanes
        ]
