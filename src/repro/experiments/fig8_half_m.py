"""Experiment F8: Figure 8 — evaluation of the Half-m primitive.

On group B's four-row set {8, 1, 0, 9} we store three data layouts and
evaluate the frozen result of the interrupted four-row activation:

* **Half** — ones in R1/R3, zeros in R2/R4 (two-vs-two split),
* **weak one** — all ones in the four rows,
* **weak zero** — all zeros.

Measurements mirror the paper: a retention-time PDF of the Half value
(compared against the fractional value from five Frac ops as a reference)
and of the weak one, plus the MAJ3 X1/X2 test on each layout.

Paper expectation: the Half retention PDF resembles the 5x-Frac reference;
weak ones retain like normal ones; MAJ3 shows weak ones giving X1=X2=1,
weak zeros X1=X2=0, and only a minority (~16%) of columns yielding the
distinguishable Half signature X1=1, X2=0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.retention import (
    N_BUCKETS,
    RETENTION_BUCKET_LABELS,
    RETENTION_PROBE_TIMES_S,
)
from ..core.batched_ops import BatchedFracDram
from ..core.ops import FracDram, MultiRowPlan
from ..core.verify import COMBO_LABELS
from ..dram.batched import BatchedChip
from .base import (DEFAULT_CONFIG, ExperimentConfig, make_fd, markdown_table,
                   percent)

__all__ = ["Fig8Result", "run", "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Figure 8: Half retention PDF ~= 5x-Frac reference; weak ones retain "
    "like normal ones; MAJ3 distinguishes the Half value on a minority of "
    "columns (~16%) while weak ones/zeros behave as normal ones/zeros.")

LAYOUTS = ("half", "weak_one", "weak_zero")


def _layout_bits(layout: str, columns: int) -> list[np.ndarray]:
    """Initial values for the opened rows (R1, R2, R3, R4)."""
    ones = np.ones(columns, dtype=bool)
    zeros = np.zeros(columns, dtype=bool)
    if layout == "half":
        return [ones, zeros, ones, zeros]
    if layout == "weak_one":
        return [ones, ones, ones, ones]
    if layout == "weak_zero":
        return [zeros, zeros, zeros, zeros]
    raise ValueError(f"unknown layout {layout!r}")


def _prepare_half_m(fd: FracDram, bank: int, layout: str,
                    subarray: int) -> MultiRowPlan:
    plan = fd.quad_plan(bank, subarray)
    for row, bits in zip(plan.opened, _layout_bits(layout, fd.columns)):
        fd.write_row(bank, row, bits)
    fd.half_m_activate(plan)
    return plan


def _retention_bucket(fd: FracDram, bank: int, subarray: int,
                      prepare, measure_row: int) -> np.ndarray:
    """Bucket the retention of whatever ``prepare`` stores in ``measure_row``."""
    n_cols = fd.columns
    bucket = np.full(n_cols, N_BUCKETS - 1, dtype=int)
    resolved = np.zeros(n_cols, dtype=bool)
    for probe_index, wait_s in enumerate(RETENTION_PROBE_TIMES_S):
        prepare()
        if wait_s > 0:
            fd.precharge_all()
            fd.advance_time(wait_s)
        alive = fd.read_row(bank, measure_row).astype(bool)
        newly_dead = ~alive & ~resolved
        bucket[newly_dead] = probe_index
        resolved |= newly_dead
    return bucket


def _maj3_x1_x2(fd: FracDram, bank: int, layout: str,
                subarray: int) -> tuple[np.ndarray, np.ndarray]:
    """The MAJ3 test on a Half-m result (carrier in local row 2)."""
    triple = fd.triple_plan(bank, subarray)
    carrier = triple.opened[1]  # local row 2

    _prepare_half_m(fd, bank, layout, subarray)
    fd.fill_row(bank, carrier, True)
    fd.multi_row_activate(triple)
    x1 = fd.read_row(bank, triple.opened[0]).astype(bool)

    _prepare_half_m(fd, bank, layout, subarray)
    fd.fill_row(bank, carrier, False)
    fd.multi_row_activate(triple)
    x2 = fd.read_row(bank, triple.opened[0]).astype(bool)
    return x1, x2


def _pdf(bucket: np.ndarray) -> np.ndarray:
    counts = np.bincount(bucket, minlength=N_BUCKETS)
    return counts / counts.sum()


@dataclass(frozen=True)
class Fig8Result:
    half_retention_pdf: np.ndarray
    frac5_reference_pdf: np.ndarray
    weak_one_retention_pdf: np.ndarray
    maj3_fractions: dict[str, dict[str, float]]

    @property
    def half_distinguishable_fraction(self) -> float:
        return self.maj3_fractions["half"]["X1=1,X2=0"]

    def weak_values_behave_normally(self) -> bool:
        """Weak ones/zeros act as normal values for the vast majority of
        columns (the paper reports "decent quality", not a percentage)."""
        return (self.maj3_fractions["weak_one"]["X1=1,X2=1"] > 0.90
                and self.maj3_fractions["weak_zero"]["X1=0,X2=0"] > 0.90)

    def format_table(self) -> str:
        lines = ["Figure 8 — Half-m evaluation on group B"]
        lines.append("\nRetention PDFs (fraction of cells per bucket):")
        header = ("bucket", "Half value", "5x Frac reference", "weak one")
        rows = []
        for bucket in range(N_BUCKETS - 1, -1, -1):
            rows.append((RETENTION_BUCKET_LABELS[bucket],
                         f"{self.half_retention_pdf[bucket]:.2f}",
                         f"{self.frac5_reference_pdf[bucket]:.2f}",
                         f"{self.weak_one_retention_pdf[bucket]:.2f}"))
        lines.append(markdown_table(header, rows))
        lines.append("\nMAJ3 outcomes per layout:")
        header = ("layout", *COMBO_LABELS)
        rows = [(layout,
                 *[f"{self.maj3_fractions[layout][label]:.3f}"
                   for label in COMBO_LABELS])
                for layout in LAYOUTS]
        lines.append(markdown_table(header, rows))
        lines.append(
            f"\nDistinguishable Half value on "
            f"{percent(self.half_distinguishable_fraction)} of columns "
            "(paper: ~16%)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# measurement — a retention PDF or one layout's MAJ3 test — on a fresh
# group-B chip whose noise is reseeded to the unit's index, so units
# never share analog state or stream position (the original
# implementation threaded one chip through every measurement, which made
# the measurements order-dependent and unshardable).
# ----------------------------------------------------------------------

#: Unit index doubles as the chip's noise epoch.
UNITS: tuple[tuple[str, str], ...] = (
    ("retention", "half"),
    ("retention", "weak_one"),
    ("retention", "frac5"),
    ("maj3", "half"),
    ("maj3", "weak_one"),
    ("maj3", "weak_zero"),
)


def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[tuple[int, str, str], ...]:
    """One work unit per (epoch, measurement kind, layout)."""
    return tuple((index, kind, layout)
                 for index, (kind, layout) in enumerate(UNITS))


def _batched_prepare_half_m(bfd: BatchedFracDram, plan: MultiRowPlan,
                            layouts, lanes) -> None:
    per_lane = [_layout_bits(layout, bfd.columns) for layout in layouts]
    for position, row in enumerate(plan.opened):
        bits = np.stack([bits_for_lane[position] for bits_for_lane in per_lane])
        bfd.write_row(plan.bank, [row] * len(lanes), bits, lanes)
    bfd.half_m_activate(plan, lanes)


def _batched_retention_bucket(bfd: BatchedFracDram, bank: int, prepare,
                              measure_row: int, lanes) -> np.ndarray:
    """Lane-major ``(L, C)`` retention buckets (see ``_retention_bucket``)."""
    n = len(lanes)
    bucket = np.full((n, bfd.columns), N_BUCKETS - 1, dtype=int)
    resolved = np.zeros((n, bfd.columns), dtype=bool)
    for probe_index, wait_s in enumerate(RETENTION_PROBE_TIMES_S):
        prepare()
        if wait_s > 0:
            bfd.precharge_all(lanes)
            bfd.advance_time(wait_s, lanes)
        alive = bfd.read_row(bank, [measure_row] * n, lanes).astype(bool)
        newly_dead = ~alive & ~resolved
        bucket[newly_dead] = probe_index
        resolved |= newly_dead
    return bucket


def _fleet(config: ExperimentConfig, group_id: str, epochs) -> BatchedFracDram:
    return BatchedFracDram(BatchedChip.from_fleet(
        [(group_id, 0)] * len(epochs), geometry=config.geometry(),
        master_seed=config.master_seed, epochs=list(epochs)))


def run_shard(config: ExperimentConfig, units, group_id: str = "B",
              **_kwargs) -> list:
    """Measure each unit in ``units``; payloads are ``(unit, data)``.

    Units sharing a command-stream shape batch as lanes of one device
    cohort — the same serial-0 chip at each unit's noise epoch: the two
    Half-m retention PDFs together, the MAJ3 layouts together, the
    5x-Frac reference on its own — byte-identical to the scalar
    per-unit loop.
    """
    units = list(units)
    bank, subarray = 0, 0
    if config.backend == "scalar":
        payloads = []
        for index, kind, layout in units:
            fd = make_fd(group_id, config, serial=0)
            fd.device.reseed_noise(index)
            quad = fd.quad_plan(bank, subarray)
            measure_row = quad.opened[1]  # local row 1 holds the result
            if (kind, layout) == ("retention", "frac5"):
                def prepare() -> None:
                    fd.fill_row(bank, measure_row, True)
                    fd.frac(bank, measure_row, 5)
                data = _retention_bucket(fd, bank, subarray, prepare,
                                         measure_row)
            elif kind == "retention":
                data = _retention_bucket(
                    fd, bank, subarray,
                    lambda: _prepare_half_m(fd, bank, layout, subarray),
                    measure_row)
            else:
                data = _maj3_x1_x2(fd, bank, layout, subarray)
            payloads.append(((index, kind, layout), data))
        return payloads

    donor = make_fd(group_id, config, serial=0)
    quad = donor.quad_plan(bank, subarray)
    triple = donor.triple_plan(bank, subarray)
    measure_row = quad.opened[1]
    by_shape: dict[str, list[tuple[int, str, str]]] = {}
    for unit in units:
        index, kind, layout = unit
        shape = "frac5" if (kind, layout) == ("retention", "frac5") else kind
        by_shape.setdefault(shape, []).append(unit)
    payloads = []
    for shape, cohort in by_shape.items():
        bfd = _fleet(config, group_id, [index for index, _, _ in cohort])
        lanes = bfd.all_lanes()
        layouts = [layout for _, _, layout in cohort]
        if shape == "frac5":
            def prepare() -> None:
                bfd.fill_row(bank, [measure_row] * len(lanes), True, lanes)
                bfd.frac(bank, [measure_row] * len(lanes), 5, lanes)
            buckets = _batched_retention_bucket(bfd, bank, prepare,
                                                measure_row, lanes)
            payloads.extend((unit, buckets[lane].copy())
                            for lane, unit in enumerate(cohort))
        elif shape == "retention":
            buckets = _batched_retention_bucket(
                bfd, bank,
                lambda: _batched_prepare_half_m(bfd, quad, layouts, lanes),
                measure_row, lanes)
            payloads.extend((unit, buckets[lane].copy())
                            for lane, unit in enumerate(cohort))
        else:
            carrier = triple.opened[1]  # local row 2
            _batched_prepare_half_m(bfd, quad, layouts, lanes)
            bfd.fill_row(bank, [carrier] * len(lanes), True, lanes)
            bfd.multi_row_activate(triple, lanes)
            x1 = bfd.read_row(bank, [triple.opened[0]] * len(lanes),
                              lanes).astype(bool)
            _batched_prepare_half_m(bfd, quad, layouts, lanes)
            bfd.fill_row(bank, [carrier] * len(lanes), False, lanes)
            bfd.multi_row_activate(triple, lanes)
            x2 = bfd.read_row(bank, [triple.opened[0]] * len(lanes),
                              lanes).astype(bool)
            payloads.extend(
                (unit, (x1[lane].copy(), x2[lane].copy()))
                for lane, unit in enumerate(cohort))
    return payloads


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Fig8Result:
    """Assemble the PDFs and MAJ3 outcome shares from unit payloads."""
    by_unit = {(kind, layout): data
               for (_, kind, layout), data in payloads}
    maj3_fractions: dict[str, dict[str, float]] = {}
    for layout in LAYOUTS:
        x1, x2 = by_unit[("maj3", layout)]
        maj3_fractions[layout] = {
            "X1=1,X2=1": float(np.mean(x1 & x2)),
            "X1=0,X2=0": float(np.mean(~x1 & ~x2)),
            "X1=1,X2=0": float(np.mean(x1 & ~x2)),
            "X1=0,X2=1": float(np.mean(~x1 & x2)),
        }
    return Fig8Result(
        half_retention_pdf=_pdf(by_unit[("retention", "half")]),
        frac5_reference_pdf=_pdf(by_unit[("retention", "frac5")]),
        weak_one_retention_pdf=_pdf(by_unit[("retention", "weak_one")]),
        maj3_fractions=maj3_fractions,
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        group_id: str = "B") -> Fig8Result:
    units = shard_units(config)
    return merge(config, run_shard(config, units, group_id=group_id))
