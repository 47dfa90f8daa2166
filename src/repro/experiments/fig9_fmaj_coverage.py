"""Experiment F9: Figure 9 — F-MAJ coverage vs configuration.

For each four-row-capable group (B, C, D) we sweep every F-MAJ
configuration — which opened row holds the fractional value (R1..R4),
the initial value before Frac (ones/zeros), and the number of Frac
operations — and measure coverage: the fraction of columns that produce
the correct majority for all six input combinations.  Group B also gets
the original three-row MAJ3 as the dashed baseline.

Every sub-array has its own sense-amp stripe and noise stream, so the
lane engine runs a group's sweep on one cohort of (chip serial,
sub-array target) views (:meth:`BatchedChip.from_subarray_views`): each
``f_maj``/``maj3`` call covers every target of every serial at once.

Paper expectations: a non-zero coverage for every group (F-MAJ works on
all four-row-capable chips); different groups favor different
configurations (B: frac in R2 init ones; C: R1 init ones; D: R4 init
zeros); B's best configuration beats the MAJ3 baseline (99.8% vs 98.0%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.stats import mean_confidence_interval
from ..core.batched_ops import BatchedFracDram
from ..core.ops import FMajConfig, FracDram, MultiRowPlan
from ..dram.batched import BatchedChip
from .base import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    input_combos,
    make_chip,
    make_fd,
    markdown_table,
    percent,
    subarray_targets,
)

__all__ = ["Fig9Curve", "Fig9Result", "run", "coverage_maj3", "coverage_fmaj",
           "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Figure 9: non-zero F-MAJ coverage on every four-row group; best "
    "configs are B: (R2, ones), C: (R1, ones), D: (R4, zeros); B's best "
    "coverage (paper 99.8%) exceeds the MAJ3 baseline (98.0%).")

FRAC_COUNTS = (0, 1, 2, 3, 4, 5)
GROUPS_WITH_FOUR_ROW = ("B", "C", "D")


def coverage_maj3(fd: FracDram, bank: int, subarray: int) -> float:
    """Fraction of columns computing all six MAJ3 combos correctly."""
    correct = np.ones(fd.columns, dtype=bool)
    for pattern, operands in input_combos(fd.columns):
        expected = sum(pattern) >= 2
        result = fd.maj3(bank, operands, subarray)
        correct &= result == expected
    return float(np.mean(correct))


def coverage_fmaj(fd: FracDram, config: FMajConfig, bank: int,
                  subarray: int) -> float:
    """Fraction of columns computing all six F-MAJ combos correctly."""
    correct = np.ones(fd.columns, dtype=bool)
    for pattern, operands in input_combos(fd.columns):
        expected = sum(pattern) >= 2
        result = fd.f_maj(bank, operands, config, subarray)
        correct &= result == expected
    return float(np.mean(correct))


@dataclass(frozen=True)
class Fig9Curve:
    """Coverage vs #Frac for one (group, frac row, init) configuration."""

    group_id: str
    frac_position: int
    init_ones: bool
    #: (mean, ci_low, ci_high) per Frac count.
    points: tuple[tuple[float, float, float], ...]

    @property
    def label(self) -> str:
        init = "ones" if self.init_ones else "zeros"
        return f"R{self.frac_position + 1} init {init}"

    @property
    def best(self) -> tuple[int, float]:
        """(n_frac, coverage) at this curve's best point."""
        means = [point[0] for point in self.points]
        index = int(np.argmax(means))
        return FRAC_COUNTS[index], means[index]


@dataclass(frozen=True)
class Fig9Result:
    curves: dict[str, tuple[Fig9Curve, ...]]
    maj3_baseline: float  # group B dashed line

    def best_curve(self, group_id: str) -> Fig9Curve:
        return max(self.curves[group_id], key=lambda curve: curve.best[1])

    def best_beats_baseline(self) -> bool:
        return self.best_curve("B").best[1] > self.maj3_baseline

    def all_groups_nonzero(self) -> bool:
        return all(self.best_curve(group).best[1] > 0.0
                   for group in self.curves)

    def format_table(self) -> str:
        lines = ["Figure 9 — F-MAJ coverage vs number of Frac operations"]
        for group_id, curves in self.curves.items():
            lines.append(f"\nGroup {group_id} (mean coverage, 95% CI "
                         "across chips/sub-arrays):")
            header = ("config \\ #Frac", *[str(n) for n in FRAC_COUNTS])
            rows = []
            for curve in curves:
                rows.append((curve.label,
                             *[f"{mean:.3f}" for mean, _, _ in curve.points]))
            lines.append(markdown_table(header, rows))
            best = self.best_curve(group_id)
            lines.append(f"best: {best.label} with {best.best[0]} Frac -> "
                         f"{percent(best.best[1])}")
        lines.append(f"\nGroup B MAJ3 baseline (dashed line): "
                     f"{percent(self.maj3_baseline)}")
        verdict = ("beats" if self.best_beats_baseline() else "does NOT beat")
        lines.append(f"Group B best F-MAJ {verdict} the MAJ3 baseline "
                     "(paper: 99.8% vs 98.0%).")
        return "\n".join(lines)


def _lanes_coverage(bfd: BatchedFracDram, plan: MultiRowPlan,
                    fmaj_config: FMajConfig | None,
                    lanes: list[int]) -> np.ndarray:
    """Per-lane coverage fraction for one (plan, config) on all lanes."""
    correct = np.ones((len(lanes), bfd.columns), dtype=bool)
    for pattern, operands in input_combos(bfd.columns):
        expected = sum(pattern) >= 2
        ops = np.broadcast_to(
            np.stack(operands), (len(lanes), 3, bfd.columns))
        if fmaj_config is None:
            result = bfd.maj3(plan, ops, lanes)
        else:
            result = bfd.f_maj(plan, ops, fmaj_config, lanes)
        correct &= result == expected
    # Mean over a row of bools is an exact integer sum / C: identical to
    # the scalar per-device ``np.mean`` regardless of reduction order.
    return correct.mean(axis=1)


def _group_payload(config: ExperimentConfig, group_id: str,
                   frac_counts: tuple[int, ...]):
    """One unit's data: (group_id, curves, maj3 values or None).

    The trial-batch lanes are (serial, sub-array target) views, serial
    major — the scalar sweep's value order.  Each view is one target
    sub-array of its serial's chip with its own noise stream, and the
    sweep never advances time, so each view consumes exactly that
    target's share of the scalar command stream (MAJ3 baseline first
    for group B, then the configuration sweep in frac-position / init /
    #Frac order) and the per-lane coverage values are byte-identical to
    the scalar serial loop.
    """
    targets = subarray_targets(config)
    serials = list(range(config.chips_per_group))
    if config.backend == "scalar":
        devices = [make_fd(group_id, config, serial) for serial in serials]
        maj3_values = None
        if group_id == "B":
            maj3_values = [
                coverage_maj3(fd, bank, subarray)
                for fd in devices for bank, subarray in targets]
        group_curves = []
        for frac_position in range(4):
            for init_ones in (True, False):
                points = []
                for n_frac in frac_counts:
                    fmaj_config = FMajConfig(frac_position, init_ones, n_frac)
                    values = [
                        coverage_fmaj(fd, fmaj_config, bank, subarray)
                        for fd in devices
                        for bank, subarray in targets
                    ]
                    points.append(mean_confidence_interval(values))
                group_curves.append(Fig9Curve(
                    group_id, frac_position, init_ones, tuple(points)))
        return (group_id, tuple(group_curves), maj3_values)
    # Plans depend only on (group, row map, geometry) — shared by every
    # view — so resolve them once, in view coordinates (bank 0,
    # sub-array 0), on a scalar donor.
    donor = make_fd(group_id, config, 0)
    chips = [make_chip(group_id, config, serial) for serial in serials]
    bfd = BatchedFracDram(BatchedChip.from_subarray_views(chips, targets))
    lanes = bfd.all_lanes()
    maj3_values = None
    if group_id == "B":
        maj3_values = _lanes_coverage(
            bfd, donor.triple_plan(0, 0), None, lanes).tolist()
    quad_plan = donor.quad_plan(0, 0)
    group_curves = []
    for frac_position in range(4):
        for init_ones in (True, False):
            points = []
            for n_frac in frac_counts:
                fmaj_config = FMajConfig(frac_position, init_ones, n_frac)
                points.append(mean_confidence_interval(_lanes_coverage(
                    bfd, quad_plan, fmaj_config, lanes)))
            group_curves.append(Fig9Curve(
                group_id, frac_position, init_ones, tuple(points)))
    return (group_id, tuple(group_curves), maj3_values)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# four-row-capable group; a unit's chips are fabricated from
# (master_seed, group, serial) alone, so its payload is independent of
# shard boundaries and engine.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[str, ...]:
    """One work unit per four-row-capable group."""
    return GROUPS_WITH_FOUR_ROW


def run_shard(config: ExperimentConfig, units,
              frac_counts: tuple[int, ...] = FRAC_COUNTS, **_kwargs) -> list:
    """Sweep the groups in ``units``; one payload per unit."""
    return [_group_payload(config, group_id, tuple(frac_counts))
            for group_id in units]


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Fig9Result:
    """Assemble per-group payloads (any order) into a :class:`Fig9Result`."""
    by_group = {payload[0]: payload for payload in payloads}
    curves: dict[str, tuple[Fig9Curve, ...]] = {}
    maj3_values: list[float] = []
    for group_id in GROUPS_WITH_FOUR_ROW:  # canonical order
        if group_id not in by_group:
            continue
        _, group_curves, group_maj3 = by_group[group_id]
        curves[group_id] = tuple(group_curves)
        if group_maj3:
            maj3_values.extend(group_maj3)
    return Fig9Result(curves, float(np.mean(maj3_values)))


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        frac_counts: tuple[int, ...] = FRAC_COUNTS) -> Fig9Result:
    return merge(config, run_shard(config, shard_units(config),
                                   frac_counts=frac_counts))
