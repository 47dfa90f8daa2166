"""Experiment F6: Figure 6 — retention-time profiles under 0-5 Frac ops.

For each Frac-capable group (A-I) we profile sampled rows: the PDF of
retention buckets per Frac count (the heat-map columns of Figure 6) and
the three-way cell classification printed in the figure's brackets as
``[long retention, monotonic decrease, others]``.

Paper expectation: issuing more Frac operations shifts the PDF mass toward
shorter retention; on average ~55% of cells show a monotonic decrease,
~44% stay in the > 12 h bucket, < 1% behave irregularly (VRT).  Groups
J/K/L show no change at all and are omitted from the paper's plot; we
include them with a flat profile check instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.retention import (
    N_BUCKETS,
    RETENTION_BUCKET_LABELS,
    BatchedRetentionProfiler,
    CellCategory,
    RetentionProfile,
    RetentionProfiler,
)
from ..core.batched_ops import BatchedFracDram
from ..dram.batched import BatchedChip
from ..dram.rng import derive_rng
from ..dram.vendor import GROUPS
from .base import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    make_chip,
    make_fd,
    markdown_table,
    percent,
)

__all__ = ["Fig6GroupResult", "Fig6Result", "run", "shard_units",
           "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Figure 6: PDF mass moves to shorter retention buckets as Frac count "
    "rises; on average ~55% of cells decrease monotonically, <1% are "
    "irregular; groups J/K/L are unaffected.")

FRAC_COUNTS = (0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Fig6GroupResult:
    """One group's heat-map column data and category split."""

    group_id: str
    profile: RetentionProfile

    @property
    def categories(self) -> dict[str, float]:
        return self.profile.category_fractions()

    def bracket(self) -> str:
        """The paper's ``[long, monotonic, others]`` annotation."""
        cats = self.categories
        return (f"[{cats[CellCategory.LONG]:.2f}, "
                f"{cats[CellCategory.MONOTONIC]:.2f}, "
                f"{cats[CellCategory.OTHER]:.2f}]")


@dataclass(frozen=True)
class Fig6Result:
    groups: tuple[Fig6GroupResult, ...]
    unaffected_groups: tuple[str, ...]

    def mean_monotonic_fraction(self) -> float:
        return float(np.mean(
            [g.categories[CellCategory.MONOTONIC] for g in self.groups]))

    def format_table(self) -> str:
        lines = ["Figure 6 — retention-time PDFs (rows: buckets; cols: #Frac)"]
        for group in self.groups:
            lines.append(f"\nGroup {group.group_id}  {group.bracket()} "
                         "[long, monotonic, others]")
            pdf = group.profile.pdf_matrix()
            header = ("bucket \\ #Frac", *[str(n) for n in FRAC_COUNTS])
            rows = []
            for bucket in range(N_BUCKETS - 1, -1, -1):
                rows.append((RETENTION_BUCKET_LABELS[bucket],
                             *[f"{pdf[i, bucket]:.2f}"
                               for i in range(len(FRAC_COUNTS))]))
            lines.append(markdown_table(header, rows))
        lines.append(
            f"\nMean monotonic-decrease fraction: "
            f"{percent(self.mean_monotonic_fraction())} (paper: ~55%)")
        lines.append(
            "Groups unaffected by Frac (omitted from the paper's plot): "
            + ", ".join(self.unaffected_groups))
        return "\n".join(lines)


def _sample_rows(config: ExperimentConfig, rows_per_bank_sample: int,
                 rng: np.random.Generator, rows_per_bank: int,
                 n_banks: int) -> list[tuple[int, int]]:
    targets = []
    for bank in range(n_banks):
        rows = rng.choice(rows_per_bank, size=min(rows_per_bank_sample,
                                                  rows_per_bank), replace=False)
        targets.extend((bank, int(row)) for row in rows)
    return targets


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# vendor group; each unit draws its row sample from a dedicated RNG
# stream derived from (master_seed, "fig6", group_id), so a unit's
# result is independent of which shard executes it or in what order.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[str, ...]:
    """One work unit per vendor group, in Table I order."""
    return tuple(GROUPS)


def _classify(group_id: str, retention: RetentionProfile):
    """Payload for one profiled group (shared by both execution paths)."""
    if not GROUPS[group_id].frac_capable:
        # Sanity check the paper's omission: Frac must have no effect
        # (up to VRT-cell noise on repeated measurements).
        baseline = retention.buckets[0]
        changed = max(
            float(np.mean(retention.buckets[i] != baseline))
            for i in range(len(FRAC_COUNTS)))
        kind = "unaffected" if changed < 0.02 else "irregular"
        return (kind, group_id, None)
    return ("capable", group_id, retention)


def _unit_targets(config: ExperimentConfig, group_id: str,
                  rows_per_bank_sample: int) -> list[tuple[int, int]]:
    geometry = config.geometry()
    rng = derive_rng(config.master_seed, "fig6", group_id)
    return _sample_rows(config, rows_per_bank_sample, rng,
                        geometry.rows_per_bank, geometry.n_banks)


def run_shard(config: ExperimentConfig, units,
              rows_per_bank_sample: int = 2, **_kwargs) -> list:
    """Profile the groups in ``units``; one payload per unit.

    Payloads are ``(kind, group_id, profile)`` with ``kind`` one of
    ``"capable"`` (profile attached), ``"unaffected"`` (Frac provably
    has no effect) or ``"irregular"`` (non-capable group that failed
    the flat-profile sanity check).

    Groups are profiled as lanes of one trial batch (one lane per
    unit); lane ``i`` consumes exactly the command stream and noise
    draws of a scalar run on group ``i``, so payloads are byte-identical
    to the scalar per-group loop.
    """
    units = list(units)
    if config.backend == "scalar":
        payloads = []
        for group_id in units:
            fd = make_fd(group_id, config, serial=0)
            targets = _unit_targets(config, group_id, rows_per_bank_sample)
            retention = RetentionProfiler(fd).profile_rows(targets, FRAC_COUNTS)
            payloads.append(_classify(group_id, retention))
        return payloads
    chips = [make_chip(group_id, config, serial=0) for group_id in units]
    per_lane_targets = [_unit_targets(config, group_id, rows_per_bank_sample)
                        for group_id in units]
    profiler = BatchedRetentionProfiler(
        BatchedFracDram(BatchedChip.from_chips(chips)))
    retentions = profiler.profile_rows(per_lane_targets, FRAC_COUNTS)
    return [_classify(group_id, retention)
            for group_id, retention in zip(units, retentions)]


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Fig6Result:
    """Assemble per-group payloads (any order) into a :class:`Fig6Result`."""
    by_group = {group_id: (kind, retention)
                for kind, group_id, retention in payloads}
    results = []
    unaffected = []
    for group_id in GROUPS:  # canonical Table I order
        if group_id not in by_group:
            continue
        kind, retention = by_group[group_id]
        if kind == "capable":
            results.append(Fig6GroupResult(group_id, retention))
        elif kind == "unaffected":
            unaffected.append(group_id)
    return Fig6Result(tuple(results), tuple(unaffected))


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        rows_per_bank_sample: int = 2) -> Fig6Result:
    """Profile retention for every Frac-capable group."""
    return merge(config, run_shard(config, shard_units(config),
                                   rows_per_bank_sample=rows_per_bank_sample))
