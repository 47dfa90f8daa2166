"""Experiment F7: Figure 7 — MAJ3 verification of Frac (X1/X2 outcomes).

Runs the Section IV-B2 destructive verification on group B for 0-5 Frac
operations in the four configurations of Figure 7: fractional values in
(R1, R2) or (R1, R3), starting from all ones or all zeros.  For every
setting we report the proportion of columns yielding each (X1, X2)
combination.

Paper expectation: with no Frac, X1 = X2 = the initial value; as Frac
operations accumulate, the combination X1 = 1, X2 = 0 (the fractional-
value signature) dominates and is the only outcome for >= 2 Frac ops.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..core.batched_ops import BatchedFracDram
from ..core.verify import (COMBO_LABELS, batched_verify_frac_by_maj3,
                           verify_frac_by_maj3)
from ..dram.batched import BatchedChip
from .base import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    make_fd,
    markdown_table,
    subarray_targets,
)

__all__ = ["Fig7Setting", "Fig7Result", "run", "shard_units", "run_shard",
           "merge"]

PAPER_EXPECTATION = (
    "Figure 7: baseline (0 Frac) gives X1=X2=init value; X1=1,X2=0 "
    "dominates from 1 Frac and is the only outcome for >= 2 Frac ops, for "
    "both row choices and both initial values.")

FRAC_COUNTS = (0, 1, 2, 3, 4, 5)

#: The four subfigures of Figure 7.
SETTINGS: tuple[tuple[str, bool], ...] = (
    ("R1R2", True),   # (a) frac in R1,R2; init ones
    ("R1R2", False),  # (b) frac in R1,R2; init zeros
    ("R1R3", True),   # (c) frac in R1,R3; init ones
    ("R1R3", False),  # (d) frac in R1,R3; init zeros
)


@dataclass(frozen=True)
class Fig7Setting:
    """Results for one subfigure: combo fractions per Frac count."""

    frac_rows: str
    init_ones: bool
    #: fractions[n_frac_index][combo_label] averaged over sub-arrays.
    fractions: tuple[dict[str, float], ...]

    @property
    def label(self) -> str:
        init = "ones" if self.init_ones else "zeros"
        return f"frac in {self.frac_rows}, init {init}"

    def verified_at(self, n_frac_index: int) -> float:
        return self.fractions[n_frac_index]["X1=1,X2=0"]


@dataclass(frozen=True)
class Fig7Result:
    settings: tuple[Fig7Setting, ...]

    def format_table(self) -> str:
        lines = ["Figure 7 — MAJ3 verification outcomes on group B"]
        for setting in self.settings:
            lines.append(f"\n({setting.label})")
            header = ("#Frac", *COMBO_LABELS)
            rows = []
            for index, n_frac in enumerate(FRAC_COUNTS):
                combo = setting.fractions[index]
                rows.append((n_frac, *[f"{combo[label]:.3f}"
                                       for label in COMBO_LABELS]))
            lines.append(markdown_table(header, rows))
        return "\n".join(lines)

    def fractional_values_proven(self) -> bool:
        """The paper's headline claim: X1=1,X2=0 dominates for >=2 Frac."""
        return all(
            setting.verified_at(index) > 0.95
            for setting in self.settings
            for index, n_frac in enumerate(FRAC_COUNTS) if n_frac >= 2)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# chip under one (setting, Frac count) cell, ``(setting_index, n_frac,
# serial)``: the scalar loop fabricates a fresh chip per cell anyway, so
# units never share state.  Averaging happens at merge time, replaying
# the scalar serial-major/target-minor float accumulation order.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[tuple[int, int, int], ...]:
    """One work unit per (setting, Frac count, chip serial)."""
    return tuple((setting_index, n_frac, serial)
                 for setting_index in range(len(SETTINGS))
                 for n_frac in FRAC_COUNTS
                 for serial in range(config.chips_per_group))


def run_shard(config: ExperimentConfig, units, group_id: str = "B",
              **_kwargs) -> list:
    """Run the verification procedure for each unit in ``units``.

    Payloads are ``(setting_index, n_frac, serial, combos)`` with
    ``combos`` one combo-fraction dict per sub-array target in
    :func:`subarray_targets` order.  Serials within one (setting,
    Frac count) cell are lanes of a :meth:`BatchedChip.from_fleet`
    device cohort; the shared multi-row plan is resolved once on a
    scalar donor — byte-identical to the scalar per-unit loop.
    """
    units = list(units)
    if config.backend == "scalar":
        payloads = []
        for setting_index, n_frac, serial in units:
            frac_rows, init_ones = SETTINGS[setting_index]
            fd = make_fd(group_id, config, serial)
            combos = []
            for bank, subarray in subarray_targets(config):
                result = verify_frac_by_maj3(
                    fd, bank, frac_rows=frac_rows, init_ones=init_ones,
                    n_frac=n_frac, subarray=subarray)
                combos.append(result.combo_fractions())
            payloads.append((setting_index, n_frac, serial, combos))
        return payloads
    donor = make_fd(group_id, config, serial=0)
    plans = [donor.triple_plan(bank, subarray)
             for bank, subarray in subarray_targets(config)]
    by_cell: dict[tuple[int, int], list[int]] = {}
    for setting_index, n_frac, serial in units:
        by_cell.setdefault((setting_index, n_frac), []).append(serial)
    payloads = []
    geometry = config.geometry()
    for (setting_index, n_frac), serials in by_cell.items():
        frac_rows, init_ones = SETTINGS[setting_index]
        device = BatchedChip.from_fleet(
            [(group_id, serial) for serial in serials],
            geometry=geometry, master_seed=config.master_seed)
        bfd = BatchedFracDram(device)
        per_lane: list[list[dict[str, float]]] = [[] for _ in serials]
        for plan in plans:
            results = batched_verify_frac_by_maj3(
                bfd, plan, frac_rows=frac_rows, init_ones=init_ones,
                n_frac=n_frac)
            for lane, result in enumerate(results):
                per_lane[lane].append(result.combo_fractions())
        payloads.extend((setting_index, n_frac, serial, per_lane[lane])
                        for lane, serial in enumerate(serials))
    return payloads


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Fig7Result:
    """Average combo fractions in the scalar accumulation order."""
    by_unit = {(setting_index, n_frac, serial): combos
               for setting_index, n_frac, serial, combos in payloads}
    serials = sorted({serial for (_, _, serial) in by_unit})
    settings = []
    for setting_index, (frac_rows, init_ones) in enumerate(SETTINGS):
        per_count: list[dict[str, float]] = []
        for n_frac in FRAC_COUNTS:
            combo_sums = {label: 0.0 for label in COMBO_LABELS}
            samples = 0
            for serial in serials:
                for combo in by_unit[(setting_index, n_frac, serial)]:
                    for label, value in combo.items():
                        combo_sums[label] += value
                    samples += 1
            per_count.append({label: value / samples
                              for label, value in combo_sums.items()})
        settings.append(Fig7Setting(frac_rows, init_ones, tuple(per_count)))
    return Fig7Result(tuple(settings))


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        group_id: str = "B") -> Fig7Result:
    """Run all four Figure 7 settings over every chip and sub-array."""
    units = shard_units(config)
    return merge(config, run_shard(config, units, group_id=group_id))
