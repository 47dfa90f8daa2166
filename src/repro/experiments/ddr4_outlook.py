"""Experiment DDR4: the Section VII outlook, executable.

The paper argues (via QUAC-TRNG) that DDR4 modules support four-row
activation and therefore F-MAJ and Half-m "potentially".  On the
hypothetical DDR4 profiles (Q1-Q3) we run exactly the checks that
argument needs:

* three-row activation absent, four-row present (the DDR3 group C/D
  situation, where only F-MAJ enables in-memory majority),
* F-MAJ coverage with each group's preferred configuration,
* QUAC-style TRNG throughput and a basic randomness gate.

These are projections from hypothetical calibrations, not measurements of
DDR4 silicon — the point is that every DDR4-relevant code path runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ops import FracDram
from ..dram.chip import DramChip
from ..dram.ddr4 import DDR4_GROUPS
from ..puf.nist import frequency_test, runs_test
from ..trng import QuacTrng
from .base import DEFAULT_CONFIG, ExperimentConfig, markdown_table, percent
from .fig9_fmaj_coverage import coverage_fmaj

__all__ = ["Ddr4GroupOutlook", "Ddr4OutlookResult", "run", "shard_units",
           "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Section VII: DDR4 modules open four rows (QUAC-TRNG), so F-MAJ and "
    "the TRNG should work there; three-row MAJ3 remains impossible.")


@dataclass(frozen=True)
class Ddr4GroupOutlook:
    group_id: str
    vendor: str
    three_row: bool
    four_row: bool
    fmaj_coverage: float
    trng_throughput_mbps: float
    trng_random: bool


@dataclass(frozen=True)
class Ddr4OutlookResult:
    groups: tuple[Ddr4GroupOutlook, ...]

    def outlook_holds(self) -> bool:
        return all(
            (not group.three_row) and group.four_row
            and group.fmaj_coverage > 0.9 and group.trng_random
            for group in self.groups)

    def format_table(self) -> str:
        lines = ["DDR4 outlook (hypothetical Q1-Q3 profiles; Section VII)"]
        lines.append(markdown_table(
            ("group", "vendor", "3-row", "4-row", "F-MAJ coverage",
             "TRNG Mbit/s", "TRNG random"),
            [(g.group_id, g.vendor,
              "yes" if g.three_row else "",
              "yes" if g.four_row else "",
              percent(g.fmaj_coverage),
              f"{g.trng_throughput_mbps:.1f}",
              "yes" if g.trng_random else "NO")
             for g in self.groups]))
        lines.append("\nProjection from hypothetical calibrations — the "
                     "claim is that the DDR4-relevant code paths all work, "
                     "not that these numbers describe real DDR4 silicon.")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# hypothetical DDR4 group; each unit fabricates its own chips, so units
# never share state.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[str, ...]:
    """One work unit per DDR4 profile."""
    return tuple(DDR4_GROUPS)


def run_shard(config: ExperimentConfig, units,
              trng_bits: int = 4000, **_kwargs) -> list:
    """Run the outlook checks for each group in ``units``; payloads are
    the per-group :class:`Ddr4GroupOutlook` rows."""
    payloads = []
    for group_id in units:
        profile = DDR4_GROUPS[group_id]
        chip = DramChip(profile, geometry=config.geometry(),
                        master_seed=config.master_seed)
        fd = FracDram(chip)
        coverage = float(np.mean([
            coverage_fmaj(fd, profile.preferred_fmaj, bank, subarray)
            for bank in range(config.n_banks)
            for subarray in range(config.subarrays_per_bank)]))
        trng = QuacTrng(DramChip(profile, geometry=config.geometry(),
                                 master_seed=config.master_seed, serial=1))
        bits, stats = trng.generate(trng_bits)
        random_ok = frequency_test(bits).passed() and runs_test(bits).passed()
        payloads.append(Ddr4GroupOutlook(
            group_id=group_id,
            vendor=profile.vendor,
            three_row=fd.can_three_row,
            four_row=fd.can_four_row,
            fmaj_coverage=coverage,
            trng_throughput_mbps=stats.throughput_mbps,
            trng_random=random_ok,
        ))
    return payloads


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Ddr4OutlookResult:
    """Assemble the outlook rows in DDR4 profile order."""
    by_group = {group.group_id: group for group in payloads}
    return Ddr4OutlookResult(
        tuple(by_group[group_id] for group_id in DDR4_GROUPS))


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        trng_bits: int = 4000) -> Ddr4OutlookResult:
    units = shard_units(config)
    return merge(config, run_shard(config, units, trng_bits=trng_bits))
