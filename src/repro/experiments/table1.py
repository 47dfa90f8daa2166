"""Experiment T1: reproduce Table I — per-group capability matrix.

The probes are purely behavioural (no simulator introspection), mirroring
how the authors characterized real chips:

* **Frac capability** — initialize a row to all ones, issue ten Frac
  operations, read back: a chip that honors the out-of-spec sequence
  yields a mixed readout (the sense amps resolve ~Vdd/2 by their offsets);
  a chip with command-spacing checks returns the intact all-ones data.

* **Multi-row activation** — for every row pair (R1, R2) in a sub-array,
  store a shared random pattern in R1/R2 and distinct random patterns
  everywhere else, issue ACT(R1)-PRE-ACT(R2), and count how many *other*
  rows were overwritten: one extra row means a three-row activation, two
  extra rows a four-row activation (the Section VI-A.1 exploration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..analysis.reverse_engineering import (batched_probe_opened_rows,
                                            probe_opened_rows)
from ..core.batched_ops import BatchedFracDram
from ..core.ops import FracDram
from ..dram.batched import BatchedChip
from ..dram.vendor import GROUPS, GroupProfile
from ..xir import ir
from .base import (DEFAULT_CONFIG, ExperimentConfig, make_fd, markdown_table)

__all__ = ["Table1Row", "Table1Result", "run", "probe_frac", "probe_pair",
           "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Table I: groups A-I support Frac; only B supports three-row "
    "activation; B, C, D support four-row activation; J, K, L support "
    "nothing (command-spacing checks).")


@dataclass(frozen=True)
class Table1Row:
    """Measured capabilities of one group."""

    group_id: str
    vendor: str
    freq_mhz: int
    n_chips: int
    frac: bool
    three_row: bool
    four_row: bool

    def matches(self, profile: GroupProfile) -> bool:
        return (self.frac == profile.frac_capable
                and self.three_row == profile.three_row
                and self.four_row == profile.four_row)


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]
    matches_paper: bool

    def format_table(self) -> str:
        def check(flag: bool) -> str:
            return "yes" if flag else ""

        body = [
            (row.group_id, row.vendor, row.freq_mhz, row.n_chips,
             check(row.frac), check(row.three_row), check(row.four_row))
            for row in self.rows
        ]
        table = markdown_table(
            ("Group", "Vendor", "Freq(MHz)", "#Chips", "Frac",
             "Three-row-activation", "Four-row-activation"),
            body)
        verdict = ("matches Table I" if self.matches_paper
                   else "DEVIATES from Table I")
        return f"{table}\n\nCapability matrix {verdict}."


def probe_frac(fd: FracDram, bank: int = 0, row: int = 1) -> bool:
    """Behavioural Frac probe: does 10x Frac disturb stored all-ones?"""
    fd.fill_row(bank, row, True)
    fd.frac(bank, row, 10)
    weight = float(np.mean(fd.read_row(bank, row)))
    return 0.02 < weight < 0.98


def probe_pair(fd: FracDram, bank: int, r1: int, r2: int,
               rng: np.random.Generator,
               changed_threshold: float = 0.15,
               repeats: int = 2) -> int:
    """Count rows opened by ACT(r1)-PRE-ACT(r2) within r1's sub-array.

    Delegates to the black-box probe in
    :mod:`repro.analysis.reverse_engineering`; returns 2 when no extra
    rows open (or the chip dropped the sequence).
    """
    opened = probe_opened_rows(fd, bank, r1, r2, rng,
                               changed_threshold=changed_threshold,
                               repeats=repeats)
    return len(opened)


def probe_multi_row_support(fd: FracDram, bank: int = 0,
                            max_rows: int = 16,
                            seed: int = 7) -> tuple[bool, bool]:
    """Scan all pairs in sub-array 0: (three-row support, four-row support)."""
    rng = np.random.default_rng(seed)
    rows_per_subarray = int(fd.device.geometry.rows_per_subarray)
    scan_rows = min(max_rows, rows_per_subarray)
    saw_three = saw_four = False
    for r1, r2 in itertools.combinations(range(scan_rows), 2):
        opened = probe_pair(fd, bank, r1, r2, rng)
        if opened == 3:
            saw_three = True
        elif opened >= 4:
            saw_four = True
        if saw_three and saw_four:
            break
    return saw_three, saw_four


def _batched_probes(config: ExperimentConfig, group_ids: list[str],
                    bank: int = 0, row: int = 1, max_rows: int = 16,
                    seed: int = 7) -> list[tuple[bool, bool, bool]]:
    """Both behavioural probes for a cohort of groups, one lane each.

    The Frac probe is one compiled (write, 10x Frac, read) xir program;
    it lowers for the spacing-enforcing lanes too, whose dropped
    PRECHARGEs the compiler predicts and the executor checks.  The pair
    scan runs :func:`batched_probe_opened_rows`.

    The pair scan honours each lane's early exit: a lane that has seen
    both a three- and a four-row activation is retired from the active
    set, so its pattern generator and chip noise stream stop exactly
    where the scalar scan stops.
    """
    device = BatchedChip.from_fleet(
        [(group_id, 0) for group_id in group_ids],
        geometry=config.geometry(), master_seed=config.master_seed)
    bfd = BatchedFracDram(device)
    lanes = bfd.all_lanes()

    (readout,) = bfd.run_program(
        (ir.WriteRow(bank, "row", True), ir.Frac(bank, "row", 10),
         ir.ReadRow(bank, "row")),
        rows={"row": [row] * len(lanes)}, lanes=lanes)
    weights = np.mean(readout, axis=1)
    frac = [0.02 < float(weight) < 0.98 for weight in weights]

    rngs = {lane: np.random.default_rng(seed) for lane in lanes}
    rows_per_subarray = int(device.geometry.rows_per_subarray)
    scan_rows = min(max_rows, rows_per_subarray)
    saw_three = {lane: False for lane in lanes}
    saw_four = {lane: False for lane in lanes}
    active = list(lanes)
    for r1, r2 in itertools.combinations(range(scan_rows), 2):
        if not active:
            break
        opened = batched_probe_opened_rows(
            bfd, bank, r1, r2, [rngs[lane] for lane in active], active)
        remaining = []
        for index, lane in enumerate(active):
            count = len(opened[index])
            if count == 3:
                saw_three[lane] = True
            elif count >= 4:
                saw_four[lane] = True
            if not (saw_three[lane] and saw_four[lane]):
                remaining.append(lane)
        active = remaining
    return [(frac[lane], saw_three[lane], saw_four[lane]) for lane in lanes]


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# vendor group: each probe fabricates that group's serial-0 chip from
# scratch, so units never share state.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[str, ...]:
    """One work unit per vendor group."""
    return tuple(GROUPS)


def run_shard(config: ExperimentConfig, units, **_kwargs) -> list:
    """Probe each group in ``units``; payloads are
    ``(group_id, frac, three_row, four_row)``.

    Groups are probed as lanes of one :meth:`BatchedChip.from_fleet`
    device cohort (they share electrical timing; decoders, couplings and
    polarity stay per lane) — byte-identical to the scalar per-group
    loop.
    """
    units = list(units)
    if config.backend == "scalar":
        payloads = []
        for group_id in units:
            fd = make_fd(group_id, config, serial=0)
            frac = probe_frac(fd)
            three_row, four_row = probe_multi_row_support(fd)
            payloads.append((group_id, frac, three_row, four_row))
        return payloads
    probes = _batched_probes(config, units)
    return [(group_id, frac, three_row, four_row)
            for group_id, (frac, three_row, four_row) in zip(units, probes)]


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Table1Result:
    """Assemble the capability matrix in Table I group order."""
    by_group = {group_id: flags for group_id, *flags in payloads}
    rows = []
    all_match = True
    for group_id, profile in GROUPS.items():
        frac, three_row, four_row = by_group[group_id]
        row = Table1Row(
            group_id=group_id,
            vendor=profile.vendor,
            freq_mhz=profile.freq_mhz,
            n_chips=profile.n_chips,
            frac=frac,
            three_row=three_row,
            four_row=four_row,
        )
        rows.append(row)
        all_match &= row.matches(profile)
    return Table1Result(tuple(rows), all_match)


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> Table1Result:
    """Probe every group and compare against the declared Table I."""
    return merge(config, run_shard(config, shard_units(config)))
