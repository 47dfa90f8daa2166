"""Experiment F10: Figure 10 — per-combination breakdown and stability CDFs.

Part (a): on group C with the fractional value in R1 (init all ones), the
success rate of each individual input combination vs the number of Frac
operations.  Combinations whose majority is one ("green" in the paper)
start at 100% without Frac while majority-zero combinations ("blue")
start low; issuing Frac operations lowers R1's voltage, raising the blue
curves and slightly lowering the green ones — direct evidence of the
relationship between Frac count and cell voltage.  The lane engine runs
one Frac count on one cohort of (chip serial, sub-array target) views
(:meth:`BatchedChip.from_subarray_views`), every target of every serial
per ``f_maj`` call.

Parts (b)/(c): stability CDFs.  For sampled sub-arrays of groups B and C
we run many F-MAJ operations with random inputs (the paper uses 10000;
the default here is config-scaled) and plot the per-column success rate
distribution, with group B's original MAJ3 as the dashed baseline.

Paper expectations: F-MAJ on B has >= 95.4% of columns always correct and
beats the MAJ3 baseline, whose average error the paper reports as 9.1%
vs F-MAJ's 2.2%; group C modules spread widely (33%-85% always correct).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batched_ops import BatchedFracDram
from ..core.ops import FMajConfig, FracDram
from ..dram.batched import BatchedChip
from ..dram.rng import derive_rng
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

__all__ = ["Fig10aResult", "StabilityModule", "Fig10Result", "run",
           "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Figure 10: (a) majority-one combos start at 100% and decline "
    "slightly with Frac count while majority-zero combos rise from low "
    "values — confirming Frac lowers the cell voltage; (b) group B F-MAJ "
    "has >= 95.4% perfectly stable columns, beating MAJ3; (c) group C "
    "modules spread (paper: 33%-85% always-correct columns).")

FRAC_COUNTS = (0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Fig10aResult:
    """Per-combination success rates (group C, frac in R1, init ones)."""

    #: combo pattern -> success rate per Frac count.
    per_combo: dict[tuple[int, int, int], tuple[float, ...]]
    overall: tuple[float, ...]

    def majority_one_combos(self) -> list[tuple[int, int, int]]:
        return [combo for combo in self.per_combo if sum(combo) >= 2]

    def majority_zero_combos(self) -> list[tuple[int, int, int]]:
        return [combo for combo in self.per_combo if sum(combo) < 2]

    def shape_holds(self) -> bool:
        """Green combos start ~100%; blue combos rise with Frac count."""
        green_start = all(self.per_combo[c][0] > 0.95
                          for c in self.majority_one_combos())
        blue_rises = all(
            max(self.per_combo[c][1:]) > self.per_combo[c][0] + 0.2
            for c in self.majority_zero_combos())
        return green_start and blue_rises

    def format_table(self) -> str:
        lines = ["(a) Group C per-combination F-MAJ success "
                 "(frac in R1, init ones)"]
        header = ("combo (R2,R3,R4)", "maj", *[str(n) for n in FRAC_COUNTS])
        rows = []
        for combo, series in self.per_combo.items():
            majority = 1 if sum(combo) >= 2 else 0
            color = "green" if majority else "blue"
            rows.append((f"{combo} [{color}]", majority,
                         *[f"{value:.3f}" for value in series]))
        rows.append(("overall (red)", "-",
                     *[f"{value:.3f}" for value in self.overall]))
        lines.append(markdown_table(header, rows))
        return "\n".join(lines)


@dataclass(frozen=True)
class StabilityModule:
    """Stability of one module (chip): per-column success rates."""

    group_id: str
    serial: int
    operation: str  # "maj3" or "f-maj"
    success_rates: np.ndarray

    @property
    def always_correct_fraction(self) -> float:
        return float(np.mean(self.success_rates == 1.0))

    @property
    def average_error(self) -> float:
        return float(np.mean(1.0 - self.success_rates))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.sort(self.success_rates)
        fractions = np.arange(1, values.size + 1) / values.size
        return values, fractions


@dataclass(frozen=True)
class Fig10Result:
    part_a: Fig10aResult
    modules_b_fmaj: tuple[StabilityModule, ...]
    modules_b_maj3: tuple[StabilityModule, ...]
    modules_c_fmaj: tuple[StabilityModule, ...]
    trials: int

    @property
    def avg_error_maj3(self) -> float:
        return float(np.mean([m.average_error for m in self.modules_b_maj3]))

    @property
    def avg_error_fmaj(self) -> float:
        return float(np.mean([m.average_error for m in self.modules_b_fmaj]))

    def fmaj_beats_maj3(self) -> bool:
        return self.avg_error_fmaj < self.avg_error_maj3

    def format_table(self) -> str:
        lines = [self.part_a.format_table()]
        lines.append(f"\n(b)/(c) Stability over {self.trials} random-input "
                     "trials per column:")
        header = ("group", "module", "operation", "always-correct columns",
                  "average error")
        rows = []
        for module in (*self.modules_b_maj3, *self.modules_b_fmaj,
                       *self.modules_c_fmaj):
            rows.append((module.group_id, module.serial, module.operation,
                         percent(module.always_correct_fraction),
                         percent(module.average_error, 3)))
        lines.append(markdown_table(header, rows))
        lines.append(
            f"\nAverage error, group B: MAJ3 {percent(self.avg_error_maj3, 2)} "
            f"-> F-MAJ {percent(self.avg_error_fmaj, 2)} "
            "(paper: 9.1% -> 2.2%; see EXPERIMENTS.md for the absolute-"
            "value caveat)")
        return "\n".join(lines)


def _combo_success_at(config: ExperimentConfig, group_id: str,
                      fmaj_config_base: FMajConfig, n_frac: int,
                      ) -> tuple[dict[tuple[int, int, int], float], float]:
    """Per-combination success rates at one Frac count (one work unit).

    The trial-batch lanes are (serial, sub-array target) views, serial
    major: each view is one target sub-array of its serial's chip with
    its own noise stream, and part (a) never advances time, so each view
    consumes exactly that target's share of the scalar command stream
    (input combinations in order).  The per-lane means are accumulated
    in lane order — the scalar (serial, target) order — so the averages
    are byte-identical to the scalar serial loop.
    """
    combos = input_combos(config.columns)
    targets = subarray_targets(config)
    fmaj_config = FMajConfig(fmaj_config_base.frac_position,
                             fmaj_config_base.init_ones, n_frac)
    serials = list(range(config.chips_per_group))
    sums = {pattern: 0.0 for pattern, _ in combos}
    all_correct_sum = 0.0
    samples = len(serials) * len(targets)
    if config.backend == "scalar":
        for serial in serials:
            fd = make_fd(group_id, config, serial)
            for bank, subarray in targets:
                correct_all = np.ones(fd.columns, dtype=bool)
                for pattern, operands in combos:
                    expected = sum(pattern) >= 2
                    result = fd.f_maj(bank, operands, fmaj_config, subarray)
                    matches = result == expected
                    sums[pattern] += float(np.mean(matches))
                    correct_all &= matches
                all_correct_sum += float(np.mean(correct_all))
        return ({pattern: sums[pattern] / samples for pattern, _ in combos},
                all_correct_sum / samples)
    # The plan is resolved once, in view coordinates (bank 0, sub-array
    # 0), on a scalar donor.
    plan = make_fd(group_id, config, 0).quad_plan(0, 0)
    chips = [make_chip(group_id, config, serial) for serial in serials]
    bfd = BatchedFracDram(BatchedChip.from_subarray_views(chips, targets))
    lanes = bfd.all_lanes()
    per_combo = {}
    correct_all = np.ones((len(lanes), bfd.columns), dtype=bool)
    for pattern, operands in combos:
        expected = sum(pattern) >= 2
        ops = np.broadcast_to(
            np.stack(operands), (len(lanes), 3, bfd.columns))
        matches = bfd.f_maj(plan, ops, fmaj_config, lanes) == expected
        per_combo[pattern] = matches.mean(axis=1)
        correct_all &= matches
    all_rates = correct_all.mean(axis=1)
    for lane in lanes:
        for pattern, _ in combos:
            sums[pattern] += per_combo[pattern][lane]
        all_correct_sum += all_rates[lane]
    return ({pattern: float(sums[pattern] / samples)
             for pattern, _ in combos},
            float(all_correct_sum / samples))


def _stability(fd: FracDram, operation: str, trials: int,
               rng: np.random.Generator, bank: int = 0,
               subarray: int = 0) -> np.ndarray:
    successes = np.zeros(fd.columns)
    fmaj_config = fd.group.preferred_fmaj
    for _ in range(trials):
        operands = [rng.random(fd.columns) < 0.5 for _ in range(3)]
        expected = (operands[0].astype(int) + operands[1] + operands[2]) >= 2
        if operation == "maj3":
            result = fd.maj3(bank, operands, subarray)
        else:
            result = fd.f_maj(bank, operands, fmaj_config, subarray)
        successes += result == expected
    return successes / trials


def _stability_rates(config: ExperimentConfig, group_id: str,
                     operation: str, serials: list[int],
                     trials: int) -> dict[int, np.ndarray]:
    """Per-serial stability rates for one (group, operation) campaign.

    Serials are the trial-batch lanes: every lane replays the same
    command stream while drawing its operands from the serial's own
    ``(master_seed, "fig10", group, operation, serial)`` stream — the
    same derivation the scalar path uses — so rates are byte-identical
    to the scalar path and under any shard slicing.
    """
    rates: dict[int, np.ndarray] = {}
    if config.backend == "scalar":
        for serial in serials:
            rng = derive_rng(config.master_seed, "fig10", group_id,
                             operation, serial)
            fd = make_fd(group_id, config, serial)
            rates[serial] = _stability(fd, operation, trials, rng)
        return rates
    donor = make_fd(group_id, config, 0)
    fmaj_config = donor.group.preferred_fmaj
    bank = subarray = 0
    plan = (donor.triple_plan(bank, subarray) if operation == "maj3"
            else donor.quad_plan(bank, subarray))
    rngs = [derive_rng(config.master_seed, "fig10", group_id,
                       operation, serial) for serial in serials]
    chips = [make_chip(group_id, config, serial) for serial in serials]
    bfd = BatchedFracDram(BatchedChip.from_chips(chips))
    lanes = bfd.all_lanes()
    successes = np.zeros((len(serials), bfd.columns))
    for _ in range(trials):
        operands = np.stack([
            np.stack([rng.random(bfd.columns) < 0.5 for _ in range(3)])
            for rng in rngs])
        expected = operands.sum(axis=1) >= 2
        if operation == "maj3":
            result = bfd.maj3(plan, operands, lanes)
        else:
            result = bfd.f_maj(plan, operands, fmaj_config, lanes)
        successes += result == expected
    for lane, serial in enumerate(serials):
        rates[serial] = successes[lane] / trials
    return rates


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  Two unit kinds:
#   ("a", n_frac)                          — one part-(a) Frac count,
#   ("stability", group, operation, serial) — one stability module.
# Each stability unit draws its random inputs from a dedicated RNG
# stream derived from (master_seed, "fig10", group, operation, serial),
# so its rates are independent of shard placement.
# ----------------------------------------------------------------------

#: The stability campaigns of parts (b)/(c): (group, operation).
_STABILITY_CAMPAIGNS = (("B", "f-maj"), ("B", "maj3"), ("C", "f-maj"))

_PART_A_BASE = FMajConfig(0, True, 1)  # group C, frac in R1, init ones


def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[tuple, ...]:
    """Part-(a) Frac counts first, then every stability module."""
    units: list[tuple] = [("a", n_frac) for n_frac in FRAC_COUNTS]
    units.extend(("stability", group_id, operation, serial)
                 for group_id, operation in _STABILITY_CAMPAIGNS
                 for serial in range(config.chips_per_group))
    return tuple(units)


def run_shard(config: ExperimentConfig, units, trials: int = 500,
              **_kwargs) -> list:
    """Execute part-(a) and stability units; one payload per unit.

    Stability units sharing a (group, operation) campaign are gathered
    into one trial-batch cohort; each unit's rates depend only on
    (config, unit key), so the payloads are identical under any shard
    slicing.
    """
    units = list(units)
    by_campaign: dict[tuple[str, str], list[int]] = {}
    for unit in units:
        if unit[0] == "stability":
            _, group_id, operation, serial = unit
            by_campaign.setdefault((group_id, operation), []).append(serial)
    campaign_rates = {
        (group_id, operation): _stability_rates(config, group_id, operation,
                                                serials, trials)
        for (group_id, operation), serials in by_campaign.items()}
    payloads = []
    for unit in units:
        if unit[0] == "a":
            _, n_frac = unit
            values, all_correct = _combo_success_at(config, "C",
                                                    _PART_A_BASE, n_frac)
            payloads.append(("a", n_frac, values, all_correct))
        else:
            _, group_id, operation, serial = unit
            rates = campaign_rates[(group_id, operation)][serial]
            payloads.append(("stability",
                             StabilityModule(group_id, serial, operation,
                                             rates)))
    return payloads


def merge(config: ExperimentConfig, payloads, trials: int = 500,
          **_kwargs) -> Fig10Result:
    """Assemble unit payloads (any order) into a :class:`Fig10Result`."""
    part_a_units: dict[int, tuple[dict, float]] = {}
    stability: dict[tuple[str, str], dict[int, StabilityModule]] = {
        campaign: {} for campaign in _STABILITY_CAMPAIGNS}
    for payload in payloads:
        if payload[0] == "a":
            _, n_frac, values, all_correct = payload
            part_a_units[n_frac] = (values, all_correct)
        else:
            module = payload[1]
            stability[(module.group_id,
                       module.operation)][module.serial] = module

    combos = input_combos(config.columns)
    per_combo = {
        pattern: tuple(part_a_units[n_frac][0][pattern]
                       for n_frac in FRAC_COUNTS)
        for pattern, _ in combos}
    overall = tuple(part_a_units[n_frac][1] for n_frac in FRAC_COUNTS)
    part_a = Fig10aResult(per_combo, overall)

    def modules(group_id: str, operation: str) -> tuple[StabilityModule, ...]:
        by_serial = stability[(group_id, operation)]
        return tuple(by_serial[serial] for serial in sorted(by_serial))

    return Fig10Result(
        part_a=part_a,
        modules_b_fmaj=modules("B", "f-maj"),
        modules_b_maj3=modules("B", "maj3"),
        modules_c_fmaj=modules("C", "f-maj"),
        trials=trials,
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        trials: int = 500) -> Fig10Result:
    units = shard_units(config)
    return merge(config, run_shard(config, units, trials=trials),
                 trials=trials)
