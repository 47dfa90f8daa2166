"""Experiment F12: Figure 12 — PUF robustness to supply voltage and
temperature.

We enroll responses at the nominal operating point (1.5 V, 20 C), then
re-collect under (a) a reduced supply of 1.4 V and (b) temperatures from
20 C to 60 C, each in a fresh measurement-noise epoch (the paper's
collections were days to months apart).  Intra-HD compares each module's
off-nominal responses with its own enrollment; inter-HD compares across
modules under the changed environment.

Paper expectations: at 1.4 V the max intra-HD is 0.07 and the min
inter-HD 0.30; intra-HD grows mildly with temperature but the maximum
stays far below the minimum inter-HD — the PUF is robust because the
sense amplifier is a ratio-metric comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram.batched import BatchedChip
from ..dram.environment import Environment
from ..puf.frac_puf import FracPuf
from ..puf.metrics import inter_hd_distances
from ..xir.puf import FusedFracPuf
from .base import (DEFAULT_CONFIG, ExperimentConfig, make_chip,
                   markdown_table)
from .fig11_puf_hd import default_challenges

__all__ = ["EnvCondition", "Fig12Result", "run", "shard_units", "run_shard",
           "merge"]

PAPER_EXPECTATION = (
    "Figure 12: max intra-HD 0.07 at Vdd=1.4V with min inter-HD 0.30; "
    "intra-HD rises mildly with temperature but max intra stays well "
    "below min inter at every condition.")

TEMPERATURES_C = (20.0, 30.0, 40.0, 50.0, 60.0)
GROUPS_TESTED = ("A", "B", "E", "G", "I")


@dataclass(frozen=True)
class EnvCondition:
    """HD statistics for one environmental condition."""

    label: str
    max_intra: float
    mean_intra: float
    min_inter: float

    @property
    def separated(self) -> bool:
        return self.min_inter > self.max_intra


@dataclass(frozen=True)
class Fig12Result:
    voltage_condition: EnvCondition
    temperature_conditions: tuple[EnvCondition, ...]

    def robust(self) -> bool:
        return (self.voltage_condition.separated
                and all(c.separated for c in self.temperature_conditions))

    def intra_grows_with_temperature(self) -> bool:
        means = [c.mean_intra for c in self.temperature_conditions]
        return means[-1] >= means[0]

    def format_table(self) -> str:
        lines = ["Figure 12 — PUF under supply-voltage and temperature "
                 "changes"]
        header = ("condition", "max intra-HD", "mean intra-HD",
                  "min inter-HD", "separated")
        rows = []
        for condition in (self.voltage_condition,
                          *self.temperature_conditions):
            rows.append((condition.label,
                         f"{condition.max_intra:.3f}",
                         f"{condition.mean_intra:.4f}",
                         f"{condition.min_inter:.3f}",
                         "yes" if condition.separated else "NO"))
        lines.append(markdown_table(header, rows))
        lines.append(
            "\nPaper: max intra-HD 0.07 / min inter-HD 0.30 at 1.4 V; "
            "robust across 20-60 C.")
        return "\n".join(lines)


def _condition(label: str,
               enrollment: dict[tuple[str, int], np.ndarray],
               probe: dict[tuple[str, int], np.ndarray]) -> EnvCondition:
    intra = []
    for key, enrolled in enrollment.items():
        for response_ref, response_new in zip(enrolled, probe[key]):
            intra.append(float(np.mean(response_ref ^ response_new)))
    inter = inter_hd_distances(list(probe.values()))
    return EnvCondition(
        label=label,
        max_intra=float(np.max(intra)),
        mean_intra=float(np.mean(intra)),
        min_inter=float(np.min(inter)),
    )


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# module under one environmental condition, ``(condition, group_id,
# serial)``: each collection fabricates a fresh chip under that
# environment and reseeds its noise to the condition's epoch, so units
# never share state.  Condition 0 is the nominal enrollment, 1 the
# 1.4 V supply, 2+i temperature ``TEMPERATURES_C[i]``.
# ----------------------------------------------------------------------

def _environment(condition: int) -> Environment:
    nominal = Environment()
    if condition == 0:
        return nominal
    if condition == 1:
        return nominal.with_vdd(1.4)
    return nominal.with_temperature(TEMPERATURES_C[condition - 2])


def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                modules_per_group: int = 2,
                **_kwargs) -> tuple[tuple[int, str, int], ...]:
    """One work unit per (condition, group, module serial)."""
    return tuple((condition, group_id, serial)
                 for condition in range(2 + len(TEMPERATURES_C))
                 for group_id in GROUPS_TESTED
                 for serial in range(modules_per_group))


def run_shard(config: ExperimentConfig, units, n_challenges: int = 16,
              **_kwargs) -> list:
    """Collect the response stack for each (condition, module) unit.

    Units of one condition share an environment and noise epoch, so they
    batch as lanes of one :meth:`BatchedChip.from_fleet` device cohort;
    payloads are ``((condition, group_id, serial), responses)`` with
    ``responses`` a ``(n_challenges, columns)`` array, byte-identical to
    the scalar per-module collection.
    """
    challenges = default_challenges(config, n_challenges)
    units = list(units)
    if config.backend == "scalar":
        payloads = []
        for condition, group_id, serial in units:
            chip = make_chip(group_id, config, serial,
                             environment=_environment(condition))
            chip.reseed_noise(condition)
            puf = FracPuf(chip)
            payloads.append(((condition, group_id, serial),
                             puf.evaluate_many(challenges)))
        return payloads
    by_condition: dict[int, list[tuple[int, str, int]]] = {}
    for unit in units:
        by_condition.setdefault(unit[0], []).append(unit)
    payloads = []
    geometry = config.geometry()
    for condition, cohort in by_condition.items():
        device = BatchedChip.from_fleet(
            [(group_id, serial) for _, group_id, serial in cohort],
            geometry=geometry, master_seed=config.master_seed,
            environment=_environment(condition),
            epochs=[condition] * len(cohort))
        stacks = FusedFracPuf(device).evaluate_many(challenges)
        payloads.extend((unit, stacks[lane].copy())
                        for lane, unit in enumerate(cohort))
    return payloads


def merge(config: ExperimentConfig, payloads,
          **_kwargs) -> Fig12Result:
    """Pool per-condition collections into the paper's HD statistics.

    Response dictionaries are rebuilt in the scalar collection order
    (group-major, serial ascending) so every float accumulation in
    :func:`_condition` replays the scalar run exactly.
    """
    by_unit = {unit: responses for unit, responses in payloads}
    serials = sorted({serial for (_, _, serial) in by_unit})

    def collection(condition: int) -> dict[tuple[str, int], np.ndarray]:
        return {(group_id, serial): by_unit[(condition, group_id, serial)]
                for group_id in GROUPS_TESTED
                for serial in serials}

    enrollment = collection(0)
    voltage_condition = _condition("Vdd 1.5V -> 1.4V", enrollment,
                                   collection(1))
    temperature_conditions = tuple(
        _condition(f"{temperature:.0f} C", enrollment, collection(2 + index))
        for index, temperature in enumerate(TEMPERATURES_C))
    return Fig12Result(voltage_condition, temperature_conditions)


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        n_challenges: int = 16, modules_per_group: int = 2) -> Fig12Result:
    units = shard_units(config, modules_per_group=modules_per_group)
    return merge(config, run_shard(config, units, n_challenges=n_challenges))
