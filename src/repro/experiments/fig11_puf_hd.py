"""Experiment F11: Figure 11 — PUF intra-/inter-HD per group.

For every Frac-capable group (A-I) we fabricate multiple modules, send
the same challenge set to each, and collect responses twice (two
measurement-noise epochs, the paper's repeated collections).  We report:

* Intra-HD — same module, same challenge, different collections (ideal 0),
* Inter-HD — same challenge, different modules of the same group, plus
  the cross-group inter-HD pool,
* the per-group mean Hamming weight printed under each group in Figure 11.

Paper expectations: intra-HD concentrates near zero (max 0.051, group G);
inter-HD clusters below 0.5 for groups with biased Hamming weight (A at
HW ~ 0.21 gives inter-HD ~ 0.33); the minimum inter-HD (paper: 0.27)
stays far above the maximum intra-HD — uniqueness is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram.batched import BatchedChip
from ..puf.frac_puf import Challenge, FracPuf, challenge_set
from ..puf.metrics import inter_hd_distances, intra_hd_distances, response_weights
from ..xir.puf import FusedFracPuf
from .base import (DEFAULT_CONFIG, ExperimentConfig, make_chip,
                   markdown_table)

__all__ = ["Fig11Group", "Fig11Result", "run", "default_challenges",
           "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Figure 11: intra-HD ~ 0 (max 0.051); inter-HD clusters reflect each "
    "group's Hamming weight (A ~ 0.21 -> inter ~ 0.33); min inter-HD "
    "(0.27) >> max intra-HD.")

FRAC_CAPABLE_GROUPS = ("A", "B", "C", "D", "E", "F", "G", "H", "I")


def default_challenges(config: ExperimentConfig,
                       n_challenges: int) -> list[Challenge]:
    """Challenges spread over banks/rows, avoiding each sub-array's
    reserved initialization row (:func:`~repro.puf.frac_puf.challenge_set`)."""
    return challenge_set(config.geometry(), n_challenges)


@dataclass(frozen=True)
class Fig11Group:
    group_id: str
    intra: np.ndarray
    inter: np.ndarray
    hamming_weight: float

    @property
    def max_intra(self) -> float:
        return float(np.max(self.intra))

    @property
    def mean_inter(self) -> float:
        return float(np.mean(self.inter))


@dataclass(frozen=True)
class Fig11Result:
    groups: tuple[Fig11Group, ...]
    cross_group_inter: np.ndarray

    @property
    def max_intra(self) -> float:
        return max(group.max_intra for group in self.groups)

    @property
    def min_inter(self) -> float:
        within = min(float(np.min(group.inter)) for group in self.groups)
        return min(within, float(np.min(self.cross_group_inter)))

    def uniqueness_guaranteed(self) -> bool:
        return self.min_inter > self.max_intra

    def format_table(self) -> str:
        lines = ["Figure 11 — PUF intra-/inter-HD per group"]
        header = ("group", "mean HW", "max intra-HD", "mean intra-HD",
                  "mean inter-HD", "min inter-HD")
        rows = []
        for group in self.groups:
            rows.append((
                group.group_id,
                f"{group.hamming_weight:.2f}",
                f"{group.max_intra:.3f}",
                f"{float(np.mean(group.intra)):.3f}",
                f"{group.mean_inter:.3f}",
                f"{float(np.min(group.inter)):.3f}",
            ))
        lines.append(markdown_table(header, rows))
        lines.append(
            f"\ncross-group inter-HD: mean "
            f"{float(np.mean(self.cross_group_inter)):.3f}, min "
            f"{float(np.min(self.cross_group_inter)):.3f}")
        lines.append(
            f"overall: max intra-HD {self.max_intra:.3f} vs min inter-HD "
            f"{self.min_inter:.3f} (paper: 0.051 vs 0.27) -> uniqueness "
            + ("guaranteed" if self.uniqueness_guaranteed() else "VIOLATED"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# physical module, ``(group_id, serial)``: its two response collections
# depend only on the chip identity (fabrication is a pure function of
# master_seed/group/serial) and the per-epoch noise reseed, never on
# other modules.  All Hamming-distance pooling happens at merge time.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                modules_per_group: int = 2,
                **_kwargs) -> tuple[tuple[str, int], ...]:
    """One work unit per (group, module serial)."""
    return tuple((group_id, serial)
                 for group_id in FRAC_CAPABLE_GROUPS
                 for serial in range(modules_per_group))


def run_shard(config: ExperimentConfig, units, n_challenges: int = 24,
              **_kwargs) -> list:
    """Collect both response epochs for each module in ``units``.

    Payloads are ``(group_id, serial, [epoch0, epoch1])`` with each
    epoch a stacked ``(n_challenges, columns)`` response array.

    Modules are evaluated as lanes of a device batch
    (:meth:`BatchedChip.from_fleet`): one cohort fabricates every module
    from its ``(group_id, serial)`` seed, evaluates the challenge set at
    noise epoch 0, reseeds all lanes to epoch 1 and evaluates again —
    byte-identical to the scalar per-module loop.
    """
    challenges = default_challenges(config, n_challenges)
    units = list(units)
    if config.backend == "scalar":
        payloads = []
        for group_id, serial in units:
            chip = make_chip(group_id, config, serial)
            puf = FracPuf(chip)
            trials = []
            for epoch in range(2):
                chip.reseed_noise(epoch)
                trials.append(puf.evaluate_many(challenges))
            payloads.append((group_id, serial, trials))
        return payloads
    puf = FusedFracPuf(BatchedChip.from_fleet(
        units, geometry=config.geometry(), master_seed=config.master_seed,
        epochs=[0] * len(units)))
    epoch0 = puf.evaluate_many(challenges)
    puf.reseed_noise(1)
    epoch1 = puf.evaluate_many(challenges)
    return [(group_id, serial, [epoch0[lane].copy(), epoch1[lane].copy()])
            for lane, (group_id, serial) in enumerate(units)]


def merge(config: ExperimentConfig, payloads, **_kwargs) -> Fig11Result:
    """Pool per-module collections into intra/inter-HD statistics."""
    by_group: dict[str, dict[int, list[np.ndarray]]] = {}
    for group_id, serial, trials in payloads:
        by_group.setdefault(group_id, {})[serial] = trials

    group_results = []
    first_collections: dict[str, list[np.ndarray]] = {}
    for group_id in FRAC_CAPABLE_GROUPS:
        if group_id not in by_group:
            continue
        modules = by_group[group_id]
        collections_by_module = [modules[serial]
                                 for serial in sorted(modules)]
        intra = np.concatenate([
            intra_hd_distances(trials) for trials in collections_by_module])
        first = [trials[0] for trials in collections_by_module]
        inter = inter_hd_distances(first)
        weight = float(np.mean([response_weights(responses)
                                for responses in first]))
        first_collections[group_id] = first
        group_results.append(Fig11Group(group_id, intra, inter, weight))

    cross: list[float] = []
    group_ids = list(first_collections)
    for index_a in range(len(group_ids)):
        for index_b in range(index_a + 1, len(group_ids)):
            responses_a = first_collections[group_ids[index_a]][0]
            responses_b = first_collections[group_ids[index_b]][0]
            cross.extend(
                float(np.mean(ra ^ rb))
                for ra, rb in zip(responses_a, responses_b))
    return Fig11Result(tuple(group_results), np.asarray(cross))


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        n_challenges: int = 24, modules_per_group: int = 2) -> Fig11Result:
    units = shard_units(config, modules_per_group=modules_per_group)
    return merge(config, run_shard(config, units, n_challenges=n_challenges))
