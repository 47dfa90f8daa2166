"""Experiment NIST: Section VI-B2 — randomness of whitened PUF responses.

The raw Frac-PUF response is biased (per-group Hamming weight != 0.5), so
the paper whitens it with a modified Von Neumann extractor, concatenates
responses from different addresses, and feeds one million bits per module
into the 15-test NIST SP800-22 suite — all tests pass.

A response's entropy lives in the per-column sense-amp offsets, which are
shared by all rows of a sub-array (each sub-array has its own sense-amp
stripe).  Challenges must therefore target *distinct sub-arrays*; this
experiment uses a wide, many-sub-array geometry and one challenge per
sub-array.  ``paper_scale=True`` collects >= 1 Mbit of whitened stream as
in the paper; the default collects a smaller stream that still satisfies
the length prerequisites of 13 of the 15 tests (the two random-excursion
tests need ~500 zero-crossing cycles, which requires close to the full
million bits — they are reported as skipped on quick runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram.batched import BatchedChip
from ..dram.parameters import GeometryParams
from ..dram.chip import DramChip
from ..puf.extractor import von_neumann_extract
from ..puf.frac_puf import Challenge, FracPuf
from ..puf.nist import SuiteResult, run_all
from ..xir.puf import FusedFracPuf
from .base import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["NistExperimentResult", "run", "shard_units", "run_shard",
           "merge"]

PAPER_EXPECTATION = (
    "Section VI-B2: after Von Neumann whitening, 1 Mbit per module "
    "passes all 15 NIST SP800-22 tests.")


@dataclass(frozen=True)
class NistExperimentResult:
    group_id: str
    raw_bits: int
    whitened_bits: int
    raw_weight: float
    whitened_weight: float
    suite: SuiteResult

    @property
    def all_passed(self) -> bool:
        return self.suite.all_passed

    def format_table(self) -> str:
        lines = [
            "NIST SP800-22 on whitened Frac-PUF responses "
            f"(group {self.group_id})",
            f"raw stream: {self.raw_bits} bits, weight {self.raw_weight:.3f}",
            f"whitened stream: {self.whitened_bits} bits, weight "
            f"{self.whitened_weight:.3f}",
            "",
            self.suite.format_table(),
        ]
        return "\n".join(lines)


def _nist_geometry(paper_scale: bool) -> GeometryParams:
    if paper_scale:
        # ~1.8 Mbit raw -> ~0.4 Mbit whitened: enough zero-crossing
        # cycles (J >= 500) for the two random-excursion tests.
        return GeometryParams(n_banks=6, subarrays_per_bank=36,
                              rows_per_subarray=10, columns=8192)
    return GeometryParams(n_banks=2, subarrays_per_bank=32,
                          rows_per_subarray=10, columns=8192)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# challenge (one sub-array's sense-amp stripe), keyed by its serial
# position in the concatenated stream.  Before evaluating a challenge,
# the chip's measurement noise is reseeded to an epoch derived from
# that position, so each response depends only on (chip identity,
# challenge index) — never on which challenges the worker evaluated
# before it.  Workers rebuild the chip locally from its fabrication
# streams; only the response arrays travel back.
# ----------------------------------------------------------------------

def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                group_id: str = "B", paper_scale: bool = False,
                **_kwargs) -> tuple[tuple[int, int, int], ...]:
    """Units ``(index, bank, subarray)`` in concatenation order."""
    geometry = _nist_geometry(paper_scale)
    units = []
    for bank in range(geometry.n_banks):
        for subarray in range(geometry.subarrays_per_bank):
            units.append((len(units), bank, subarray))
    return tuple(units)


#: Lanes per cohort of the challenge sweep: each lane is one sub-array
#: view of the same chip, so wide cohorts trade cache locality for
#: dispatch savings; 16 is the sweet spot on the default geometry.
_NIST_COHORT = 16


def run_shard(config: ExperimentConfig, units, group_id: str = "B",
              paper_scale: bool = False, **_kwargs) -> list:
    """Evaluate the challenges in ``units`` on a locally rebuilt chip.

    Challenges are evaluated as lanes of one trial batch: lane ``i`` is
    the challenge's own sub-array (a :meth:`BatchedChip.from_subarray_views`
    view of the shared chip) with its noise reseeded to the challenge
    index — the exact epoch tree the scalar ``reseed_noise`` builds — so
    responses are byte-identical to the scalar per-challenge loop.
    """
    geometry = _nist_geometry(paper_scale)
    chip = DramChip(group_id, geometry=geometry,
                    master_seed=config.master_seed, serial=99)
    units = list(units)
    if config.backend == "scalar":
        puf = FracPuf(chip)
        payloads = []
        for index, bank, subarray in units:
            # One challenge per sub-array: its sense-amp stripe is the
            # entropy source; row 0 is as good as any non-reserved row.
            chip.reseed_noise(index)
            response = puf.evaluate(
                Challenge(bank, subarray * geometry.rows_per_subarray))
            payloads.append((index, response))
        return payloads
    payloads = []
    for start in range(0, len(units), _NIST_COHORT):
        cohort = units[start:start + _NIST_COHORT]
        sites = [(bank, subarray) for _, bank, subarray in cohort]
        epochs = [index for index, _, _ in cohort]
        device = BatchedChip.from_subarray_views([chip], sites,
                                                  epochs=epochs)
        # Each lane's device is its challenge's sub-array alone, so
        # Challenge(0, 0) replays the scalar evaluation per lane: fill
        # the reserved all-ones row, copy it onto row 0, Frac it to
        # ~Vdd/2, read.
        responses = FusedFracPuf(device).evaluate_many([Challenge(0, 0)])
        payloads.extend((index, responses[lane, 0].copy())
                        for lane, (index, _, _) in enumerate(cohort))
    return payloads


def merge(config: ExperimentConfig, payloads, group_id: str = "B",
          paper_scale: bool = False, **_kwargs) -> NistExperimentResult:
    """Concatenate responses in stream order, whiten, run the suite."""
    responses = [response for _, response in sorted(payloads,
                                                    key=lambda p: p[0])]
    raw = np.concatenate(responses)
    whitened = von_neumann_extract(raw)
    suite = run_all(whitened)
    return NistExperimentResult(
        group_id=group_id,
        raw_bits=int(raw.size),
        whitened_bits=int(whitened.size),
        raw_weight=float(np.mean(raw)),
        whitened_weight=float(np.mean(whitened)),
        suite=suite,
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG, group_id: str = "B",
        paper_scale: bool = False) -> NistExperimentResult:
    units = shard_units(config, group_id=group_id, paper_scale=paper_scale)
    payloads = run_shard(config, units, group_id=group_id,
                         paper_scale=paper_scale)
    return merge(config, payloads, group_id=group_id,
                 paper_scale=paper_scale)
