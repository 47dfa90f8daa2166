"""Experiment LAT: the paper's latency accounting, from the cycle model.

Every number is derived from the command-sequence builders (2.5 ns memory
cycles), not hard-coded:

* one Frac operation = 7 cycles (Section III-A),
* one in-DRAM row copy = 18 cycles (Section VI-A.1),
* F-MAJ with the ComputeDRAM reserved-row strategy costs ~29% more cycles
  than the original MAJ3 (Section VI-A.1: three operand copies + result
  copy for both; F-MAJ adds one init copy + one Frac),
* a PUF evaluation takes ~1.5 us (88-cycle preparation + 8 KB readout),
  ~0.7 us with an optimized controller (Section VI-B2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..controller import sequences as seq
from ..dram.parameters import ElectricalParams, TimingParams
from ..puf.frac_puf import PAPER_SEGMENT_BITS, PUF_N_FRAC, evaluation_time_us
from .base import DEFAULT_CONFIG, ExperimentConfig, markdown_table

__all__ = ["LatencyResult", "run", "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Frac = 7 cycles; row copy = 18 cycles; F-MAJ ~ +29% vs MAJ3 with "
    "reserved-row operand copies; PUF evaluation 1.5 us (0.7 us "
    "optimized).")


@dataclass(frozen=True)
class LatencyResult:
    frac_cycles: int
    row_copy_cycles: int
    multi_row_cycles: int
    maj3_total_cycles: int
    fmaj_total_cycles: int
    puf_preparation_cycles: int
    puf_eval_us: float
    puf_eval_optimized_us: float

    @property
    def fmaj_overhead(self) -> float:
        return self.fmaj_total_cycles / self.maj3_total_cycles - 1.0

    def format_table(self) -> str:
        rows = [
            ("Frac operation", self.frac_cycles, "7 (paper)"),
            ("row copy", self.row_copy_cycles, "18 (paper)"),
            ("multi-row activation", self.multi_row_cycles, "-"),
            ("MAJ3 incl. operand/result copies", self.maj3_total_cycles, "-"),
            ("F-MAJ incl. operand/result copies", self.fmaj_total_cycles, "-"),
            ("F-MAJ overhead vs MAJ3",
             f"{100 * self.fmaj_overhead:.1f}%", "29% (paper)"),
            ("PUF preparation", self.puf_preparation_cycles,
             "88 cycles (paper)"),
            ("PUF evaluation", f"{self.puf_eval_us:.2f} us",
             "1.5 us (paper)"),
            ("PUF evaluation (optimized MC)",
             f"{self.puf_eval_optimized_us:.2f} us", "0.7 us (paper)"),
        ]
        return markdown_table(("operation", "measured", "expectation"), rows)

    def matches_paper(self) -> bool:
        return (self.frac_cycles == 7 and self.row_copy_cycles == 18
                and abs(self.fmaj_overhead - 0.29) < 0.02
                and abs(self.puf_eval_us - 1.5) < 0.1
                and abs(self.puf_eval_optimized_us - 0.7) < 0.1)


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> LatencyResult:
    """The accounting at the default timing/electrical parameters.

    ``config`` is taken for the shared ``run(config)`` signature; no
    latency depends on it.
    """
    timing = TimingParams()
    electrical = ElectricalParams()

    frac_cycles = seq.frac_sequence(0, 1, 1, timing).duration
    row_copy_cycles = seq.row_copy_sequence(0, 0, 1, timing,
                                            electrical).duration
    multi_row_cycles = seq.multi_row_sequence(0, 1, 2, timing,
                                              electrical).duration

    # ComputeDRAM reserved-row strategy: copy the three operands into the
    # reserved compute rows, run the operation, copy the result back.
    maj3_total = 3 * row_copy_cycles + multi_row_cycles + row_copy_cycles
    # F-MAJ additionally initializes the fractional row with one copy and
    # one Frac operation (the paper's accounting, Section VI-A.1).
    fmaj_total = maj3_total + row_copy_cycles + frac_cycles

    puf_preparation = row_copy_cycles + PUF_N_FRAC * frac_cycles
    return LatencyResult(
        frac_cycles=frac_cycles,
        row_copy_cycles=row_copy_cycles,
        multi_row_cycles=multi_row_cycles,
        maj3_total_cycles=maj3_total,
        fmaj_total_cycles=fmaj_total,
        puf_preparation_cycles=puf_preparation,
        puf_eval_us=evaluation_time_us(PAPER_SEGMENT_BITS, optimized=False),
        puf_eval_optimized_us=evaluation_time_us(PAPER_SEGMENT_BITS,
                                                 optimized=True),
    )


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The accounting is one
# cheap deterministic derivation, so there is exactly one work unit; the
# hooks exist so every experiment speaks the same protocol.
# ----------------------------------------------------------------------

def shard_units(config=None, **_kwargs) -> tuple[str, ...]:
    """A single work unit — the whole derivation."""
    return ("latency",)


def run_shard(config, units, **_kwargs) -> list:
    """Payload is the complete :class:`LatencyResult` (config-independent)."""
    return [run(config) for _unit in units]


def merge(config, payloads, **_kwargs) -> LatencyResult:
    return payloads[0]
