"""Frac-based Physically Unclonable Function (Section VI-B).

A challenge selects a DRAM row; the response is that row's readout after
the cell voltages have been driven to ~Vdd/2 by ten Frac operations.  The
sense amplifier — a per-column comparator with a manufacturing-unique
offset — then "amplifies" Vdd/2 to a stable, device-unique bit.  Because
the comparator is ratio-metric, the response barely moves with supply
voltage or temperature, matching CODIC's robustness without any DRAM
modification.

Evaluation cost (Section VI-B2): preparation is one in-DRAM row copy from
a reserved all-ones row (18 cycles) plus ten Frac operations (70 cycles) =
88 cycles; readout of the 8 KB segment dominates the 1.5 us total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..controller.sequences import FRAC_OP_CYCLES, ROW_COPY_CYCLES
from ..core.ops import FracDram
from ..dram.parameters import MEMORY_CYCLE_NS, GeometryParams
from ..errors import ConfigurationError, UnsupportedOperationError

__all__ = ["Challenge", "FracPuf", "PUF_N_FRAC", "challenge_set",
           "evaluation_time_us", "reserved_row"]

#: Frac operations per PUF evaluation — "ten Frac operations are enough to
#: generate a voltage close to Vdd/2 for PUF" (Section VI-B1).
PUF_N_FRAC: int = 10

#: Paper segment size: 8 KB, one full module row.
PAPER_SEGMENT_BITS: int = 8 * 1024 * 8

#: Module data bus width in bits (DDR3 UDIMM rank).
BUS_WIDTH_BITS: int = 64


@dataclass(frozen=True)
class Challenge:
    """A PUF challenge: the address of the memory segment to evaluate."""

    bank: int
    row: int

    def __post_init__(self) -> None:
        if self.bank < 0 or self.row < 0:
            raise ConfigurationError("challenge addresses must be non-negative")


def reserved_row(row: int, rows_per_subarray: int) -> int:
    """The reserved all-ones row of ``row``'s sub-array: its last row.

    Every evaluation initializes its challenge row by copying from this
    row, so the reserved row itself is refused as a challenge.
    """
    reserved = (row // rows_per_subarray + 1) * rows_per_subarray - 1
    if reserved == row:
        raise ConfigurationError(
            f"row {row} is the reserved initialization row; "
            "challenge a different row")
    return reserved


def challenge_set(geometry: GeometryParams,
                  n_challenges: int) -> list[Challenge]:
    """The first ``n_challenges`` rows in address order (bank-major),
    skipping each sub-array's reserved row."""
    picked = [Challenge(bank, row)
              for bank in range(geometry.n_banks)
              for row in range(geometry.rows_per_bank)
              if (row + 1) % geometry.rows_per_subarray]
    if len(picked) < n_challenges:
        raise ConfigurationError(
            f"geometry provides only {len(picked)} challenge rows, "
            f"need {n_challenges}")
    return picked[:n_challenges]


def evaluation_time_us(row_bits: int = PAPER_SEGMENT_BITS,
                       optimized: bool = False) -> float:
    """Evaluation latency model of Section VI-B2.

    The 88-cycle preparation (one row copy + ten Frac) is followed by the
    8 KB readout, which dominates.  SoftMC streams the readout over the
    64-bit bus at double data rate (128 bits per 2.5 ns memory cycle) —
    88 + 512 cycles = 1.5 us, the paper's figure.  An optimized controller
    hides the preparation behind the previous segment's readout and
    interleaves bursts across banks for twice the effective readout
    throughput, giving ~0.7 us.
    """
    preparation_cycles = ROW_COPY_CYCLES + PUF_N_FRAC * FRAC_OP_CYCLES
    ddr_bits_per_cycle = 2 * BUS_WIDTH_BITS
    if optimized:
        total_cycles = row_bits / (2 * ddr_bits_per_cycle)
    else:
        total_cycles = preparation_cycles + row_bits / ddr_bits_per_cycle
    return total_cycles * MEMORY_CYCLE_NS / 1000.0


class FracPuf:
    """Challenge/response PUF over one simulated module (or chip)."""

    def __init__(self, device, *, n_frac: int = PUF_N_FRAC) -> None:
        if n_frac < 1:
            raise ConfigurationError("n_frac must be >= 1")
        self.fd = FracDram(device)
        if not self.fd.can_frac:
            raise UnsupportedOperationError(
                f"group {self.fd.group.group_id} drops out-of-spec commands; "
                "a Frac-based PUF is impossible on it (Table I)")
        self.n_frac = n_frac
        self._prepared_reserved: set[tuple[int, int]] = set()

    @property
    def response_bits(self) -> int:
        return self.fd.columns

    def _reserved_row(self, bank: int, row: int) -> int:
        """The challenge row's reserved row, filled with ones on first use."""
        reserved = reserved_row(
            row, int(self.fd.device.geometry.rows_per_subarray))
        if (bank, reserved) not in self._prepared_reserved:
            self.fd.fill_row(bank, reserved, True)
            self._prepared_reserved.add((bank, reserved))
        return reserved

    def evaluate(self, challenge: Challenge) -> np.ndarray:
        """Produce the response bits for ``challenge``.

        Initializes the row to all ones with an 18-cycle in-DRAM copy,
        issues ``n_frac`` Frac operations, and destructively reads the
        row.  Each evaluation re-derives the response from the analog
        state, so repeated evaluations measure true intra-device noise.
        """
        bank, row = challenge.bank, challenge.row
        reserved = self._reserved_row(bank, row)
        self.fd.row_copy(bank, reserved, row)
        self.fd.frac(bank, row, self.n_frac)
        return self.fd.read_row(bank, row)

    def evaluate_many(self, challenges: list[Challenge]) -> np.ndarray:
        """Stacked responses (len(challenges), response_bits)."""
        if not challenges:
            return np.empty((0, self.response_bits), dtype=bool)
        return np.stack([self.evaluate(challenge) for challenge in challenges])

    def concatenated_bitstream(self, challenges: list[Challenge]) -> np.ndarray:
        """Responses joined end-to-end, as fed to the NIST suite."""
        return self.evaluate_many(challenges).reshape(-1)
