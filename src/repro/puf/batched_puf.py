"""Device-batched Frac PUF: one challenge, every module at once.

:class:`BatchedFracPuf` mirrors :class:`~repro.puf.frac_puf.FracPuf`
over a :class:`~repro.dram.batched.BatchedChip` whose lanes are distinct
modules (a :meth:`~repro.dram.batched.BatchedChip.from_fleet` batch).
Each challenge is evaluated for all lanes in one vectorized pass through
:class:`~repro.controller.batched.BatchedSoftMC`: the reserved-row fill,
the in-DRAM row copy, the ten Frac operations and the destructive read
are each one compiled :mod:`repro.xir` op run across every lane instead
of L scalar command sequences.

The byte-identity contract of the batched engine applies: lane ``i`` of
``evaluate_many`` equals the scalar ``FracPuf(make_chip(...))`` response
for module ``i``, bit for bit, because every lane draws from the same
noise stream the scalar module would own.  Noise epochs (the repeated
measurements of the intra-HD studies) are swept with
:meth:`reseed_noise`, matching the scalar
:meth:`~repro.dram.chip.DramChip.reseed_noise` tree.
"""

from __future__ import annotations

import numpy as np

from ..core.batched_ops import BatchedFracDram
from ..dram.batched import BatchedChip
from ..errors import ConfigurationError, UnsupportedOperationError
from .frac_puf import PUF_N_FRAC, Challenge, reserved_row

__all__ = ["BatchedFracPuf"]


class BatchedFracPuf:
    """Challenge/response PUF over a batch of simulated modules."""

    def __init__(self, device: BatchedChip, *,
                 n_frac: int = PUF_N_FRAC) -> None:
        if n_frac < 1:
            raise ConfigurationError("n_frac must be >= 1")
        self.bfd = BatchedFracDram(device)
        for group in device.groups:
            if group.decoder.enforces_command_spacing:
                raise UnsupportedOperationError(
                    f"group {group.group_id} drops out-of-spec commands; "
                    "a Frac-based PUF is impossible on it (Table I)")
        self.n_frac = n_frac
        self._prepared_reserved: set[tuple[int, int]] = set()

    @property
    def n_lanes(self) -> int:
        return self.bfd.n_lanes

    @property
    def response_bits(self) -> int:
        return self.bfd.columns

    def reseed_noise(self, epoch: int) -> None:
        """Start a new measurement-noise epoch on every module lane."""
        self.bfd.device.reseed_noise(epoch)

    def _reserved_row(self, bank: int, row: int) -> int:
        """The reserved all-ones row in the challenge row's sub-array.

        Lanes execute the same challenge stream, so the lazy one-time
        fill is shared batch state: the first challenge into a sub-array
        fills the reserved row on every lane at once.
        """
        reserved = reserved_row(
            row, int(self.bfd.device.geometry.rows_per_subarray))
        if (bank, reserved) not in self._prepared_reserved:
            lanes = self.bfd.all_lanes()
            self.bfd.fill_row(bank, [reserved] * len(lanes), True, lanes)
            self._prepared_reserved.add((bank, reserved))
        return reserved

    def evaluate(self, challenge: Challenge) -> np.ndarray:
        """Response bits for every lane, ``(n_lanes, response_bits)``."""
        bank, row = challenge.bank, challenge.row
        reserved = self._reserved_row(bank, row)
        lanes = self.bfd.all_lanes()
        self.bfd.row_copy(bank, [reserved] * len(lanes),
                          [row] * len(lanes), lanes)
        self.bfd.frac(bank, [row] * len(lanes), self.n_frac, lanes)
        return self.bfd.read_row(bank, [row] * len(lanes), lanes)

    def evaluate_many(self, challenges: list[Challenge]) -> np.ndarray:
        """Stacked responses, ``(n_lanes, len(challenges), response_bits)``.

        Lane ``i`` of the result equals what the scalar
        ``FracPuf.evaluate_many`` would return for module ``i``.
        """
        if not challenges:
            return np.empty((self.n_lanes, 0, self.response_bits), dtype=bool)
        return np.stack([self.evaluate(challenge)
                         for challenge in challenges], axis=1)
