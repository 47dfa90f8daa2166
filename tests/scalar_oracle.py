"""The per-command oracle of a lane fleet: one scalar SoftMC per lane.

:class:`ScalarFleet` builds, for every lane of a
``BatchedChip.from_fleet`` device, the :class:`~repro.dram.chip.DramChip`
that lane is fabricated from (same seed, group, serial and noise epoch)
and issues an xir op on it as the scalar engine does: the op's
:func:`~repro.xir.compile.template` bound to the lane's rows
(:func:`~repro.xir.compile.bind_template`), through ``SoftMC.run``.
:meth:`ScalarFleet.assert_matches` then compares every lane's cell
planes, bit-lines, noise-stream positions, cycle counter and dropped
commands against the lane device.
"""

from __future__ import annotations

import numpy as np

from repro.controller.softmc import SoftMC
from repro.dram.chip import DramChip
from repro.xir import ir
from repro.xir.compile import bind_template


class ScalarFleet:
    """One scalar chip and controller per lane of a fleet."""

    def __init__(self, units, *, geometry, master_seed, epochs=None,
                 timing=None):
        self.chips = []
        for index, (group, serial) in enumerate(units):
            chip = DramChip(group, geometry=geometry, serial=int(serial),
                            master_seed=master_seed)
            if epochs is not None:
                chip.reseed_noise(epochs[index])
            self.chips.append(chip)
        self.mcs = [SoftMC(chip, timing=timing) for chip in self.chips]
        self.columns = geometry.columns

    def run(self, ops, *, rows, lanes, data=None, dts=None):
        """Issue ``ops`` on each of ``lanes``; one ``(L, C)`` array per
        read, rows of ``rows``/``data`` aligned with ``lanes``."""
        reads = []
        for op in ops:
            if isinstance(op, ir.Leak):
                for lane in lanes:
                    self.chips[lane].advance_time(dts[op.dt])
                continue
            per_lane = []
            for index, lane in enumerate(lanes):
                mc = self.mcs[lane]
                sequence = bind_template(
                    op, mc.timing, mc.electrical,
                    rows={param: values[index]
                          for param, values in rows.items()},
                    data={param: np.broadcast_to(
                        plane, (len(lanes), self.columns))[index]
                          for param, plane in (data or {}).items()},
                    columns=self.columns)
                per_lane.append(mc.run(sequence))
            reads += [np.stack([lane_reads[index] for lane_reads in per_lane])
                      for index in range(len(per_lane[0]))]
        return reads

    def assert_matches(self, device, cycles) -> None:
        """Every lane's state equals its scalar chip's."""
        for lane, (chip, mc) in enumerate(zip(self.chips, self.mcs)):
            assert int(cycles[lane]) == mc.cycle, lane
            assert device.dropped_commands[lane] == chip.dropped_commands
            for bank, bank_cells in zip(chip.banks, device.cells):
                for scalar, cell in zip(bank.subarrays, bank_cells):
                    assert np.array_equal(scalar.cell_v, cell.cell_v[lane])
                    assert np.array_equal(scalar.bitline_v,
                                          cell.bitline_v[lane])
                    assert (scalar._noise.rng.bit_generator.state
                            == cell._noises[lane].rng.bit_generator.state)
