"""The scalar reference engine: one ``SoftMC`` + ``DramChip`` per device.

This is the ground truth the fused engine is pinned against.  Devices
run one at a time through the permissive cycle-accurate controller —
exactly the path the original experiments used before batching existed —
so its outcomes define what "byte-identical" means for the conformance
suite.
"""

from __future__ import annotations

import numpy as np

from ..controller.program import LeakStep
from ..controller.softmc import SoftMC
from ..dram.chip import DramChip
from .base import DeviceResult, ProgramRequest, chip_state_digest

__all__ = ["execute_scalar"]


def execute_scalar(request: ProgramRequest) -> tuple[DeviceResult, ...]:
    """Run the validated program on each device in turn."""
    results = []
    for group_id, serial in request.devices:
        chip = DramChip(group_id, geometry=request.geometry,
                        serial=int(serial),
                        master_seed=request.master_seed)
        mc = SoftMC(chip)
        reads: list[np.ndarray] = []
        for step in request.program.steps:
            if isinstance(step, LeakStep):
                chip.advance_time(step.seconds)
            else:
                reads.extend(mc.run(step))
        results.append(DeviceResult(
            group=group_id, serial=int(serial), reads=tuple(reads),
            cycles=int(mc.cycle),
            dropped_commands=int(chip.dropped_commands),
            state_digest=chip_state_digest(chip)))
    return tuple(results)
