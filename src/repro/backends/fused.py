"""The fused engine: every device a lane of the vectorized engine.

Every requested ``(group, serial)`` module becomes a lane of a
:class:`~repro.dram.batched.BatchedChip` (fabricated bit-identically to
the scalar fleet member), and a program replays across all lanes at
once through :class:`~repro.controller.batched.BatchedSoftMC`.  Lane
``i`` is cycle- and state-identical to scalar device ``i``; telemetry
counters multiply by the lane count exactly as the scalar per-device
loop would accumulate them.

Under ``ExperimentConfig.backend == "fused"`` every lane stage of the
experiments runs on the lane drivers, one lane per trial or module, and
all nine lane experiments (:data:`repro.xir.XIR_LOWERED_EXPERIMENTS`,
fig8 included) replay compiled :mod:`repro.xir` programs; only the
multi-row activation and Half-m glitches still run per command.  The
conformance suite (``tests/backends``) holds ``fused`` byte-identical
to the scalar reference, results and telemetry counters, serially and
under fleet workers.
"""

from __future__ import annotations

from ..controller.batched import BatchedSoftMC
from ..controller.program import LeakStep
from ..dram.batched import BatchedChip
from .base import DeviceResult, ProgramRequest, lane_state_digest

__all__ = ["execute_fused"]


def execute_fused(request: ProgramRequest) -> tuple[DeviceResult, ...]:
    """Run the validated program on every device at once, one lane each."""
    device = BatchedChip.from_fleet(
        request.devices, geometry=request.geometry,
        master_seed=request.master_seed)
    mc = BatchedSoftMC(device)
    lanes = mc.all_lanes()
    reads_per_lane: list[list] = [[] for _ in lanes]
    for step in request.program.steps:
        if isinstance(step, LeakStep):
            device.advance_time(step.seconds, lanes)
        else:
            for block in mc.run(step, lanes):
                for index in lanes:
                    reads_per_lane[index].append(block[index].copy())
    return tuple(
        DeviceResult(
            group=group_id, serial=int(serial),
            reads=tuple(reads_per_lane[index]),
            cycles=int(mc.cycles[index]),
            dropped_commands=int(device.dropped_commands[index]),
            state_digest=lane_state_digest(device, index))
        for index, (group_id, serial) in enumerate(request.devices))
