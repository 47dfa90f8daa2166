"""The fused engine: every device a lane of the vectorized engine.

Every requested ``(group, serial)`` module becomes a lane of a
:class:`~repro.dram.batched.BatchedChip` (fabricated bit-identically to
the scalar fleet member), and the whole program compiles to one
:mod:`repro.xir` program — one literal :class:`~repro.xir.ir.Commands`
op per command chunk, a :class:`~repro.xir.ir.Leak` per ``LEAK`` — that
runs across all lanes at once.  Lane ``i`` is cycle- and state-identical
to scalar device ``i``; telemetry counters multiply by the lane count
exactly as the scalar per-device loop would accumulate them.  A program
the compiler refuses (one that ends with a row open, or activates a
second row while one is open) raises
:class:`~repro.xir.compile.XirLoweringError` naming the op and
``--backend scalar`` before any lane runs.

Under ``ExperimentConfig.backend == "fused"`` every lane stage of the
experiments runs on the lane drivers, one lane per trial or module, and
all nine lane experiments (:data:`repro.xir.XIR_LOWERED_EXPERIMENTS`)
run compiled :mod:`repro.xir` programs, multi-row activations and
Half-m included.  The conformance suite (``tests/backends``) holds
``fused`` byte-identical to the scalar reference, results and telemetry
counters, serially and under fleet workers.
"""

from __future__ import annotations

from ..controller.batched import BatchedSoftMC
from ..controller.program import LeakStep
from ..dram.batched import BatchedChip
from ..xir import ir
from .base import DeviceResult, ProgramRequest, lane_state_digest

__all__ = ["execute_fused"]


def execute_fused(request: ProgramRequest) -> tuple[DeviceResult, ...]:
    """Run the validated program on every device at once, one lane each."""
    device = BatchedChip.from_fleet(
        request.devices, geometry=request.geometry,
        master_seed=request.master_seed)
    mc = BatchedSoftMC(device)
    ops: list[ir.Op] = []
    dts: dict[str, float] = {}
    for index, step in enumerate(request.program.steps):
        if isinstance(step, LeakStep):
            dts[f"leak{index}"] = step.seconds
            ops.append(ir.Leak(f"leak{index}"))
        else:
            ops.append(ir.Commands(step))
    reads = mc.runner.run(ops, rows={}, dts=dts)
    return tuple(
        DeviceResult(
            group=group_id, serial=int(serial),
            reads=tuple(block[index].copy() for block in reads),
            cycles=int(mc.cycles[index]),
            dropped_commands=int(device.dropped_commands[index]),
            state_digest=lane_state_digest(device, index))
        for index, (group_id, serial) in enumerate(request.devices))
