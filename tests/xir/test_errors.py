"""Error paths: lowering refusals, binding-time diagnostics, no lanes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import ElectricalParams, GeometryParams
from repro.errors import AddressError, CommandSequenceError, ConfigurationError
from repro.puf.frac_puf import Challenge
from repro.telemetry import Telemetry, activate, deactivate
from repro.xir import XirLoweringError, ir
from repro.xir.executor import FusedRunner
from repro.xir.puf import FusedFracPuf

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)


def make_device(units=(("B", 0), ("C", 0))):
    return BatchedChip.from_fleet(list(units), geometry=GEOMETRY,
                                  master_seed=7,
                                  epochs=[0] * len(units))


def make_runner(units=(("B", 0), ("C", 0))):
    return FusedRunner(BatchedFracDram(make_device(units)).mc)


def test_non_uniform_sense_enable_is_refused():
    # The batched facade already refuses mixed electrical timing at
    # construction, so build the controller first and then perturb one
    # lane's profile — the runner must still catch the drift itself
    # (its compiled schedules bake the sense-enable window in).
    device = make_device()
    mc = BatchedFracDram(device).mc
    slow = dataclasses.replace(device.groups[1].electrical,
                               sense_enable_cycles=5)
    device.groups = [device.groups[0],
                     dataclasses.replace(device.groups[1], electrical=slow)]
    with pytest.raises(XirLoweringError, match="sense-enable"):
        FusedRunner(mc)


def test_missing_row_binding():
    runner = make_runner()
    with pytest.raises(CommandSequenceError,
                       match="missing row binding for parameter 't'"):
        runner.run((ir.WriteRow(0, "t", True),), rows={})


def test_missing_duration_binding():
    runner = make_runner()
    ops = (ir.WriteRow(0, "t", True), ir.PrechargeAll(), ir.Leak("w"),
           ir.ReadRow(0, "t"))
    with pytest.raises(CommandSequenceError,
                       match="missing duration binding for parameter 'w'"):
        runner.run(ops, rows={"t": [1, 2]}, dts={})


def test_row_out_of_range():
    runner = make_runner()
    with pytest.raises(AddressError, match="out of range"):
        runner.run((ir.WriteRow(0, "t", True), ir.ReadRow(0, "t")),
                   rows={"t": [1, GEOMETRY.rows_per_bank]})


def test_row_copy_across_subarrays_is_refused():
    runner = make_runner()
    ops = (ir.WriteRow(0, "src", True), ir.RowCopy(0, "src", "dst"),
           ir.ReadRow(0, "dst"))
    with pytest.raises(XirLoweringError, match="crosses sub-arrays"):
        runner.run(ops, rows={"src": [1, 1],
                              "dst": [GEOMETRY.rows_per_subarray] * 2})


def test_reserved_row_challenge_is_refused():
    puf = FusedFracPuf(make_device())
    reserved = GEOMETRY.rows_per_subarray - 1
    with pytest.raises(ConfigurationError, match="reserved"):
        puf.evaluate_many([Challenge(0, reserved)])


def _device_state(device):
    """Every piece of lane state a run could touch."""
    cells = [cell for bank_cells in device.cells for cell in bank_cells]
    return ([cell.cell_v.copy() for cell in cells],
            [cell.bitline_v.copy() for cell in cells],
            [[noise.rng.bit_generator.state for noise in cell._noises]
             for cell in cells],
            [dict(last) for last in device._last_cmd])


# Group B's decoder never gates command spacing, group J's does: the two
# lane-class layouts (one spacing-free class, one enforcing class).
@pytest.mark.parametrize("group_id", ["B", "J"])
def test_no_lanes_reads_empty_planes_and_leaves_the_device_untouched(
        group_id):
    device = make_device(((group_id, 0), (group_id, 1)))
    mc = BatchedFracDram(device).mc
    before = _device_state(device)
    telemetry = activate(Telemetry())
    try:
        reads = FusedRunner(mc).run(
            (ir.WriteRow(0, "w", True), ir.ReadRow(0, "r"),
             ir.ReadRow(1, "r")),
            rows={"w": [], "r": []}, lanes=[])
        wrapper_read = mc.read_row(0, [], [])
        mc.fill_row(0, [], True, [])
    finally:
        deactivate()
    assert len(reads) == 2
    for plane in (*reads, wrapper_read):
        assert plane.shape == (0, GEOMETRY.columns)
        assert plane.dtype == bool
    after = _device_state(device)
    for was, now in zip(before[:2], after[:2]):
        for old, new in zip(was, now):
            np.testing.assert_array_equal(old, new)
    assert after[2:] == before[2:]
    assert not mc.cycles.any()
    assert telemetry.snapshot(deterministic=True)["counters"] == {}
