"""Error paths: lowering refusals and binding-time diagnostics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import ElectricalParams, GeometryParams
from repro.errors import AddressError, CommandSequenceError, ConfigurationError
from repro.puf.frac_puf import Challenge
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
