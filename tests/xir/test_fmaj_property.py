"""Property tests: fused fMAJ/nist flows equal the per-command walk.

:class:`~repro.core.batched_ops.BatchedFracDram` keeps the multi-row
activation on :class:`~repro.controller.batched.BatchedSoftMC` but runs
everything around it (operand stores, frac preparation, readout) as
compiled xir programs.  These tests pin the contract the fig9/fig10/nist
flows rely on: the result bits *and* deterministic telemetry counters of
the same flow with every in-spec step replayed per command
(:meth:`BatchedSoftMC.replay`) on an identically fabricated fleet, plus
byte-identical validation errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched_ops import BatchedFracDram
from repro.core.ops import FMajConfig, FracDram
from repro.dram.batched import BatchedChip
from repro.dram.chip import DramChip
from repro.dram.parameters import GeometryParams
from repro.errors import ConfigurationError
from repro.puf.frac_puf import PUF_N_FRAC
from repro.telemetry import session as telemetry_session
from repro.xir import ir

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)


class PerCommandFracDram(BatchedFracDram):
    """The oracle: maj3/f_maj with every in-spec step replayed per command."""

    def _replay(self, op, row, lanes, plane=None):
        """Replay ``op`` on ``row`` of every lane (parameter ``"r"``)."""
        return self.mc.replay(op, rows={"r": self._uniform(row, lanes)},
                              lanes=lanes,
                              data=None if plane is None else {"r": plane})

    def maj3(self, plan, operands, lanes):
        self._write_operands(plan, operands, None, lanes)
        self.multi_row_activate(plan, lanes)
        (bits,) = self._replay(ir.ReadRow(plan.bank, "r"), plan.opened[0],
                               lanes)
        return bits

    def f_maj(self, plan, operands, config, lanes):
        if not 0 <= config.frac_position < plan.n_rows:
            raise ConfigurationError(
                f"frac_position {config.frac_position} outside opened set")
        frac_row = plan.opened[config.frac_position]
        self._replay(ir.WriteRow(plan.bank, "r", config.init_ones), frac_row,
                     lanes)
        if config.n_frac > 0:
            self._replay(ir.Frac(plan.bank, "r", config.n_frac), frac_row,
                         lanes)
        self._write_operands(plan, operands, config.frac_position, lanes)
        self.multi_row_activate(plan, lanes)
        result_position = 0 if config.frac_position != 0 else 1
        (bits,) = self._replay(ir.ReadRow(plan.bank, "r"),
                               plan.opened[result_position], lanes)
        return bits

    def _write_operands(self, plan, operands, skip_position, lanes):
        positions = [index for index in range(plan.n_rows)
                     if index != skip_position]
        expected = (len(lanes), len(positions), self.columns)
        if operands.shape != expected:
            raise ConfigurationError(
                f"operand shape {operands.shape} != {expected}")
        for slot, position in enumerate(positions):
            self._replay(ir.WriteData(plan.bank, "r"), plan.opened[position],
                         lanes, operands[:, slot])


def make_pair(n_lanes, seed):
    """(fused, per-command) drivers over identically fabricated fleets."""
    units = [("B", serial) for serial in range(n_lanes)]

    def fleet():
        return BatchedChip.from_fleet(list(units), geometry=GEOMETRY,
                                      master_seed=seed,
                                      epochs=[0] * n_lanes)

    return BatchedFracDram(fleet()), PerCommandFracDram(fleet())


def donor(seed):
    return FracDram(DramChip("B", geometry=GEOMETRY, master_seed=seed,
                             serial=0))


def operand_planes(seed, n_lanes, n_slots):
    rng = np.random.default_rng(seed)
    return rng.random((n_lanes, n_slots, GEOMETRY.columns)) < 0.5


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       n_lanes=st.integers(1, 4),
       bank=st.integers(0, GEOMETRY.n_banks - 1),
       subarray=st.integers(0, GEOMETRY.subarrays_per_bank - 1))
def test_maj3_matches_batched(seed, n_lanes, bank, subarray):
    """Fused maj3 == per-command maj3: bits and telemetry counters."""
    fused, oracle = make_pair(n_lanes, seed)
    plan = donor(seed).triple_plan(bank, subarray)
    operands = operand_planes(seed, n_lanes, 3)
    lanes = fused.all_lanes()

    with telemetry_session() as oracle_telemetry:
        expected = oracle.maj3(plan, operands, lanes)
        expected_counters = oracle_telemetry.snapshot(
            deterministic=True)["counters"]
    with telemetry_session() as fused_telemetry:
        out = fused.maj3(plan, operands, lanes)
        counters = fused_telemetry.snapshot(deterministic=True)["counters"]

    assert np.array_equal(out, expected)
    assert counters == expected_counters


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       n_lanes=st.integers(1, 4),
       frac_position=st.integers(0, 3),
       init_ones=st.booleans(),
       n_frac=st.integers(0, 3))
def test_f_maj_matches_batched(seed, n_lanes, frac_position, init_ones,
                               n_frac):
    """Fused f_maj == per-command f_maj across the fig9 config sweep."""
    fused, oracle = make_pair(n_lanes, seed)
    plan = donor(seed).quad_plan(0, 0)
    config = FMajConfig(frac_position, init_ones, n_frac)
    operands = operand_planes(seed, n_lanes, 3)
    lanes = fused.all_lanes()

    with telemetry_session() as oracle_telemetry:
        expected = oracle.f_maj(plan, operands, config, lanes)
        expected_counters = oracle_telemetry.snapshot(
            deterministic=True)["counters"]
    with telemetry_session() as fused_telemetry:
        out = fused.f_maj(plan, operands, config, lanes)
        counters = fused_telemetry.snapshot(deterministic=True)["counters"]

    assert np.array_equal(out, expected)
    assert counters == expected_counters


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**20), n_lanes=st.integers(1, 4))
def test_nist_program_matches_batched(seed, n_lanes):
    """The nist trial-batch program == the per-command call sequence."""
    fused, oracle = make_pair(n_lanes, seed)
    lanes = fused.all_lanes()
    reserved = GEOMETRY.rows_per_subarray - 1

    program = (ir.WriteRow(0, "res", True),
               ir.RowCopy(0, "res", "row"),
               ir.Frac(0, "row", PUF_N_FRAC),
               ir.ReadRow(0, "row"))
    rows = {"res": [reserved] * n_lanes, "row": [0] * n_lanes}

    with telemetry_session() as oracle_telemetry:
        (expected,) = [read for op in program
                       for read in oracle.mc.replay(op, rows=rows,
                                                    lanes=lanes)]
        expected_counters = oracle_telemetry.snapshot(
            deterministic=True)["counters"]
    with telemetry_session() as fused_telemetry:
        (out,) = fused.run_program(program, rows=rows, lanes=lanes)
        counters = fused_telemetry.snapshot(deterministic=True)["counters"]

    assert np.array_equal(out, expected)
    assert counters == expected_counters


def test_validation_errors_match_batched():
    """Refusals are byte-identical to the per-command oracle's."""
    fused, oracle = make_pair(2, 7)
    plan = donor(7).quad_plan(0, 0)
    lanes = fused.all_lanes()
    bad_config = FMajConfig(frac_position=plan.n_rows, init_ones=True,
                            n_frac=1)
    good_config = FMajConfig(frac_position=0, init_ones=True, n_frac=1)
    bad_operands = operand_planes(7, 2, 2)

    for driver in (fused, oracle):
        with pytest.raises(ConfigurationError) as error:
            driver.f_maj(plan, bad_operands, bad_config, lanes)
        assert str(error.value) == (
            f"frac_position {plan.n_rows} outside opened set")
        with pytest.raises(ConfigurationError) as error:
            driver.f_maj(plan, bad_operands, good_config, lanes)
        assert str(error.value) == (
            f"operand shape {bad_operands.shape} != (2, 3, 32)")
        with pytest.raises(ConfigurationError) as error:
            driver.maj3(donor(7).triple_plan(0, 0), bad_operands, lanes)
        assert str(error.value) == (
            f"operand shape {bad_operands.shape} != (2, 3, 32)")
