"""Property tests: fused fMAJ, Half-m and nist flows equal the scalar engine.

:class:`~repro.core.batched_ops.BatchedFracDram` runs every step of these
flows — operand stores, frac preparation, the multi-row activation or
Half-m, the readout — as compiled xir programs.  These tests pin the
contract the fig8/fig9/fig10/nist flows rely on: the result bits, every
lane's cell planes, noise-stream positions, cycles and drops, and the
deterministic telemetry counters of the same flow issued per command by
the scalar engine (:class:`tests.scalar_oracle.ScalarFleet`: each op's
command template on one scalar ``SoftMC`` per lane), plus
byte-identical validation errors.  Multi-row flows run on the plans of
groups B, C and D, on fleets that include group J, which enforces
command spacing.
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

from ..scalar_oracle import ScalarFleet

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)


class ScalarFracDram:
    """The oracle: maj3/f_maj/Half-m issued per command on scalar chips."""

    def __init__(self, units, seed):
        self.fleet = ScalarFleet(units, geometry=GEOMETRY, master_seed=seed)
        self.columns = GEOMETRY.columns

    def _run(self, op, row, lanes, plane=None, **rows):
        """Issue ``op`` on ``row`` of every lane (parameter ``"r"``)."""
        rows = {name: [value] * len(lanes) for name, value in rows.items()}
        if row is not None:
            rows["r"] = [row] * len(lanes)
        return self.fleet.run([op], rows=rows, lanes=lanes,
                              data=None if plane is None else {"r": plane})

    def _multi_row(self, op_type, plan, lanes):
        self._run(op_type(plan.bank, "r1", "r2"), None, lanes,
                  r1=plan.act_pair[0], r2=plan.act_pair[1])

    def maj3(self, plan, operands, lanes):
        self._write_operands(plan, operands, None, lanes)
        self._multi_row(ir.MultiRow, plan, lanes)
        (bits,) = self._run(ir.ReadRow(plan.bank, "r"), plan.opened[0],
                            lanes)
        return bits

    def f_maj(self, plan, operands, config, lanes):
        if not 0 <= config.frac_position < plan.n_rows:
            raise ConfigurationError(
                f"frac_position {config.frac_position} outside opened set")
        frac_row = plan.opened[config.frac_position]
        self._run(ir.WriteRow(plan.bank, "r", config.init_ones), frac_row,
                  lanes)
        if config.n_frac > 0:
            self._run(ir.Frac(plan.bank, "r", config.n_frac), frac_row,
                      lanes)
        self._write_operands(plan, operands, config.frac_position, lanes)
        self._multi_row(ir.MultiRow, plan, lanes)
        result_position = 0 if config.frac_position != 0 else 1
        (bits,) = self._run(ir.ReadRow(plan.bank, "r"),
                            plan.opened[result_position], lanes)
        return bits

    def half_m(self, plan, operands, lanes):
        self._write_operands(plan, operands, None, lanes)
        self._multi_row(ir.HalfM, plan, lanes)
        return [self._run(ir.ReadRow(plan.bank, "r"), row, lanes)[0]
                for row in plan.opened]

    def _write_operands(self, plan, operands, skip_position, lanes):
        positions = [index for index in range(plan.n_rows)
                     if index != skip_position]
        expected = (len(lanes), len(positions), self.columns)
        if operands.shape != expected:
            raise ConfigurationError(
                f"operand shape {operands.shape} != {expected}")
        for slot, position in enumerate(positions):
            self._run(ir.WriteData(plan.bank, "r"), plan.opened[position],
                      lanes, operands[:, slot])


def fused_half_m(driver, plan, operands, lanes):
    """fig8's shape on the lane driver: store, Half-m, read every row."""
    for slot, row in enumerate(plan.opened):
        driver.write_row(plan.bank, [row] * len(lanes), operands[:, slot],
                         lanes)
    driver.half_m_activate(plan, lanes)
    return [driver.read_row(plan.bank, [row] * len(lanes), lanes)
            for row in plan.opened]


def make_pair(units, seed):
    """(fused, scalar) drivers over identically fabricated fleets."""
    fleet = BatchedChip.from_fleet(list(units), geometry=GEOMETRY,
                                   master_seed=seed,
                                   epochs=[0] * len(units))
    return BatchedFracDram(fleet), ScalarFracDram(list(units), seed)


def traced(flow):
    """``flow()`` and the deterministic counters it produced."""
    with telemetry_session() as telemetry:
        out = flow()
        counters = telemetry.snapshot(deterministic=True)["counters"]
    return out, counters


def assert_flows_match(fused, oracle, fused_flow, oracle_flow):
    """Equal bits, counters and every lane's state."""
    out, counters = traced(fused_flow)
    expected, expected_counters = traced(oracle_flow)
    assert np.array_equal(out, expected)
    assert counters == expected_counters
    oracle.fleet.assert_matches(fused.device, fused.mc.cycles)


def donor(seed, group="B"):
    return FracDram(DramChip(group, geometry=GEOMETRY, master_seed=seed,
                             serial=0))


def operand_planes(seed, n_lanes, n_slots):
    rng = np.random.default_rng(seed)
    return rng.random((n_lanes, n_slots, GEOMETRY.columns)) < 0.5


def fleet_units(groups, serials):
    return [(group, serial) for group, serial in zip(groups, serials)]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       groups=st.lists(st.sampled_from("BBJ"), min_size=1, max_size=4),
       bank=st.integers(0, GEOMETRY.n_banks - 1),
       subarray=st.integers(0, GEOMETRY.subarrays_per_bank - 1))
def test_maj3_matches_batched(seed, groups, bank, subarray):
    """Fused maj3 == scalar maj3 on group B's triple, J lanes included."""
    units = fleet_units(groups, range(len(groups)))
    fused, oracle = make_pair(units, seed)
    plan = donor(seed).triple_plan(bank, subarray)
    operands = operand_planes(seed, len(units), 3)
    lanes = fused.all_lanes()
    assert_flows_match(fused, oracle,
                       lambda: fused.maj3(plan, operands, lanes),
                       lambda: oracle.maj3(plan, operands, lanes))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       plan_group=st.sampled_from("BCD"),
       groups=st.lists(st.sampled_from("BCD"), min_size=1, max_size=4),
       frac_position=st.integers(0, 3),
       init_ones=st.booleans(),
       n_frac=st.integers(0, 3))
def test_f_maj_matches_batched(seed, plan_group, groups, frac_position,
                               init_ones, n_frac):
    """Fused f_maj == scalar f_maj across the fig9 config sweep."""
    units = fleet_units(groups, range(len(groups)))
    fused, oracle = make_pair(units, seed)
    plan = donor(seed, plan_group).quad_plan(0, 0)
    config = FMajConfig(frac_position, init_ones, n_frac)
    operands = operand_planes(seed, len(units), 3)
    lanes = fused.all_lanes()
    assert_flows_match(fused, oracle,
                       lambda: fused.f_maj(plan, operands, config, lanes),
                       lambda: oracle.f_maj(plan, operands, config, lanes))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       plan=st.sampled_from((("B", "triple"), ("B", "quad"), ("C", "quad"),
                             ("D", "quad"))),
       groups=st.lists(st.sampled_from("BCDJ"), min_size=1, max_size=4),
       bank=st.integers(0, GEOMETRY.n_banks - 1),
       subarray=st.integers(0, GEOMETRY.subarrays_per_bank - 1))
def test_half_m_matches_scalar(seed, plan, groups, bank, subarray):
    """fig8's Half-m shape == scalar: partial amplification and freeze."""
    units = fleet_units(groups, range(len(groups)))
    fused, oracle = make_pair(units, seed)
    group, kind = plan
    source = donor(seed, group)
    multi_row = (source.triple_plan(bank, subarray) if kind == "triple"
                 else source.quad_plan(bank, subarray))
    operands = operand_planes(seed, len(units), multi_row.n_rows)
    lanes = fused.all_lanes()
    assert_flows_match(
        fused, oracle,
        lambda: fused_half_m(fused, multi_row, operands, lanes),
        lambda: oracle.half_m(multi_row, operands, lanes))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**20), n_lanes=st.integers(1, 4))
def test_nist_program_matches_batched(seed, n_lanes):
    """The nist trial-batch program == the scalar command stream."""
    units = fleet_units("B" * n_lanes, range(n_lanes))
    fused, oracle = make_pair(units, seed)
    lanes = fused.all_lanes()
    reserved = GEOMETRY.rows_per_subarray - 1

    program = (ir.WriteRow(0, "res", True),
               ir.RowCopy(0, "res", "row"),
               ir.Frac(0, "row", PUF_N_FRAC),
               ir.ReadRow(0, "row"))
    rows = {"res": [reserved] * n_lanes, "row": [0] * n_lanes}
    assert_flows_match(
        fused, oracle,
        lambda: fused.run_program(program, rows=rows, lanes=lanes),
        lambda: oracle.fleet.run(program, rows=rows, lanes=lanes))


def test_validation_errors_match_batched():
    """Refusals are byte-identical to the scalar oracle's."""
    fused, oracle = make_pair([("B", 0), ("B", 1)], 7)
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
