"""Property tests: fused xir execution equals the scalar engine bit for bit.

The oracle is the scalar reference: one :class:`~repro.controller
.softmc.SoftMC` per lane issuing each op's command template
(:class:`tests.scalar_oracle.ScalarFleet`).  Three equivalences are
exercised under hypothesis:

* **Kernel level** — the telemetry-off fast path (compacted action
  stream, one ``xir_frac_burst`` kernel per Frac ladder) against the
  telemetry-on slow path (per-step ``xir_charge_share``/``xir_freeze``
  kernels) against the scalar engine, on identically fabricated
  mixed-vendor fleets whose lanes sit at different noise epochs (a
  coalesced verification batch is one such fleet).
* **Program level** — the fig6 measurement-pass shape (write, Frac,
  precharge, leak, read) on fleets that mix spacing-enforcing and
  non-enforcing groups, so the runner's lane-class split and lockstep
  leak driver are both on the hot path.
* **Glitch level** — programs mixing multi-row activations and Half-m
  (the unsensed close-abort glitch and partial amplification) with
  stores, Frac ladders and reads, on the plans of groups B, C and D and
  fleets that include group J, which enforces command spacing.

Each compares reads, cell planes and bit-lines, every lane's noise-stream
*position*, cycle counters, dropped commands and deterministic telemetry
counters.  A write-row cycle's charge-share and sense draws are dead (its
own write overwrites their effect), so a runner that stopped consuming
them would still read back the right bits; only the generator states
show it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batched_ops import BatchedFracDram
from repro.core.ops import FracDram
from repro.dram.batched import BatchedChip
from repro.dram.chip import DramChip
from repro.dram.parameters import GeometryParams
from repro.puf.frac_puf import PUF_N_FRAC, Challenge, reserved_row
from repro.telemetry import session as telemetry_session
from repro.xir import FusedRunner, ir
from repro.xir.puf import FusedFracPuf

from ..scalar_oracle import ScalarFleet

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)
ROWS_PER_BANK = GEOMETRY.subarrays_per_bank * GEOMETRY.rows_per_subarray


def make_fleet(units, seed, epochs=None, geometry=GEOMETRY):
    return BatchedChip.from_fleet(list(units), geometry=geometry,
                                  master_seed=seed,
                                  epochs=epochs or [0] * len(units))


def make_oracle(units, seed, epochs=None, geometry=GEOMETRY):
    return ScalarFleet(list(units), geometry=geometry, master_seed=seed,
                       epochs=epochs or [0] * len(units))


def puf_ops(prepared, challenge, n_frac):
    """One challenge's evaluation ops, with the lazy reserved-row fill."""
    bank = challenge.bank
    reserved = reserved_row(challenge.row, GEOMETRY.rows_per_subarray)
    ops = [ir.RowCopy(bank, "res", "row"), ir.Frac(bank, "row", n_frac),
           ir.ReadRow(bank, "row")]
    if (bank, reserved) not in prepared:
        ops.insert(0, ir.WriteRow(bank, "res", True))
        prepared.add((bank, reserved))
    return ops, reserved


#: (bank, row) pairs avoiding each sub-array's reserved top row.
challenge_rows = st.tuples(
    st.integers(0, GEOMETRY.n_banks - 1),
    st.integers(0, ROWS_PER_BANK - 1).filter(
        lambda row: row % GEOMETRY.rows_per_subarray
        != GEOMETRY.rows_per_subarray - 1))


#: One lane of a fleet: (group, serial, noise epoch).
fleet_lanes = st.tuples(st.sampled_from("ABCG"), st.integers(0, 3),
                        st.integers(0, 3))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20),
       n_frac=st.integers(1, 6),
       challenges=st.lists(challenge_rows, min_size=1, max_size=4),
       lanes=st.lists(fleet_lanes, min_size=1, max_size=3))
# A coalesced serving batch: honest modules of three vendors at three
# re-measurement epochs plus an unenrolled serial, on the service's
# default PUF parameters and challenge rows.
@example(seed=2022, n_frac=PUF_N_FRAC, challenges=[(0, 0), (0, 1)],
         lanes=[("A", 1, 2), ("B", 2, 1), ("C", 0, 3), ("B", 500, 1),
                ("A", 2, 1)])
def test_frac_burst_matches_stepwise_and_batched(seed, n_frac, challenges,
                                                 lanes):
    """Fast path == slow path == scalar engine, bit for bit."""
    units = [(group_id, serial) for group_id, serial, _ in lanes]
    epochs = [epoch for _, _, epoch in lanes]
    chals = [Challenge(bank, row) for bank, row in challenges]
    fast = FusedFracPuf(make_fleet(units, seed, epochs), n_frac=n_frac)
    slow = FusedFracPuf(make_fleet(units, seed, epochs), n_frac=n_frac)
    oracle = make_oracle(units, seed, epochs)

    fast_out = fast.evaluate_many(chals)   # telemetry off: burst kernels
    with telemetry_session():
        slow_out = slow.evaluate_many(chals)  # telemetry on: stepwise
    n_lanes = len(units)
    prepared: set = set()
    expected = []
    for challenge in chals:
        ops, reserved = puf_ops(prepared, challenge, n_frac)
        (bits,) = oracle.run(ops, rows={"res": [reserved] * n_lanes,
                                        "row": [challenge.row] * n_lanes},
                             lanes=list(range(n_lanes)))
        expected.append(bits)

    assert np.array_equal(fast_out, slow_out)
    assert np.array_equal(fast_out, np.stack(expected, axis=1))
    oracle.assert_matches(fast.bfd.device, fast.bfd.mc.cycles)
    oracle.assert_matches(slow.bfd.device, slow.bfd.mc.cycles)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       n_frac=st.integers(0, 4),
       wait=st.sampled_from([0.0, 0.05, 0.5]),
       bank=st.integers(0, GEOMETRY.n_banks - 1),
       row=st.integers(0, ROWS_PER_BANK - 1),
       enforcing=st.booleans())
def test_program_matches_batched_on_mixed_fleets(seed, n_frac, wait, bank,
                                                 row, enforcing):
    """fig6-shape programs: identical bits, state and counters."""
    units = [("B", 0), ("J" if enforcing else "C", 0), ("G", 1)]
    lanes = list(range(len(units)))
    rows = {"t": [row] * len(units)}

    ops: list[ir.Op] = [ir.WriteRow(bank, "t", True)]
    if n_frac:
        ops.append(ir.Frac(bank, "t", n_frac))
    if wait > 0:
        ops.append(ir.PrechargeAll())
        ops.append(ir.Leak("w"))
    ops.append(ir.ReadRow(bank, "t"))

    assert_program_matches_scalar(units, seed, ops, rows, {"w": wait})


def assert_program_matches_scalar(units, seed, ops, rows, dts=None):
    """Fast runner == full runner == scalar engine on ``ops``."""
    lanes = list(range(len(units)))
    oracle = make_oracle(units, seed)
    with telemetry_session() as scalar_telemetry:
        expected = oracle.run(ops, rows=rows, lanes=lanes, dts=dts)
        scalar_counters = scalar_telemetry.snapshot(
            deterministic=True)["counters"]

    slow_runner = FusedRunner(BatchedFracDram(make_fleet(units, seed)).mc)
    with telemetry_session() as fused_telemetry:
        slow_out = slow_runner.run(ops, rows=rows, dts=dts, lanes=lanes)
        fused_counters = fused_telemetry.snapshot(
            deterministic=True)["counters"]

    fast_runner = FusedRunner(BatchedFracDram(make_fleet(units, seed)).mc)
    fast_out = fast_runner.run(ops, rows=rows, dts=dts, lanes=lanes)

    assert len(slow_out) == len(fast_out) == len(expected)
    for slow_bits, fast_bits, bits in zip(slow_out, fast_out, expected):
        assert np.array_equal(slow_bits, bits)
        assert np.array_equal(fast_bits, bits)
    assert fused_counters == scalar_counters
    for runner in (slow_runner, fast_runner):
        oracle.assert_matches(runner.device, runner.mc.cycles)


def multi_row_plan(group, kind, bank, subarray):
    """A scalar donor's plan: group B's MAJ3 triple or a four-row quad."""
    donor = FracDram(DramChip(group, geometry=GEOMETRY, master_seed=0))
    if kind == "triple":
        return donor.triple_plan(bank, subarray)
    return donor.quad_plan(bank, subarray)


@st.composite
def glitch_programs(draw):
    """A program over one multi-row plan: stores, glitches, reads.

    Frac ladders come paired with a read of their row: a spacing-enforcing
    lane drops the Frac PRECHARGEs and leaves the row open, and the read
    closes it (as fig6's measurement pass does).
    """
    group = draw(st.sampled_from("BCD"))
    kind = draw(st.sampled_from(("triple", "quad") if group == "B"
                                else ("quad",)))
    bank = draw(st.integers(0, GEOMETRY.n_banks - 1))
    subarray = draw(st.integers(0, GEOMETRY.subarrays_per_bank - 1))
    plan = multi_row_plan(group, kind, bank, subarray)
    slots = list(range(plan.n_rows))
    op_kinds = st.sampled_from(("fill", "frac", "read", "multi", "half-m",
                                "precharge", "leak"))
    ops: list[ir.Op] = []
    for choice in draw(st.lists(op_kinds, min_size=1, max_size=7)):
        slot = f"o{draw(st.sampled_from(slots))}"
        if choice == "fill":
            ops.append(ir.WriteRow(bank, slot, draw(st.booleans())))
        elif choice == "frac":
            ops += [ir.Frac(bank, slot, draw(st.integers(1, 3))),
                    ir.ReadRow(bank, slot)]
        elif choice == "read":
            ops.append(ir.ReadRow(bank, slot))
        elif choice == "multi":
            ops.append(ir.MultiRow(bank, "r1", "r2"))
        elif choice == "half-m":
            ops.append(ir.HalfM(bank, "r1", "r2"))
        elif choice == "precharge":
            ops.append(ir.PrechargeAll())
        else:
            ops.append(ir.Leak("w"))
    return plan, ops


#: A fleet lane for glitch programs: groups B, C, D and J.
glitch_lanes = st.tuples(st.sampled_from("BCDJ"), st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20),
       program=glitch_programs(),
       lanes=st.lists(glitch_lanes, min_size=1, max_size=4),
       wait=st.sampled_from([0.05, 3.0]))
def test_glitch_programs_match_scalar(seed, program, lanes, wait):
    """MultiRow and HalfM among stores, Fracs and reads == scalar."""
    plan, ops = program
    units = [(group_id, serial) for group_id, serial in lanes]
    n_lanes = len(units)
    rows = {"r1": [plan.act_pair[0]] * n_lanes,
            "r2": [plan.act_pair[1]] * n_lanes}
    for slot, row in enumerate(plan.opened):
        rows[f"o{slot}"] = [row] * n_lanes
    assert_program_matches_scalar(units, seed, ops, rows, {"w": wait})


#: Wide rows: a write-row cycle's dead draws span 2 x 8,192 values.
WIDE = GeometryParams(n_banks=1, subarrays_per_bank=2, rows_per_subarray=16,
                      columns=8192)


@pytest.mark.parametrize("ops", [
    # Write one sub-array, work on another, then read the first.
    [ir.WriteRow(0, "a", True), ir.WriteRow(0, "b", False),
     ir.ReadRow(0, "b"), ir.Frac(0, "a", 2), ir.ReadRow(0, "a")],
    # The last write's dead draws are never followed by any read.
    [ir.WriteRow(0, "a", True), ir.ReadRow(0, "a"),
     ir.WriteRow(0, "b", False)],
], ids=["read-after-dead-spans", "trailing-write"])
def test_dead_write_draws_keep_every_stream_in_step(ops):
    """Fast == full == scalar on outputs *and* every stream state."""
    units = [("B", 0), ("C", 1), ("G", 2)]
    epochs = [0, 1, 2]
    lanes = list(range(len(units)))
    rps = WIDE.rows_per_subarray
    rows = {"a": [1, 2, 3], "b": [rps + 1, rps + 4, rps + 2]}

    def fused():
        fleet = make_fleet(units, 7, epochs, geometry=WIDE)
        return FusedRunner(BatchedFracDram(fleet).mc)

    fast = fused()
    fast_out = fast.run(ops, rows=rows, lanes=lanes)  # store actions
    full = fused()
    with telemetry_session():
        full_out = full.run(ops, rows=rows, lanes=lanes)  # every step
    oracle = make_oracle(units, 7, epochs, geometry=WIDE)
    expected = oracle.run(ops, rows=rows, lanes=lanes)

    assert len(fast_out) == len(expected)
    for fast_bits, full_bits, bits in zip(fast_out, full_out, expected):
        assert np.array_equal(fast_bits, bits)
        assert np.array_equal(full_bits, bits)
    oracle.assert_matches(fast.device, fast.mc.cycles)
    oracle.assert_matches(full.device, full.mc.cycles)
