"""Property tests: fused xir execution equals the per-command walk bit for bit.

Two independent equivalences are exercised under hypothesis:

* **Kernel level** — the telemetry-off fast path (compacted action
  stream, one ``xir_frac_burst`` kernel per Frac ladder) against the
  telemetry-on slow path (per-step ``xir_charge_share``/``xir_freeze``
  kernels) against each challenge's commands replayed per command
  (:meth:`BatchedSoftMC.replay`).  All three must produce identical
  response bits on identically fabricated mixed-vendor fleets whose
  lanes sit at different noise epochs (a coalesced verification batch
  is one such fleet).
* **Program level** — the fig6 measurement-pass shape (write, Frac,
  precharge, leak, read) on fleets that mix spacing-enforcing and
  non-enforcing groups, so the runner's lane-class split and lockstep
  leak driver are both on the hot path.  Results *and* deterministic
  telemetry counters must match the per-command replay exactly.

Both levels also pin every lane's noise-stream *position* after the run.
A write-row cycle's charge-share and sense draws are dead (its own write
overwrites their effect), so a runner that stopped consuming them would
still read back the right bits; only the generator states show it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.puf.batched_puf import BatchedFracPuf
from repro.puf.frac_puf import PUF_N_FRAC, Challenge, reserved_row
from repro.telemetry import session as telemetry_session
from repro.xir import FusedRunner, ir
from repro.xir.puf import FusedFracPuf

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)
ROWS_PER_BANK = GEOMETRY.subarrays_per_bank * GEOMETRY.rows_per_subarray


def make_fleet(units, seed, epochs=None, geometry=GEOMETRY):
    return BatchedChip.from_fleet(list(units), geometry=geometry,
                                  master_seed=seed,
                                  epochs=epochs or [0] * len(units))


def run_per_command(bfd, ops, rows, lanes, dts=None):
    """``ops`` replayed per command on ``bfd``'s controller: the reads."""
    reads = []
    for op in ops:
        if isinstance(op, ir.Leak):
            bfd.advance_time(dts[op.dt], lanes)
        else:
            reads += bfd.mc.replay(op, rows=rows, lanes=lanes)
    return reads


def evaluate_per_command(puf, challenge):
    """``BatchedFracPuf.evaluate``'s command stream, replayed per command."""
    lanes = puf.bfd.all_lanes()
    bank = challenge.bank
    reserved = reserved_row(challenge.row, GEOMETRY.rows_per_subarray)
    ops = [ir.RowCopy(bank, "res", "row"), ir.Frac(bank, "row", puf.n_frac),
           ir.ReadRow(bank, "row")]
    if (bank, reserved) not in puf._prepared_reserved:
        ops.insert(0, ir.WriteRow(bank, "res", True))
        puf._prepared_reserved.add((bank, reserved))
    rows = {"res": [reserved] * len(lanes),
            "row": [challenge.row] * len(lanes)}
    (bits,) = run_per_command(puf.bfd, ops, rows, lanes)
    return bits


def stream_states(device):
    """Every lane's noise-generator state, for every bank and sub-array."""
    return [[[noise.rng.bit_generator.state for noise in cell._noises]
             for cell in bank_cells]
            for bank_cells in device.cells]


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
    """Fast path == slow path == per-command replay, bit for bit."""
    units = [(group_id, serial) for group_id, serial, _ in lanes]
    epochs = [epoch for _, _, epoch in lanes]
    chals = [Challenge(bank, row) for bank, row in challenges]
    fast = FusedFracPuf(make_fleet(units, seed, epochs), n_frac=n_frac)
    slow = FusedFracPuf(make_fleet(units, seed, epochs), n_frac=n_frac)
    batched = BatchedFracPuf(make_fleet(units, seed, epochs), n_frac=n_frac)

    fast_out = fast.evaluate_many(chals)   # telemetry off: burst kernels
    with telemetry_session():
        slow_out = slow.evaluate_many(chals)  # telemetry on: stepwise
    batched_out = np.stack([evaluate_per_command(batched, challenge)
                            for challenge in chals], axis=1)

    assert np.array_equal(fast_out, slow_out)
    assert np.array_equal(fast_out, batched_out)
    assert stream_states(fast.bfd.device) == stream_states(batched.bfd.device)
    assert stream_states(slow.bfd.device) == stream_states(batched.bfd.device)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       n_frac=st.integers(0, 4),
       wait=st.sampled_from([0.0, 0.05, 0.5]),
       bank=st.integers(0, GEOMETRY.n_banks - 1),
       row=st.integers(0, ROWS_PER_BANK - 1),
       enforcing=st.booleans())
def test_program_matches_batched_on_mixed_fleets(seed, n_frac, wait, bank,
                                                 row, enforcing):
    """fig6-shape programs: identical bits and telemetry counters."""
    units = [("B", 0), ("J" if enforcing else "C", 0), ("G", 1)]
    lanes = list(range(len(units)))
    rows = [row] * len(units)

    ops: list[ir.Op] = [ir.WriteRow(bank, "t", True)]
    if n_frac:
        ops.append(ir.Frac(bank, "t", n_frac))
    if wait > 0:
        ops.append(ir.PrechargeAll())
        ops.append(ir.Leak("w"))
    ops.append(ir.ReadRow(bank, "t"))

    bfd = BatchedFracDram(make_fleet(units, seed))
    with telemetry_session() as batched_telemetry:
        (expected,) = run_per_command(bfd, ops, {"t": rows}, lanes,
                                      dts={"w": wait})
        batched_counters = batched_telemetry.snapshot(
            deterministic=True)["counters"]

    slow_runner = FusedRunner(BatchedFracDram(make_fleet(units, seed)).mc)
    with telemetry_session() as fused_telemetry:
        slow_out = slow_runner.run(ops, rows={"t": rows}, dts={"w": wait},
                                   lanes=lanes)[0]
        fused_counters = fused_telemetry.snapshot(
            deterministic=True)["counters"]

    fast_runner = FusedRunner(BatchedFracDram(make_fleet(units, seed)).mc)
    fast_out = fast_runner.run(ops, rows={"t": rows}, dts={"w": wait},
                               lanes=lanes)[0]

    assert np.array_equal(slow_out, expected)
    assert np.array_equal(fast_out, expected)
    assert fused_counters == batched_counters
    assert stream_states(fast_runner.device) == stream_states(bfd.device)
    assert stream_states(slow_runner.device) == stream_states(bfd.device)


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
    """Fast == full == per-command on outputs *and* every stream state."""
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
    bfd = BatchedFracDram(make_fleet(units, 7, epochs, geometry=WIDE))
    batched_out = run_per_command(bfd, ops, rows, lanes)

    assert len(fast_out) == len(batched_out)
    for fast_bits, full_bits, batched_bits in zip(fast_out, full_out,
                                                  batched_out):
        assert np.array_equal(fast_bits, batched_bits)
        assert np.array_equal(full_bits, batched_bits)
    assert stream_states(fast.device) == stream_states(bfd.device)
    assert stream_states(full.device) == stream_states(bfd.device)
