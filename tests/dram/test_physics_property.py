"""Property tests: charge-sharing and leakage monotonicity (hypothesis).

Complements ``tests/property/test_physics_invariants.py`` (conservation
laws) with ordering properties:

* charge sharing moves every column toward a convex combination of the
  participants — the equilibrium is bounded by [min, max] of the cell
  voltage and the precharged bit-line, and is monotone in the starting
  cell voltage;
* leakage only ever removes charge, longer waits never leave more, decay
  composes additively, and raising the temperature accelerates it;
* the trial-batched kernels (:class:`repro.dram.batched.BatchedSubArray`),
  driven by compiled xir programs, are bit-for-bit equal to a loop of
  scalar kernels for random lane counts, shapes and seeds — the
  byte-identity contract of the lane engine, checked at the physics
  layer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.batched import BatchedSoftMC
from repro.controller.commands import (
    Activate,
    CommandSequence,
    Precharge,
    ReadRow,
    TimedCommand,
)
from repro.dram.addressing import IdentityMap
from repro.dram.batched import BatchedChip, BatchedSubArray
from repro.dram.decoder import DecoderProfile
from repro.dram.environment import Environment
from repro.dram.parameters import (
    ElectricalParams,
    GeometryParams,
    VariationParams,
)
from repro.dram.rng import NoiseSource
from repro.dram.subarray import (
    CLOSE_ABORT_WINDOW,
    CouplingProfile,
    SubArray,
    VariationPlanes,
)
from repro.dram.vendor import GroupProfile
from repro.xir import FusedRunner, ir

ENV = Environment()
N_COLS = 8

#: All stochastic knobs silenced so properties are exact inequalities.
QUIET = VariationParams(
    sa_offset_sigma=0.0, read_noise_sigma=0.0,
    primary_weight_mean=0.0, primary_weight_sigma=0.0,
    weight_jitter_sigma=0.0, multirow_bias_sigma=0.0,
    vrt_cell_fraction=0.0, halfm_amp_sigma=0.0, halfm_amp_mean=0.5)


def make_subarray(variation: VariationParams = QUIET,
                  seed: int = 0) -> SubArray:
    return SubArray(
        n_rows=16, n_cols=N_COLS,
        electrical=ElectricalParams(),
        variation=variation,
        decoder_profile=DecoderProfile(
            triple_bit_pairs=frozenset({(0, 1)}),
            quad_bit_pairs=frozenset({(0, 3)})),
        coupling=CouplingProfile(),
        fabrication_rng=np.random.default_rng(seed),
        noise=NoiseSource(seed, "physics-property"),
    )


voltages = st.lists(st.floats(0.0, 1.0), min_size=N_COLS, max_size=N_COLS)
durations = st.floats(min_value=0.0, max_value=3600.0)


class TestChargeSharingMonotonicity:
    @given(voltages, st.integers(0, 15))
    @settings(deadline=None)
    def test_equilibrium_bounded_by_participants(self, row_v, row):
        subarray = make_subarray()
        subarray.cell_v[row] = row_v
        subarray.activate(row, 0, ENV)  # share only; sense fires later
        low = np.minimum(row_v, 0.5)
        high = np.maximum(row_v, 0.5)
        assert np.all(subarray.bitline_v >= low - 1e-12)
        assert np.all(subarray.bitline_v <= high + 1e-12)
        # Cells equilibrate with the bit-line during the share.
        np.testing.assert_allclose(subarray.cell_v[row], subarray.bitline_v,
                                   atol=1e-12)

    @given(voltages, voltages, st.integers(0, 15))
    @settings(deadline=None)
    def test_equilibrium_monotone_in_cell_voltage(self, a, b, row):
        lower = np.minimum(a, b)
        upper = np.maximum(a, b)
        sub_lower, sub_upper = make_subarray(), make_subarray()
        sub_lower.cell_v[row] = lower
        sub_upper.cell_v[row] = upper
        sub_lower.activate(row, 0, ENV)
        sub_upper.activate(row, 0, ENV)
        assert np.all(sub_upper.bitline_v >= sub_lower.bitline_v - 1e-12)

    @given(st.floats(0.0, 1.0), st.integers(0, 15))
    @settings(deadline=None)
    def test_quiet_sense_restores_full_level(self, level, row):
        subarray = make_subarray()
        subarray.cell_v[row] = level
        subarray.activate(row, 0, ENV)
        subarray.settle(10, ENV)
        decision = bool(subarray.row_buffer()[0])
        restored = subarray.cell_v[row][0]
        assert restored in (0.0, 1.0)
        assert decision == (restored == 1.0)
        # Shares toward Vdd/2 never flip a quiet full-level cell.
        if level > 0.5:
            assert decision is True
        elif level < 0.5:
            assert decision is False


class TestLeakageMonotonicity:
    @given(voltages, durations)
    @settings(deadline=None)
    def test_leak_never_adds_charge(self, row_v, dt):
        subarray = make_subarray()
        subarray.cell_v[3] = row_v
        before = subarray.cell_v.copy()
        subarray.leak(dt, ENV)
        assert np.all(subarray.cell_v <= before + 1e-15)
        assert np.all(subarray.cell_v >= 0.0)

    @given(voltages, durations, durations)
    @settings(deadline=None)
    def test_longer_wait_never_leaves_more(self, row_v, dt_a, dt_b):
        shorter, longer = sorted((dt_a, dt_b))
        sub_short, sub_long = make_subarray(), make_subarray()
        sub_short.cell_v[3] = row_v
        sub_long.cell_v[3] = row_v
        sub_short.leak(shorter, ENV)
        sub_long.leak(longer, ENV)
        assert np.all(sub_long.cell_v[3] <= sub_short.cell_v[3] + 1e-15)

    @given(voltages, st.floats(0.001, 1800.0), st.floats(0.001, 1800.0))
    @settings(deadline=None)
    def test_decay_composes_additively(self, row_v, dt_a, dt_b):
        split, whole = make_subarray(), make_subarray()
        split.cell_v[3] = row_v
        whole.cell_v[3] = row_v
        split.leak(dt_a, ENV)
        split.leak(dt_b, ENV)
        whole.leak(dt_a + dt_b, ENV)
        np.testing.assert_allclose(split.cell_v[3], whole.cell_v[3],
                                   rtol=1e-9, atol=1e-12)

    @given(voltages, st.floats(1.0, 3600.0),
           st.floats(20.0, 85.0), st.floats(20.0, 85.0))
    @settings(deadline=None)
    def test_hotter_leaks_at_least_as_fast(self, row_v, dt, t_a, t_b):
        cool_t, hot_t = sorted((t_a, t_b))
        cool, hot = make_subarray(), make_subarray()
        cool.cell_v[3] = row_v
        hot.cell_v[3] = row_v
        cool.leak(dt, Environment(temperature_c=cool_t))
        hot.leak(dt, Environment(temperature_c=hot_t))
        assert np.all(hot.cell_v[3] <= cool.cell_v[3] + 1e-15)

    @given(voltages, durations)
    @settings(deadline=None)
    def test_vrt_cells_still_only_decay(self, row_v, dt):
        noisy = make_subarray(
            variation=VariationParams(vrt_cell_fraction=1.0), seed=7)
        noisy.cell_v[3] = row_v
        before = noisy.cell_v.copy()
        noisy.leak(dt, ENV)
        assert np.all(noisy.cell_v <= before + 1e-15)
        assert np.all(noisy.cell_v >= 0.0)


# ----------------------------------------------------------------------
# Batched-engine equality: every kernel must produce bit-for-bit the
# floats of a loop of scalar kernels (the byte-identity contract).
# ----------------------------------------------------------------------

def _build_subarray(n_rows: int, n_cols: int, seed: int,
                    variation: VariationParams) -> SubArray:
    return SubArray(
        n_rows=n_rows, n_cols=n_cols,
        electrical=ElectricalParams(),
        variation=variation,
        decoder_profile=DecoderProfile(
            triple_bit_pairs=frozenset({(0, 1)}),
            quad_bit_pairs=frozenset({(0, 3)})),
        coupling=CouplingProfile(),
        fabrication_rng=np.random.default_rng(seed),
        noise=NoiseSource(seed, "physics-property-batched"),
    )


def _make_pair(n_rows: int, n_cols: int, seeds: list[int],
               variation: VariationParams,
               ) -> tuple[list[SubArray], BatchedSubArray, BatchedSoftMC]:
    """Scalar sub-arrays and their batched twin, identically fabricated,
    plus a controller around the twin.

    Both sides are constructed from the same (seed, tag) streams, so the
    scalar loop and the batched kernels start from the same silicon and
    the same noise stream positions.
    """
    scalars = [_build_subarray(n_rows, n_cols, seed, variation)
               for seed in seeds]
    donors = [_build_subarray(n_rows, n_cols, seed, variation)
              for seed in seeds]
    profile = GroupProfile(
        group_id="T", vendor="test", freq_mhz=1333, n_chips=8,
        frac_capable=True, three_row=True, four_row=True,
        decoder=donors[0].decoder_profile, coupling=donors[0].coupling,
        variation=variation, electrical=donors[0].electrical)
    batched = BatchedSubArray(
        planes=VariationPlanes.stack(donors), profiles=[profile] * len(seeds),
        noises=[donor._noise for donor in donors],
        environments=[ENV] * len(seeds), origins=[(0, 0)] * len(seeds))
    return scalars, batched, _controller(batched, profile)


@st.composite
def batch_cases(draw):
    n_lanes = draw(st.integers(1, 5))
    n_rows = draw(st.integers(4, 12))
    n_cols = draw(st.integers(2, 8))
    seeds = draw(st.lists(st.integers(0, 2 ** 16), min_size=n_lanes,
                          max_size=n_lanes, unique=True))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_lanes,
                         max_size=n_lanes))
    volts = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=n_cols, max_size=n_cols),
        min_size=n_lanes, max_size=n_lanes))
    return n_rows, n_cols, seeds, rows, volts


def _controller(batched: BatchedSubArray, profile) -> BatchedSoftMC:
    """A one-bank, one-sub-array lane device around ``batched``."""
    n_lanes = batched.n_lanes
    device = BatchedChip(
        geometry=GeometryParams(n_banks=1, subarrays_per_bank=1,
                                rows_per_subarray=batched.n_rows,
                                columns=batched.n_cols),
        cells=[[batched]], groups=[profile] * n_lanes,
        row_maps=[IdentityMap(batched.n_rows)] * n_lanes,
        polarity_schemes=["true-only"] * n_lanes)
    return BatchedSoftMC(device)


def _issue(mc: BatchedSoftMC, rows, timeline, duration):
    """Compile and run ``timeline`` — ``(cycle, command(row))`` pairs —
    on every lane at its own row: one literal command stream per
    distinct row.  Returns each lane's reads."""
    reads: list[list[np.ndarray]] = [[] for _ in rows]
    for row in dict.fromkeys(rows):
        lanes = [lane for lane, lane_row in enumerate(rows)
                 if lane_row == row]
        sequence = CommandSequence(
            tuple(TimedCommand(cycle, make(row)) for cycle, make in timeline),
            duration)
        for block in FusedRunner(mc).run([ir.Commands(sequence)], rows={},
                                         lanes=lanes):
            for lane, bits in zip(lanes, block):
                reads[lane].append(bits)
    return reads


class TestBatchedKernelEquality:
    @given(batch_cases())
    @settings(deadline=None, max_examples=25)
    def test_charge_share_matches_scalar_loop(self, case):
        """One Frac: the charge share, frozen by the interrupting PRE."""
        n_rows, n_cols, seeds, rows, volts = case
        scalars, batched, mc = _make_pair(n_rows, n_cols, seeds,
                                          VariationParams())
        for lane, scalar in enumerate(scalars):
            scalar.cell_v[rows[lane]] = volts[lane]
            batched.cell_v[lane, rows[lane]] = volts[lane]
        for lane, scalar in enumerate(scalars):
            scalar.activate(rows[lane], 0, ENV)
            scalar.precharge(1, ENV)
            scalar.finish(7, ENV)
        _issue(mc, rows, [(0, lambda row: Activate(0, row)),
                          (1, lambda row: Precharge(0))], 7)
        for lane, scalar in enumerate(scalars):
            assert np.array_equal(scalar.bitline_v, batched.bitline_v[lane])
            assert np.array_equal(scalar.cell_v, batched.cell_v[lane])

    @given(batch_cases(), st.integers(2, 6))
    @settings(deadline=None, max_examples=25)
    def test_partial_amplify_matches_scalar_loop(self, case, pre_cycle):
        n_rows, n_cols, seeds, rows, volts = case
        scalars, batched, mc = _make_pair(n_rows, n_cols, seeds,
                                          VariationParams())
        for lane, scalar in enumerate(scalars):
            scalar.cell_v[rows[lane]] = volts[lane]
            batched.cell_v[lane, rows[lane]] = volts[lane]
        done = pre_cycle + CLOSE_ABORT_WINDOW
        for lane, scalar in enumerate(scalars):
            scalar.activate(rows[lane], 0, ENV)
            scalar.precharge(pre_cycle, ENV)
            scalar.finish(done, ENV)
        _issue(mc, rows, [(0, lambda row: Activate(0, row)),
                          (pre_cycle, lambda row: Precharge(0))], done)
        for lane, scalar in enumerate(scalars):
            assert np.array_equal(scalar.cell_v, batched.cell_v[lane])
            assert np.array_equal(scalar.bitline_v, batched.bitline_v[lane])
            assert (scalar._noise.rng.bit_generator.state
                    == batched._noises[lane].rng.bit_generator.state)

    @given(batch_cases())
    @settings(deadline=None, max_examples=25)
    def test_sense_matches_scalar_loop(self, case):
        n_rows, n_cols, seeds, rows, volts = case
        scalars, batched, mc = _make_pair(n_rows, n_cols, seeds,
                                          VariationParams())
        for lane, scalar in enumerate(scalars):
            scalar.cell_v[rows[lane]] = volts[lane]
            batched.cell_v[lane, rows[lane]] = volts[lane]
        buffers = []
        for lane, scalar in enumerate(scalars):
            scalar.activate(rows[lane], 0, ENV)
            scalar.settle(20, ENV)
            assert scalar.sense_fired
            buffers.append(scalar.row_buffer())
            scalar.precharge(21, ENV)
            scalar.finish(21 + CLOSE_ABORT_WINDOW, ENV)
        reads = _issue(mc, rows, [(0, lambda row: Activate(0, row)),
                                  (20, lambda row: ReadRow(0, row)),
                                  (21, lambda row: Precharge(0))],
                       21 + CLOSE_ABORT_WINDOW)
        for lane, scalar in enumerate(scalars):
            assert np.array_equal(buffers[lane], reads[lane][0])
            assert np.array_equal(scalar.cell_v, batched.cell_v[lane])

    @given(batch_cases(), st.floats(0.001, 3600.0),
           st.floats(0.0, 1.0).flatmap(
               lambda fraction: st.just(round(fraction, 3))),
           st.data())
    @settings(deadline=None, max_examples=25)
    def test_leak_matches_scalar_loop(self, case, dt, vrt_fraction, data):
        n_rows, n_cols, seeds, rows, volts = case
        variation = VariationParams(vrt_cell_fraction=vrt_fraction)
        scalars, batched, mc = _make_pair(n_rows, n_cols, seeds, variation)
        lanes = list(range(len(seeds)))
        bits = np.stack([np.asarray(lane_volts) >= 0.5
                         for lane_volts in volts])
        # Charge the cells through the command path (an in-spec write
        # cycle): leak's dirty-row tracking relies on the engine
        # invariant that cells only gain charge via open rows.
        for lane, scalar in enumerate(scalars):
            scalar.activate(rows[lane], 0, ENV)
            scalar.settle(6, ENV)
            scalar.write_open_row(bits[lane])
            scalar.precharge(15, ENV)
            scalar.finish(20, ENV)
        FusedRunner(mc).run([ir.WriteData(0, "row")], rows={"row": rows},
                            data={"row": bits})
        # The second leak covers a drawn subset of lanes in drawn order,
        # so the cached per-lane-set leak context is keyed twice.
        subset = data.draw(st.lists(st.sampled_from(lanes), min_size=1,
                                    unique=True), label="subset")
        second_dt = data.draw(st.floats(0.001, 3600.0), label="second_dt")
        for leak_lanes, leak_dt in ((lanes, dt), (subset, second_dt)):
            for lane in leak_lanes:
                scalars[lane].leak(leak_dt, ENV)
            batched.leak(leak_lanes, leak_dt)
            # Equal voltages alone would pass a lane that drew the wrong
            # block size; equal stream states pin what each lane consumed.
            for lane, scalar in enumerate(scalars):
                assert np.array_equal(scalar.cell_v, batched.cell_v[lane])
                assert (scalar._noise.rng.bit_generator.state
                        == batched._noises[lane].rng.bit_generator.state)
