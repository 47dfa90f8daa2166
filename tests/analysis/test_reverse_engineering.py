"""Reverse-engineering estimators validated against ground truth, and the
lane probe checked against the scalar one."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro import DramChip, FracDram, GeometryParams
from repro.analysis.reverse_engineering import (
    batched_probe_opened_rows,
    estimate_sense_thresholds,
    estimate_share_factor,
    probe_opened_rows,
)
from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.telemetry import events_by_kind, session as telemetry_session

from ..conftest import chip_streams, lane_streams

GEOM = GeometryParams(n_banks=1, subarrays_per_bank=1,
                      rows_per_subarray=16, columns=512)


@pytest.fixture(scope="module")
def fd():
    return FracDram(DramChip("B", geometry=GEOM, serial=2))


class TestThresholdEstimation:
    def test_brackets_are_ordered(self, fd):
        estimate = estimate_sense_thresholds(fd, 0, 1)
        assert np.all(estimate.lower <= estimate.upper)
        assert np.all(estimate.lower >= 0.5)
        assert np.all(estimate.upper <= 1.0)

    def test_brackets_contain_ground_truth(self, fd):
        estimate = estimate_sense_thresholds(fd, 0, 1, repeats=5)
        subarray = fd.device.subarray_of(0, 1)
        ratio = 1.0 + fd.group.electrical.bitline_to_cell_ratio
        truth = 0.5 + subarray.sa_offset * ratio
        tolerance = 0.02  # per-trial weight jitter blurs the bracket
        inside = ((truth >= estimate.lower - tolerance)
                  & (truth <= estimate.upper + tolerance))
        assert np.mean(inside) > 0.6

    def test_midpoints_correlate_with_offsets(self, fd):
        estimate = estimate_sense_thresholds(fd, 0, 1, repeats=5)
        offsets = fd.device.subarray_of(0, 1).sa_offset
        # Only columns with thresholds inside the ladder carry signal.
        informative = estimate.resolution < 0.3
        correlation = np.corrcoef(estimate.midpoint[informative],
                                  offsets[informative])[0, 1]
        assert correlation > 0.5

    def test_resolution_shrinks_deeper_in_ladder(self, fd):
        estimate = estimate_sense_thresholds(fd, 0, 1)
        # Rung spacing is geometric: brackets near Vdd/2 are the tightest.
        near_half = estimate.upper < 0.52
        if near_half.any():
            assert estimate.resolution[near_half].max() < 0.05


class TestShareFactorEstimation:
    def test_fit_is_unchanged_by_the_special_function_cdf(self):
        """The fit's normal CDF is ``scipy.special.ndtr``, which is what
        ``scipy.stats.norm.cdf`` evaluates: a fresh chip gives the value
        the ``norm.cdf`` fit gave (recorded with scipy 1.17.1, numpy
        2.4.6)."""
        fresh = FracDram(DramChip("B", geometry=GEOM, serial=2))
        assert estimate_share_factor(fresh, 0, 1) == 0.27979285448692254

    def test_recovers_default_ratio(self, fd):
        q = estimate_share_factor(fd, 0, 1)
        assert q == pytest.approx(0.25, abs=0.08)

    def test_implied_capacitance_ratio(self, fd):
        q = estimate_share_factor(fd, 0, 1)
        implied_cb_over_cc = 1.0 / q - 1.0
        assert implied_cb_over_cc == pytest.approx(3.0, rel=0.45)

    def test_tracks_modified_electricals(self):
        from dataclasses import replace

        from repro.dram.parameters import ElectricalParams
        from repro.dram.vendor import get_group

        profile = replace(get_group("B"),
                          electrical=ElectricalParams(bitline_to_cell_ratio=6.0))
        fd = FracDram(DramChip(profile, geometry=GEOM))
        q = estimate_share_factor(fd, 0, 1)
        assert q == pytest.approx(1.0 / 7.0, abs=0.06)


class TestBatchedProbeMatchesScalar:
    """The lane probe replays the scalar probe module by module.

    Its stores and readback run as compiled programs around a
    per-command glitch, so these tests pin what the port must keep:
    each lane's opened rows, where its pattern generator and every
    sub-array noise stream stop, and (traced) every event it emits.
    Sense events carry data-dependent ``ones``/``flips`` counts, so a
    pattern stored in the wrong row shows there even when the opened
    rows and the stream positions do not move.
    """

    GROUPS = ("B", "C", "D", "J")
    GEOMETRY = GeometryParams(n_banks=1, subarrays_per_bank=2,
                              rows_per_subarray=16, columns=64)
    SEED = 11
    PATTERN_SEED = 5
    #: (lanes, pairs) scans.  (1, 2) opens three rows on B and four on
    #: C/D, (0, 9) four on B, (0, 4) no extra row anywhere; J drops
    #: every glitch.  The second scan runs on a shrunk lane subset, with
    #: a pair in each sub-array.
    SCANS = (((0, 1, 2, 3), ((1, 2), (0, 9), (0, 4))),
             ((1, 3), ((4, 7), (17, 18))))
    TRACE_KINDS = ("sequence", "command", "sense", "glitch", "drop")

    def run_scalar(self):
        chips = [DramChip(group, geometry=self.GEOMETRY, serial=0,
                          master_seed=self.SEED) for group in self.GROUPS]
        fds = [FracDram(chip) for chip in chips]
        rngs = [np.random.default_rng(self.PATTERN_SEED)
                for _ in self.GROUPS]
        results = [
            {lane: probe_opened_rows(fds[lane], 0, r1, r2, rngs[lane])
             for lane in lanes}
            for lanes, pairs in self.SCANS for r1, r2 in pairs]
        return (results, [rng.bit_generator.state for rng in rngs],
                [chip_streams(chip) for chip in chips])

    def run_lanes(self):
        device = BatchedChip.from_fleet(
            [(group, 0) for group in self.GROUPS], geometry=self.GEOMETRY,
            master_seed=self.SEED)
        bfd = BatchedFracDram(device)
        rngs = [np.random.default_rng(self.PATTERN_SEED)
                for _ in self.GROUPS]
        results = []
        for lanes, pairs in self.SCANS:
            for r1, r2 in pairs:
                opened = batched_probe_opened_rows(
                    bfd, 0, r1, r2, [rngs[lane] for lane in lanes],
                    list(lanes))
                results.append(dict(zip(lanes, opened)))
        return (results, [rng.bit_generator.state for rng in rngs],
                [lane_streams(device, lane)
                 for lane in range(len(self.GROUPS))])

    def test_scans_cover_three_four_and_no_extra_rows(self):
        results, _, _ = self.run_scalar()
        counts = {len(opened) for scan in results
                  for opened in scan.values()}
        assert counts == {2, 3, 4}

    @pytest.mark.parametrize("traced", (False, True))
    def test_results_and_streams_match_scalar(self, traced):
        with telemetry_session() if traced else nullcontext():
            scalar = self.run_scalar()
        with telemetry_session() if traced else nullcontext():
            lanes = self.run_lanes()
        results, pattern_states, noise_states = lanes
        assert results == scalar[0]
        for lane in range(len(self.GROUPS)):
            assert pattern_states[lane] == scalar[1][lane], lane
            assert noise_states[lane] == scalar[2][lane], lane

    def test_trace_events_match_scalar(self, tmp_path):
        traced = {}
        for engine, run in (("scalar", self.run_scalar),
                            ("lanes", self.run_lanes)):
            path = tmp_path / f"{engine}.jsonl"
            with telemetry_session(trace_path=path):
                run()
            traced[engine] = events_by_kind(path)
        assert all(traced["scalar"].get(kind) for kind in self.TRACE_KINDS)
        for kind in self.TRACE_KINDS:
            assert traced["lanes"][kind] == traced["scalar"][kind], kind
