"""The Section IV-B2 MAJ3 verification procedure, scalar and across lanes."""

import numpy as np
import pytest

from repro import DramChip, FracDram, GeometryParams
from repro.core.batched_ops import BatchedFracDram
from repro.core.verify import (
    COMBO_LABELS,
    MajVerifyResult,
    batched_verify_frac_by_maj3,
    verify_frac_by_maj3,
)
from repro.dram.batched import BatchedChip
from repro.errors import ConfigurationError
from repro.telemetry import events_by_kind, session as telemetry_session

from ..conftest import chip_streams, lane_streams


class TestProcedure:
    def test_baseline_ones_gives_x1_x2_ones(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, init_ones=True, n_frac=0)
        assert np.mean(result.x1) > 0.95
        assert np.mean(result.x2) > 0.95
        assert result.verified_fraction < 0.05

    def test_baseline_zeros_gives_x1_x2_zeros(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, init_ones=False, n_frac=0)
        assert np.mean(result.x1) < 0.05
        assert np.mean(result.x2) < 0.05

    def test_two_fracs_verify_fractional_value(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, init_ones=True, n_frac=2)
        assert result.verified_fraction > 0.95

    def test_r1r3_variant(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, frac_rows="R1R3",
                                     init_ones=True, n_frac=2)
        assert result.verified_fraction > 0.95

    def test_zeros_init_with_fracs_also_verifies(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, init_ones=False, n_frac=3)
        assert result.verified_fraction > 0.95

    def test_invalid_frac_rows_rejected(self, fd_b):
        with pytest.raises(ConfigurationError):
            verify_frac_by_maj3(fd_b, 0, frac_rows="R2R3")  # type: ignore

    def test_works_on_other_subarray(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, n_frac=2, subarray=1)
        assert result.verified_fraction > 0.9


class TestResultObject:
    def test_combo_fractions_sum_to_one(self, fd_b):
        result = verify_frac_by_maj3(fd_b, 0, n_frac=1)
        fractions = result.combo_fractions()
        assert set(fractions) == set(COMBO_LABELS)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_verified_mask_is_x1_and_not_x2(self):
        x1 = np.array([True, True, False, False])
        x2 = np.array([True, False, True, False])
        result = MajVerifyResult(x1=x1, x2=x2)
        assert result.verified_mask.tolist() == [False, True, False, False]
        assert result.verified_fraction == 0.25


class TestBatchedMatchesScalar:
    """The lane verification replays the scalar procedure chip by chip.

    Each pass runs its row preparation and readout as compiled programs
    around a per-command three-row activation.  The outcomes and every
    noise stream must stop where the scalar procedure leaves them, a
    lane outside ``lanes`` must not move at all, and (traced) every
    command must land on the scalar chip's row at the scalar cycle.
    """

    GEOMETRY = GeometryParams(n_banks=1, subarrays_per_bank=2,
                              rows_per_subarray=16, columns=64)
    SEED = 17
    SPECS = (("B", 0), ("A", 0), ("B", 1))
    LANES = (0, 2)
    #: frac_freeze events need n_frac > 0.
    TRACE_KINDS = ("sequence", "command", "sense", "glitch", "frac_freeze")

    def chip(self, group, serial):
        return DramChip(group, geometry=self.GEOMETRY, serial=serial,
                        master_seed=self.SEED)

    def run_lanes(self, **settings):
        device = BatchedChip.from_fleet(list(self.SPECS),
                                        geometry=self.GEOMETRY,
                                        master_seed=self.SEED)
        plan = FracDram(self.chip("B", 0)).triple_plan(0, 1)
        results = batched_verify_frac_by_maj3(
            BatchedFracDram(device), plan, lanes=list(self.LANES),
            **settings)
        return results, [lane_streams(device, lane)
                         for lane in range(len(self.SPECS))]

    def run_scalar(self, **settings):
        chips = [self.chip(group, serial) for group, serial in self.SPECS]
        results = [verify_frac_by_maj3(FracDram(chips[lane]), 0,
                                       subarray=1, **settings)
                   for lane in self.LANES]
        # chips[1] never runs: lane 1 must stay at the fresh state.
        return results, [chip_streams(chip) for chip in chips]

    @pytest.mark.parametrize("n_frac", (0, 2))
    @pytest.mark.parametrize("frac_rows", ("R1R2", "R1R3"))
    @pytest.mark.parametrize("init_ones", (True, False))
    def test_lane_subset_matches_scalar(self, n_frac, frac_rows, init_ones):
        settings = dict(n_frac=n_frac, frac_rows=frac_rows,
                        init_ones=init_ones)
        results, lane_states = self.run_lanes(**settings)
        references, chip_states = self.run_scalar(**settings)
        for result, reference in zip(results, references):
            np.testing.assert_array_equal(result.x1, reference.x1)
            np.testing.assert_array_equal(result.x2, reference.x2)
        for lane, states in enumerate(chip_states):
            assert lane_states[lane] == states, lane

    @pytest.mark.parametrize("n_frac", (0, 2))
    def test_trace_events_match_scalar(self, tmp_path, n_frac):
        traced = {}
        for engine, run in (("scalar", self.run_scalar),
                            ("lanes", self.run_lanes)):
            path = tmp_path / f"{engine}.jsonl"
            with telemetry_session(trace_path=path):
                run(n_frac=n_frac)
            traced[engine] = events_by_kind(path)
        kinds = self.TRACE_KINDS if n_frac else self.TRACE_KINDS[:-1]
        for kind in kinds:
            assert traced["scalar"].get(kind), kind
            assert traced["lanes"][kind] == traced["scalar"][kind], kind
