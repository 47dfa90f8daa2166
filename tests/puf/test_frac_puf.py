"""Frac-PUF challenge/response behaviour."""

import numpy as np
import pytest

from repro import DramChip, GeometryParams, UnsupportedOperationError
from repro.errors import ConfigurationError
from repro.puf.frac_puf import (
    PAPER_SEGMENT_BITS,
    PUF_N_FRAC,
    Challenge,
    FracPuf,
    challenge_set,
    evaluation_time_us,
    reserved_row,
)

GEOM = GeometryParams(n_banks=2, subarrays_per_bank=2,
                      rows_per_subarray=16, columns=64)


def make_puf(group: str = "B", serial: int = 0) -> FracPuf:
    return FracPuf(DramChip(group, geometry=GEOM, serial=serial))


class TestChallenge:
    def test_rejects_negative_addresses(self):
        with pytest.raises(ConfigurationError):
            Challenge(-1, 0)


class TestChallengeLayout:
    def test_reserved_row_is_last_of_subarray(self):
        assert [reserved_row(row, 16) for row in (0, 14, 16)] == [15, 15, 31]
        with pytest.raises(ConfigurationError, match="reserved"):
            reserved_row(31, 16)

    def test_challenge_set_sweeps_addresses_skipping_reserved_rows(self):
        challenges = challenge_set(GEOM, 60)  # every usable row
        assert challenges[:2] == [Challenge(0, 0), Challenge(0, 1)]
        assert challenges[15] == Challenge(0, 16)
        assert challenges[30] == Challenge(1, 0)
        assert all((c.row + 1) % GEOM.rows_per_subarray
                   for c in challenges)


class TestResponses:
    def test_response_width(self):
        puf = make_puf()
        response = puf.evaluate(Challenge(0, 1))
        assert response.shape == (GEOM.columns,)

    def test_response_is_device_stable(self):
        puf = make_puf()
        first = puf.evaluate(Challenge(0, 1))
        second = puf.evaluate(Challenge(0, 1))
        assert np.mean(first ^ second) < 0.1  # intra-HD near zero

    def test_responses_unique_across_devices(self):
        a = make_puf(serial=0).evaluate(Challenge(0, 1))
        b = make_puf(serial=1).evaluate(Challenge(0, 1))
        assert np.mean(a ^ b) > 0.2  # inter-HD near 0.5-ish

    def test_response_not_a_rail(self):
        response = make_puf().evaluate(Challenge(0, 1))
        assert 0.02 < response.mean() < 0.98

    def test_same_subarray_rows_share_sense_amps(self):
        # Rows of one sub-array share the sense-amp stripe: responses are
        # highly correlated (the reason the NIST experiment uses one
        # challenge per sub-array).
        puf = make_puf()
        row_a = puf.evaluate(Challenge(0, 1))
        row_b = puf.evaluate(Challenge(0, 2))
        assert np.mean(row_a ^ row_b) < 0.1

    def test_distinct_subarrays_decorrelated(self):
        puf = make_puf()
        first = puf.evaluate(Challenge(0, 1))
        other = puf.evaluate(Challenge(0, 1 + GEOM.rows_per_subarray))
        assert np.mean(first ^ other) > 0.2

    def test_reserved_row_rejected_as_challenge(self):
        puf = make_puf()
        reserved = GEOM.rows_per_subarray - 1
        with pytest.raises(ConfigurationError):
            puf.evaluate(Challenge(0, reserved))

    def test_evaluate_many_shape(self):
        puf = make_puf()
        challenges = [Challenge(0, 1), Challenge(0, 3), Challenge(1, 5)]
        stacked = puf.evaluate_many(challenges)
        assert stacked.shape == (3, GEOM.columns)

    def test_concatenated_bitstream(self):
        puf = make_puf()
        stream = puf.concatenated_bitstream([Challenge(0, 1), Challenge(0, 3)])
        assert stream.shape == (2 * GEOM.columns,)

    def test_group_hamming_weight_respected(self):
        # Group A targets HW ~ 0.21.
        puf = FracPuf(DramChip("A", geometry=GEOM.scaled(columns=2048)))
        response = puf.evaluate(Challenge(0, 1))
        assert 0.1 < response.mean() < 0.35


class TestConstruction:
    def test_rejects_spacing_enforcing_groups(self):
        with pytest.raises(UnsupportedOperationError):
            make_puf("J")

    def test_rejects_bad_n_frac(self):
        with pytest.raises(ConfigurationError):
            FracPuf(DramChip("B", geometry=GEOM), n_frac=0)

    def test_default_n_frac_is_ten(self):
        assert PUF_N_FRAC == 10
        assert make_puf().n_frac == 10


class TestEvaluationTime:
    def test_paper_numbers(self):
        assert evaluation_time_us(PAPER_SEGMENT_BITS) == pytest.approx(1.5)
        assert evaluation_time_us(PAPER_SEGMENT_BITS,
                                  optimized=True) == pytest.approx(0.7, abs=0.1)

    def test_scales_with_segment(self):
        assert evaluation_time_us(1024) < evaluation_time_us(PAPER_SEGMENT_BITS)
