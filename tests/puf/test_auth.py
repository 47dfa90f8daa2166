"""PUF-based authentication."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DramChip, GeometryParams
from repro.analysis.stats import hamming_distance
from repro.errors import ConfigurationError, InsufficientDataError
from repro.puf.auth import (
    Authenticator,
    PackedReferences,
    _popcount_totals,
    match_probe,
)
from repro.puf.frac_puf import Challenge, FracPuf

GEOM = GeometryParams(n_banks=2, subarrays_per_bank=2,
                      rows_per_subarray=16, columns=64)
CHALLENGES = [Challenge(0, 1), Challenge(0, 3), Challenge(1, 5)]


def make_puf(serial: int, group: str = "B") -> FracPuf:
    return FracPuf(DramChip(group, geometry=GEOM, serial=serial))


def broadcast_match(references, probe):
    """The matcher before bit-packing: one broadcast XOR over every row."""
    per_challenge = np.mean(references ^ probe[np.newaxis], axis=2)
    distances = np.mean(per_challenge, axis=1)
    index = int(np.argmin(distances))
    return index, float(distances[index])


def loop_match(references, probe):
    """The historical per-device loop over ``hamming_distance``."""
    distances = [float(np.mean([hamming_distance(ref, got)
                                for ref, got in zip(reference, probe)]))
                 for reference in references]
    index = int(np.argmin(distances))
    return index, distances[index]


class TestEnrollment:
    def test_enroll_and_list(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert auth.enrolled_ids == ("dev-0",)

    def test_double_enroll_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        with pytest.raises(ConfigurationError):
            auth.enroll("dev-0", make_puf(1))

    def test_requires_challenges(self):
        with pytest.raises(ConfigurationError):
            Authenticator([])

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            Authenticator(CHALLENGES, threshold=0.9)


class TestAuthentication:
    def test_genuine_device_accepted(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        auth.enroll("dev-1", make_puf(1))
        decision = auth.authenticate(make_puf(0))
        assert decision.accepted
        assert decision.device_id == "dev-0"
        assert decision.mean_distance < 0.1

    def test_unknown_device_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        decision = auth.authenticate(make_puf(42))
        assert not decision.accepted
        assert decision.device_id is None
        assert decision.mean_distance > 0.2

    def test_cross_vendor_impostor_rejected(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0, group="B"))
        decision = auth.authenticate(make_puf(0, group="G"))
        assert not decision.accepted

    def test_authentication_with_fresh_noise_epoch(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        probe = make_puf(0)
        probe.fd.device.reseed_noise(epoch=1)
        assert auth.authenticate(probe).accepted

    def test_empty_database_raises(self):
        auth = Authenticator(CHALLENGES)
        with pytest.raises(InsufficientDataError):
            auth.authenticate(make_puf(0))

    def test_decision_str(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert "dev-0" in str(auth.authenticate(make_puf(0)))


class TestVectorizedMatching:
    def test_match_probe_bitwise_equals_scalar_loop(self):
        # The vectorized matcher must reproduce the scalar per-device
        # loop to the last float ulp: per-challenge means first, then
        # the mean over challenges, same reduction order as
        # hamming_distance.  Ties must keep first-enrolled-wins.
        rng = np.random.default_rng(99)
        references = rng.random((12, 3, 64)) < 0.5
        probe = rng.random((3, 64)) < 0.5
        index, best = match_probe(references, probe)
        scalar = [float(np.mean([hamming_distance(ref, got)
                                 for ref, got in zip(reference, probe)]))
                  for reference in references]
        assert best == min(scalar)
        assert index == int(np.argmin(scalar))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), c=st.integers(1, 12),
           bits=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           tied=st.booleans(), duplicated=st.booleans(),
           enrolled_probe=st.booleans())
    @example(n=3, c=2, bits=64, seed=0, tied=False, duplicated=True,
             enrolled_probe=True)
    @example(n=64, c=12, bits=200, seed=1, tied=True, duplicated=False,
             enrolled_probe=False)
    @example(n=5, c=8, bits=65, seed=2, tied=True, duplicated=True,
             enrolled_probe=False)
    @example(n=1, c=1, bits=1, seed=3, tied=False, duplicated=False,
             enrolled_probe=False)
    def test_packed_match_bit_identical_to_broadcast_and_loop(
            self, n, c, bits, seed, tied, duplicated, enrolled_probe):
        # ``tied`` puts every row the same number of flipped bits away
        # from the probe, spread differently over the challenges, so
        # only the float distances of the candidates separate them.
        rng = np.random.default_rng(seed)
        probe = rng.random((c, bits)) < 0.5
        if tied:
            flips = int(rng.integers(0, c * bits + 1))
            masks = np.zeros((n, c * bits), dtype=bool)
            for mask in masks:
                mask[rng.choice(c * bits, flips, replace=False)] = True
            references = probe ^ masks.reshape(n, c, bits)
        else:
            references = rng.random((n, c, bits)) < 0.5
        if duplicated:
            references = references[rng.integers(n, size=n)]
        if enrolled_probe:
            probe = references[int(rng.integers(n))].copy()
        expected = broadcast_match(references, probe)
        assert loop_match(references, probe) == expected
        assert match_probe(references, probe) == expected
        assert match_probe(PackedReferences(references), probe) == expected
        if enrolled_probe:
            assert expected[1] == 0.0

    def test_packed_match_at_the_served_shape(self):
        # 2048 enrolled 4 x 128-bit responses: genuine probes (a few
        # flipped bits), an impostor, an exact enrolled row, and a
        # duplicated row whose first enrollment must win.
        rng = np.random.default_rng(7)
        references = rng.random((2048, 4, 128)) < 0.5
        references[1500] = references[300]
        packed = PackedReferences(references)
        probes = [references[index] ^ (rng.random((4, 128)) < 0.03)
                  for index in (0, 777, 2047)]
        probes += [rng.random((4, 128)) < 0.5, references[1024].copy(),
                   references[1500].copy()]
        for probe in probes:
            assert match_probe(packed, probe) == broadcast_match(
                references, probe)
        assert match_probe(packed, references[1500]) == (300, 0.0)

    def test_totals_past_uint16_stay_exact(self):
        # One 70,000-bit challenge: a row can differ from the probe in
        # more bits than uint16 holds, so the totals must widen.  Rows
        # that would wrap (70,000 -> 4,464 and 65,546 -> 10) sit next
        # to the true nearest row (10,000 bits away).
        bits = 70_000
        rng = np.random.default_rng(11)
        probe = rng.random((1, bits)) < 0.5
        flips = [bits, 65_546, 10_000, 65_535]
        references = np.stack([probe ^ (np.arange(bits) < count)
                               for count in flips])
        totals = _popcount_totals(PackedReferences(references), probe)
        xor_counts = np.count_nonzero(references ^ probe, axis=(1, 2))
        assert totals.dtype == np.uint32
        assert totals.tolist() == xor_counts.tolist() == flips
        assert match_probe(references, probe) == broadcast_match(
            references, probe) == (2, 10_000 / bits)
        exact = np.concatenate([references, probe[np.newaxis]])
        assert match_probe(exact, probe) == (4, 0.0)

    def test_totals_use_the_narrowest_exact_type(self):
        # 4 x 128 bits: at most 512 differing bits, so uint16.
        rng = np.random.default_rng(12)
        references = rng.random((50, 4, 128)) < 0.5
        probe = rng.random((4, 128)) < 0.5
        totals = _popcount_totals(PackedReferences(references), probe)
        assert totals.dtype == np.uint16
        assert totals.tolist() == np.count_nonzero(
            references ^ probe, axis=(1, 2)).tolist()

    def test_tie_keeps_first_enrolled(self):
        probe = np.zeros((2, 8), dtype=bool)
        duplicate = np.ones((2, 8), dtype=bool)
        references = np.stack([duplicate, duplicate])
        index, _ = match_probe(references, probe)
        assert index == 0

    def test_match_probe_validates_shapes(self):
        with pytest.raises(InsufficientDataError):
            match_probe(np.empty((0, 2, 8), dtype=bool),
                        np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            match_probe(np.zeros((1, 2, 8), dtype=bool),
                        np.zeros((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            match_probe(PackedReferences(np.zeros((1, 2, 8), dtype=bool)),
                        np.zeros((2, 4), dtype=bool))
        with pytest.raises(InsufficientDataError):
            match_probe(PackedReferences(np.empty((0, 2, 8), dtype=bool)),
                        np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            PackedReferences(np.zeros((2, 8), dtype=bool))

    def test_stacked_references_cache_invalidated_by_enroll(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        assert auth.references.shape[0] == 1
        probe = make_puf(1).evaluate_many(CHALLENGES)
        assert auth.decide(probe).device_id is None  # packs dev-0 alone
        auth.enroll("dev-1", make_puf(1))
        assert auth.references.shape[0] == 2
        assert auth.decide(probe).device_id == "dev-1"
        decision = auth.authenticate(make_puf(1))
        assert decision.device_id == "dev-1"

    def test_references_are_read_only(self):
        auth = Authenticator(CHALLENGES)
        auth.enroll("dev-0", make_puf(0))
        with pytest.raises(ValueError):
            auth.references[0, 0, 0] = True
