"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.analysis.stats import hamming_distance, hamming_weight
from repro.dram.decoder import differing_bits, hypercube_rows, resolve_glitch
from repro.dram.parameters import ElectricalParams
from repro.dram.rng import derive_seed
from repro.dram.vendor import get_group
from repro.puf.extractor import von_neumann_extract
from repro.puf.nist.complexity import berlekamp_massey
from repro.puf.nist.matrix import gf2_rank

bits_arrays = npst.arrays(dtype=bool, shape=st.integers(1, 128))
row_addresses = st.integers(min_value=0, max_value=1023)


class TestDecoderProperties:
    @given(row_addresses, row_addresses)
    def test_differing_bits_symmetric(self, r1, r2):
        assert differing_bits(r1, r2) == differing_bits(r2, r1)

    @given(row_addresses, row_addresses)
    def test_differing_bits_count_matches_popcount(self, r1, r2):
        assert len(differing_bits(r1, r2)) == bin(r1 ^ r2).count("1")

    @given(row_addresses, row_addresses)
    def test_hypercube_size_is_power_of_two(self, r1, r2):
        rows = hypercube_rows(r1, r2)
        k = len(differing_bits(r1, r2))
        assert len(set(rows)) == 2 ** k

    @given(row_addresses, row_addresses)
    def test_hypercube_contains_base_and_top(self, r1, r2):
        rows = set(hypercube_rows(r1, r2))
        assert (r1 & r2) in rows
        assert (r1 | r2) in rows

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_glitch_always_contains_act_pair(self, r1, r2):
        profile = get_group("B").decoder
        opened = resolve_glitch(profile, r1, r2, 16)
        assert r1 in opened and r2 in opened

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_glitch_opens_at_most_four_rows(self, r1, r2):
        profile = get_group("B").decoder
        assert len(resolve_glitch(profile, r1, r2, 16)) <= 4

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_glitch_rows_unique_and_in_range(self, r1, r2):
        profile = get_group("C").decoder
        opened = resolve_glitch(profile, r1, r2, 16)
        assert len(opened) == len(set(opened))
        assert all(0 <= row < 16 for row in opened)


class TestFracConvergence:
    @given(st.floats(0.0, 1.0), st.integers(0, 30))
    def test_residual_bounded_by_rails(self, initial, n):
        value = ElectricalParams().frac_residual(n, initial)
        assert 0.0 <= value <= 1.0

    @given(st.floats(0.0, 1.0), st.integers(0, 20))
    def test_deviation_contracts_monotonically(self, initial, n):
        electrical = ElectricalParams()
        deviation_n = abs(electrical.frac_residual(n, initial) - 0.5)
        deviation_next = abs(electrical.frac_residual(n + 1, initial) - 0.5)
        assert deviation_next <= deviation_n + 1e-12

    @given(st.floats(0.0, 1.0))
    def test_sign_of_deviation_preserved(self, initial):
        electrical = ElectricalParams()
        for n in range(1, 6):
            value = electrical.frac_residual(n, initial)
            if initial > 0.5:
                assert value >= 0.5
            elif initial < 0.5:
                assert value <= 0.5


class TestHammingProperties:
    @given(bits_arrays)
    def test_distance_to_self_is_zero(self, bits):
        assert hamming_distance(bits, bits) == 0.0

    @given(bits_arrays)
    def test_distance_to_complement_is_one(self, bits):
        assert hamming_distance(bits, ~bits) == 1.0

    @given(npst.arrays(dtype=bool, shape=3, fill=st.booleans()),
           npst.arrays(dtype=bool, shape=3, fill=st.booleans()))
    def test_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(bits_arrays)
    def test_weight_complement(self, bits):
        assert hamming_weight(bits) + hamming_weight(~bits) == 1.0


class TestExtractorProperties:
    @given(npst.arrays(dtype=bool, shape=st.integers(0, 512)))
    def test_output_never_longer_than_half(self, bits):
        assert von_neumann_extract(bits).size <= bits.size // 2

    @given(npst.arrays(dtype=bool, shape=st.integers(0, 512)))
    def test_output_is_binary(self, bits):
        out = von_neumann_extract(bits)
        assert np.isin(out, (0, 1)).all()

    @given(npst.arrays(dtype=bool, shape=st.integers(0, 256)))
    def test_output_counts_discordant_pairs(self, bits):
        pairs = bits[: bits.size // 2 * 2].reshape(-1, 2)
        discordant = int(np.sum(pairs[:, 0] != pairs[:, 1]))
        assert von_neumann_extract(bits).size == discordant

    @given(st.booleans(), st.integers(1, 100))
    def test_constant_input_yields_nothing(self, value, n):
        assert von_neumann_extract(np.full(2 * n, value)).size == 0


class TestGf2RankProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(npst.arrays(dtype=np.int8, shape=(8, 8),
                       elements=st.integers(0, 1)))
    def test_rank_bounds(self, matrix):
        rank = gf2_rank(matrix)
        assert 0 <= rank <= 8

    @settings(deadline=None)
    @given(npst.arrays(dtype=np.int8, shape=(6, 6),
                       elements=st.integers(0, 1)))
    def test_rank_invariant_under_row_swap(self, matrix):
        swapped = matrix[::-1].copy()
        assert gf2_rank(matrix) == gf2_rank(swapped)

    @settings(deadline=None)
    @given(npst.arrays(dtype=np.int8, shape=(6, 6),
                       elements=st.integers(0, 1)))
    def test_duplicating_a_row_never_raises_rank(self, matrix):
        duplicated = np.vstack([matrix, matrix[0]])
        assert gf2_rank(duplicated) == gf2_rank(matrix)


def _berlekamp_massey_oracle(bits: np.ndarray) -> int:
    """The earlier NumPy-vector Berlekamp-Massey, kept as a reference."""
    s = np.asarray(bits, dtype=np.uint8).reshape(-1)
    n = s.size
    c = np.zeros(n + 1, dtype=np.uint8)
    b = np.zeros(n + 1, dtype=np.uint8)
    c[0] = b[0] = 1
    length = 0
    m = -1
    for i in range(n):
        if length:
            discrepancy = (int(s[i])
                           + int(c[1:length + 1] @ s[i - length:i][::-1])) & 1
        else:
            discrepancy = int(s[i])
        if discrepancy:
            previous_c = c.copy()
            shift = i - m
            c[shift:] ^= b[: n + 1 - shift]
            if 2 * length <= i:
                length = i + 1 - length
                m = i
                b = previous_c
    return length


class TestBerlekampMasseyProperties:
    @settings(deadline=None)
    @given(npst.arrays(dtype=np.uint8, shape=st.integers(0, 700),
                       elements=st.integers(0, 1)))
    def test_equals_the_vector_oracle(self, bits):
        assert berlekamp_massey(bits) == _berlekamp_massey_oracle(bits)

    @settings(deadline=None)
    @given(npst.arrays(dtype=np.uint8, shape=st.integers(1, 64),
                       elements=st.integers(0, 1)))
    def test_complexity_bounded_by_length(self, bits):
        assert 0 <= berlekamp_massey(bits) <= bits.size

    @settings(deadline=None)
    @given(npst.arrays(dtype=np.uint8, shape=st.integers(1, 48),
                       elements=st.integers(0, 1)))
    def test_prefix_complexity_monotone(self, bits):
        # Linear complexity of a prefix never exceeds the full sequence's.
        half = berlekamp_massey(bits[: max(1, bits.size // 2)])
        full = berlekamp_massey(bits)
        assert half <= full

    @settings(deadline=None)
    @given(st.integers(1, 24))
    def test_impulse_sequence(self, n):
        # 0^(n-1) 1 has linear complexity n.
        bits = np.zeros(n, dtype=np.uint8)
        bits[-1] = 1
        assert berlekamp_massey(bits) == n


class TestSeedDerivation:
    @given(st.integers(0, 2**32), st.text(max_size=10), st.text(max_size=10))
    def test_distinct_keys_distinct_seeds(self, master, a, b):
        if a != b:
            assert derive_seed(master, a) != derive_seed(master, b)

    @given(st.integers(0, 2**32), st.text(max_size=10))
    def test_deterministic(self, master, key):
        assert derive_seed(master, key) == derive_seed(master, key)
